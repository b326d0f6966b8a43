import math

import numpy as np
import pytest

from swarmforage import cpfa
from swarmforage.core import Arena, CpfaParams, DEFAULT_PARAMS, SIGMA_MAX, poisson_cdf
from swarmforage.cpfa import (
    SEARCH_STARVATION_AFTER_S,
    SEARCH_STARVATION_EVERY_S,
    fallback_decide,
    informed_sigma,
    should_give_up,
    should_lay_pheromone,
    should_switch_to_search,
    uninformed_step_heading,
)
from swarmforage.engine import TrialConfig, World, run_trial
from swarmforage.kinematics import MotionLimits
from swarmforage.layouts import Distribution, LayoutSpec
from swarmforage.policy import (
    DecisionEvent,
    DecisionPolicy,
    EventType,
    PolicyDecision,
    TacticalAction,
    build_whitelist,
)


def params_with(**overrides):
    values = DEFAULT_PARAMS.as_dict()
    values.update(overrides)
    return CpfaParams(**values)


def trial_config(dist="clustered", count=64, side=6.0, team=4, policy="cascade",
                 duration=120.0, seed=1, params=DEFAULT_PARAMS):
    arena = Arena.square(side)
    layout = LayoutSpec(Distribution(dist), count, arena, seed=seed)
    return TrialConfig(arena=arena, team_size=team, layout=layout, params=params,
                       policy=policy, duration=duration, seed=seed)


class TestWalkMath:
    def test_zero_spread_keeps_heading(self):
        rng = np.random.default_rng(0)
        params = params_with(rho_u=0.0)
        assert uninformed_step_heading(1.2, params, rng) == 1.2

    def test_same_rng_state_same_heading(self):
        params = params_with(rho_u=1.0)
        a = uninformed_step_heading(0.5, params, np.random.default_rng(42))
        b = uninformed_step_heading(0.5, params, np.random.default_rng(42))
        assert a == b

    def test_wrapped(self):
        rng = np.random.default_rng(1)
        params = params_with(rho_u=SIGMA_MAX)
        for _ in range(100):
            h = uninformed_step_heading(3.0, params, rng)
            assert -math.pi <= h < math.pi

    def test_max_spread_is_near_uniform(self):
        # circular resultant length of 10k wrapped draws should be ~0
        rng = np.random.default_rng(7)
        params = params_with(rho_u=SIGMA_MAX)
        headings = np.array([uninformed_step_heading(0.0, params, rng) for _ in range(10_000)])
        resultant = abs(np.exp(1j * headings).mean())
        assert resultant < 0.05

    def test_informed_sigma_at_zero(self):
        assert informed_sigma(0.0, params_with(rho_u=1.0, lambda_i=0.5)) == SIGMA_MAX

    def test_informed_sigma_no_decay(self):
        params = params_with(rho_u=1.0, lambda_i=0.0)
        for t in (0.0, 5.0, 500.0):
            assert informed_sigma(t, params) == SIGMA_MAX

    def test_informed_sigma_closed_form(self):
        params = params_with(rho_u=1.0, lambda_i=0.25)
        expected = 1.0 + (SIGMA_MAX - 1.0) / math.e
        assert informed_sigma(1.0 / 0.25, params) == pytest.approx(expected, rel=1e-12)

    def test_informed_sigma_negative_time(self):
        with pytest.raises(ValueError):
            informed_sigma(-1.0, DEFAULT_PARAMS)


def cascade_event(event_type, density=0, pheromones=0):
    """A decision event at the centre, after a pickup at (1, 1)."""
    return DecisionEvent(
        robot_id="r0", event_type=event_type,
        current_state=("RETURNING_WITH_RESOURCE" if event_type is EventType.POST_DEPOSIT_DECISION
                       else "RETURNING_EMPTY"),
        sim_time_sec=90.0, position=(0.2, 0.1), resource_density=density,
        time_since_last_pickup=80.0, last_pickup_location=(1.0, 1.0),
        active_pheromone_count=pheromones,
        allowed_actions=tuple(build_whitelist(event_type)),
    )


def post_deposit(density, pheromones=0):
    return cascade_event(EventType.POST_DEPOSIT_DECISION, density, pheromones)


def central_arrival(pheromones, density=0):
    return cascade_event(EventType.CENTRAL_ZONE_ARRIVAL, density, pheromones)


class TestCascades:
    def test_post_deposit_no_options(self):
        # POISCDF(0, 20) ~ 2e-9: fidelity misses, and with no trail the robot searches
        rng = np.random.default_rng(0)
        action = fallback_decide(post_deposit(0), params_with(lambda_f=20.0), rng)
        assert action is TacticalAction.UNINFORMED_SEARCH

    def test_post_deposit_site_fidelity_frequency(self):
        # empirical frequency of the fidelity branch matches the Poisson CDF
        cases = [(10, 20.0), (2, 1.0), (0, 1.0), (5, 5.0), (3, 8.0)]
        rng = np.random.default_rng(123)
        n = 100_000
        for c, lam in cases:
            params = params_with(lambda_f=lam)
            event = post_deposit(c)
            hits = sum(
                fallback_decide(event, params, rng) is TacticalAction.USE_SITE_FIDELITY
                for _ in range(n)
            )
            p = poisson_cdf(c, lam)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / n) + 1e-9
            assert abs(hits / n - p) <= bound, (c, lam, hits / n, p)

    def test_post_deposit_near_certain_fidelity(self):
        params = params_with(lambda_f=1.0)
        rng = np.random.default_rng(5)
        assert poisson_cdf(10, 1.0) >= 0.995
        event = post_deposit(10, pheromones=3)
        hits = sum(
            fallback_decide(event, params, rng) is TacticalAction.USE_SITE_FIDELITY
            for _ in range(2000)
        )
        assert hits / 2000 >= 0.99

    def test_post_deposit_prefers_pheromone_over_random(self):
        # a fidelity miss follows a trail when one is active
        rng = np.random.default_rng(0)
        action = fallback_decide(post_deposit(0, pheromones=3), params_with(lambda_f=20.0), rng)
        assert action is TacticalAction.FOLLOW_PHEROMONE

    def test_central_arrival_two_way(self):
        # pheromone over random, and no draw from the policy stream
        rng = np.random.default_rng(0)
        for pheromones, expected in ((0, TacticalAction.UNINFORMED_SEARCH),
                                     (2, TacticalAction.FOLLOW_PHEROMONE)):
            assert fallback_decide(central_arrival(pheromones), DEFAULT_PARAMS, rng) is expected
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_central_arrival_ignores_fidelity_flag(self):
        # a remembered dense site does not reopen the fidelity branch
        rng = np.random.default_rng(0)
        action = fallback_decide(central_arrival(0, density=9), DEFAULT_PARAMS, rng)
        assert action is TacticalAction.UNINFORMED_SEARCH

    @pytest.mark.parametrize("policy, draws_per_deposit", [("cascade", 2), ("scripted", 1)])
    def test_every_poisson_draw_goes_through_cpfa(self, monkeypatch, policy, draws_per_deposit):
        # the pheromone check at each deposit, plus the cascade's fidelity draw
        calls = []

        def counted(c, lam):
            calls.append((c, lam))
            return poisson_cdf(c, lam)

        monkeypatch.setattr(cpfa, "poisson_cdf", counted)
        result = run_trial(trial_config(policy=policy, duration=300.0, seed=2))
        assert result.deposits > 0
        assert len(calls) == draws_per_deposit * result.deposits


class TestStochasticChecks:
    def test_lay_pheromone_certain_at_zero_rate(self):
        params = params_with(lambda_lp=0.0)
        rng = np.random.default_rng(0)
        assert all(should_lay_pheromone(0, params, rng) for _ in range(1000))

    def test_lay_pheromone_vanishing(self):
        # CDF(0, 20) = e^-20 ~ 2e-9: expect zero positives in 1e5 draws
        params = params_with(lambda_lp=20.0)
        rng = np.random.default_rng(0)
        assert not any(should_lay_pheromone(0, params, rng) for _ in range(100_000))

    def test_lay_pheromone_frequency(self):
        params = params_with(lambda_lp=1.0)
        rng = np.random.default_rng(9)
        n = 100_000
        freq = sum(should_lay_pheromone(2, params, rng) for _ in range(n)) / n
        assert abs(freq - poisson_cdf(2, 1.0)) < 0.005

    def test_give_up_edge_cases(self):
        rng = np.random.default_rng(0)
        assert not any(should_give_up(params_with(p_r=0.0), rng) for _ in range(1000))
        assert all(should_give_up(params_with(p_r=1.0), rng) for _ in range(1000))

    def test_give_up_geometric_mean(self):
        params = params_with(p_r=0.1)
        rng = np.random.default_rng(3)
        totals = []
        for _ in range(20_000):
            n = 1
            while not should_give_up(params, rng):
                n += 1
            totals.append(n)
        assert abs(np.mean(totals) - 10.0) / 10.0 < 0.05

    def test_switch_to_search_median_tick_is_one(self):
        # geometric(0.5): P(first tick) = 0.5, so the distribution median is 1
        params = params_with(p_s=0.5)
        rng = np.random.default_rng(4)
        counts = []
        for _ in range(20_000):
            n = 1
            while not should_switch_to_search(params, rng):
                n += 1
            counts.append(n)
        first_tick_freq = np.mean(np.asarray(counts) == 1)
        assert min(counts) == 1
        assert abs(first_tick_freq - 0.5) < 0.012  # 3 sigma and change


class TestFsmInvariants:
    def test_pickup_sets_memory_and_state(self):
        config = trial_config(policy="scripted", duration=200.0, seed=8)
        world = World(config)
        seen_pickup = False
        for _ in range(2000):
            world.step()
            for robot in world.robots:
                if robot.carrying:
                    seen_pickup = True
                    assert robot.last_pickup_location is not None
            if seen_pickup:
                break
        assert seen_pickup

    def test_post_deposit_always_preceded_by_deposit(self):
        result = run_trial(trial_config(policy="scripted", duration=300.0, seed=3))
        last_kind_per_robot = {}
        for event in result.event_log:
            robot = event["robot"]
            if event["kind"] == "DECISION" and event["payload"]["event_type"] == "POST_DEPOSIT_DECISION":
                assert last_kind_per_robot.get(robot) == "DEPOSIT", event
            if event["kind"] in ("DEPOSIT", "DECISION", "GIVE_UP", "PICKUP"):
                last_kind_per_robot[robot] = event["kind"]

    def test_exactly_one_giveup_mechanism(self):
        # vanilla mode: no starvation decisions; scripted mode: no GIVE_UP events
        vanilla = run_trial(trial_config(policy="cascade", duration=300.0, seed=6,
                                         params=params_with(p_r=0.05)))
        kinds = {e["kind"] for e in vanilla.event_log}
        starvation = [e for e in vanilla.event_log
                      if e["kind"] == "DECISION" and e["payload"]["event_type"] == "SEARCH_STARVATION"]
        assert starvation == []
        assert "GIVE_UP" in kinds

        scripted = run_trial(trial_config(policy="scripted", duration=300.0, seed=6))
        assert all(e["kind"] != "GIVE_UP" for e in scripted.event_log)

    def test_travel_targets_exact(self):
        config = trial_config(policy="scripted", duration=400.0, seed=12)
        world = World(config)
        for _ in range(4000):
            world.step()
            for robot in world.robots:
                if robot.state.value == "TRAVELING_TO_SITE":
                    assert robot.target == robot.last_pickup_location
                elif robot.state.value == "TRAVELING_TO_PHEROMONE":
                    assert robot.target is not None

    def test_decision_sources_are_legal(self):
        result = run_trial(trial_config(policy="scripted", duration=300.0, seed=3))
        sources = {
            e["payload"]["source"] for e in result.event_log if e["kind"] == "DECISION"
        }
        assert sources <= {"cascade", "llm", "scripted", "fallback", "degraded"}
        for event in result.event_log:
            if event["kind"] == "DECISION":
                payload = event["payload"]
                assert payload["action"] in payload["context"]["allowed_actions"] or \
                    payload["source"] == "degraded"

    def test_an_action_outside_the_whitelist_falls_back(self):
        class ContinueEverywhere(DecisionPolicy):
            def decide(self, event):
                return PolicyDecision(action=TacticalAction.CONTINUE_SEARCH, source="scripted")

        world = World(trial_config(team=2, duration=300.0, seed=1),
                      policy_factory=lambda i: ContinueEverywhere())
        result = world.run()
        errors = [e for e in result.event_log if e["kind"] == "POLICY_ERROR"]
        assert errors
        assert all("CONTINUE_SEARCH is not an allowed action" in e["payload"]["error"]
                   for e in errors)
        centre = [e["payload"] for e in result.event_log if e["kind"] == "DECISION"
                  and e["payload"]["event_type"] != "SEARCH_STARVATION"]
        assert len(centre) == len(errors)
        assert all(p["source"] == "fallback" for p in centre)


class TestStarvationTiming:
    def test_first_fire_and_refire(self):
        arena = Arena.square(6.0)
        layout = LayoutSpec(Distribution.RANDOM, 0, arena, seed=1)
        config = TrialConfig(arena=arena, team_size=2, layout=layout, params=DEFAULT_PARAMS,
                             policy="uninformed", duration=130.0, seed=5)
        result = run_trial(config)
        search_start = {}
        fired = []
        for event in result.event_log:
            robot = event["robot"]
            if event["kind"] == "STATE" and event["payload"]["to"].startswith("SEARCHING"):
                if not event["payload"]["from"].startswith("SEARCHING"):
                    search_start[robot] = event["t"]
            if event["kind"] == "DECISION" and event["payload"]["event_type"] == "SEARCH_STARVATION":
                fired.append(event["t"] - search_start[robot])
        assert fired, "no starvation decisions fired"
        dt = MotionLimits().dt
        assert all(abs(delta - SEARCH_STARVATION_AFTER_S) <= dt + 1e-9 for delta in fired)

    def test_refire_interval(self):
        arena = Arena.square(6.0)
        layout = LayoutSpec(Distribution.RANDOM, 0, arena, seed=1)
        # fixed CONTINUE_SEARCH keeps robots searching forever
        config = TrialConfig(arena=arena, team_size=1, layout=layout, params=DEFAULT_PARAMS,
                             policy="cascade", duration=200.0, seed=5)

        class ContinueSearch(DecisionPolicy):
            def decide(self, event):
                return PolicyDecision(action=TacticalAction.CONTINUE_SEARCH, source="scripted")

        world = World(config, policy_factory=lambda i: ContinueSearch())
        result = world.run()
        times = [e["t"] for e in result.event_log
                 if e["kind"] == "DECISION" and e["payload"]["event_type"] == "SEARCH_STARVATION"]
        assert len(times) >= 3
        gaps = [b - a for a, b in zip(times, times[1:])]
        dt = MotionLimits().dt
        assert all(abs(g - SEARCH_STARVATION_EVERY_S) <= dt + 1e-9 for g in gaps)


class TestSwitchEdges:
    def test_certain_switch_fires_first_tick(self):
        rng = np.random.default_rng(0)
        assert all(should_switch_to_search(params_with(p_s=1.0), rng) for _ in range(100))

    def test_zero_switch_reaches_target(self):
        rng = np.random.default_rng(0)
        assert not any(should_switch_to_search(params_with(p_s=0.0), rng) for _ in range(100))
