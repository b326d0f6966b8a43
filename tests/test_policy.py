import json

import numpy as np
import pytest

from swarmforage.core import DEFAULT_PARAMS, CpfaParams
from swarmforage.cpfa import fallback_decide
from swarmforage.engine import make_policy
from swarmforage.gateway import GatewayConfig, LlmClient
from swarmforage.policy import (
    CascadePolicy,
    DecisionEvent,
    EventType,
    FixedActionPolicy,
    ScriptedPolicy,
    TacticalAction,
    build_whitelist,
    scripted_decide,
)


def make_event(event_type=EventType.POST_DEPOSIT_DECISION, density=0, pheromones=0,
               time_since=10.0, pickup=None, summary=None):
    return DecisionEvent(
        robot_id="r0",
        event_type=event_type,
        current_state="RETURNING_WITH_RESOURCE",
        sim_time_sec=52.6,
        position=(0.39, 0.17),
        resource_density=density,
        time_since_last_pickup=time_since,
        last_pickup_location=pickup,
        active_pheromone_count=pheromones,
        pheromone_summary=summary,
        allowed_actions=tuple(build_whitelist(event_type)),
    )


class TestWhitelists:
    def test_post_deposit(self):
        assert build_whitelist(EventType.POST_DEPOSIT_DECISION) == [
            "USE_SITE_FIDELITY", "FOLLOW_PHEROMONE", "UNINFORMED_SEARCH",
        ]

    def test_central_arrival_full_three(self):
        assert build_whitelist(EventType.CENTRAL_ZONE_ARRIVAL) == [
            "USE_SITE_FIDELITY", "FOLLOW_PHEROMONE", "UNINFORMED_SEARCH",
        ]

    def test_starvation(self):
        assert build_whitelist(EventType.SEARCH_STARVATION) == [
            "CONTINUE_SEARCH", "RETURN_FOR_INFO",
        ]

    def test_static_regardless_of_world(self):
        # whitelist identical whether or not pheromones exist
        a = make_event(pheromones=0).allowed_actions
        b = make_event(pheromones=9).allowed_actions
        assert a == b


def llm_decide(behavior):
    """The llm policy's decision on make_event() from a mock endpoint."""
    return LlmClient(GatewayConfig(mode="mock", mock_behavior=behavior)).decide(make_event())


class TestValidate:
    def test_accepts_exact_member(self):
        decision = llm_decide("fixed:USE_SITE_FIDELITY")
        assert decision.action is TacticalAction.USE_SITE_FIDELITY
        assert decision.source == "llm"

    def test_rejects_unknown_action(self):
        decision = llm_decide("fixed:GO_HOME")
        assert (decision.action, decision.fallback_reason) == (None, "out_of_whitelist")

    def test_rejects_wrong_event_family(self):
        decision = llm_decide("fixed:CONTINUE_SEARCH")
        assert (decision.action, decision.fallback_reason) == (None, "out_of_whitelist")

    def test_case_sensitive_by_default(self):
        decision = llm_decide("fixed:use_site_fidelity")
        assert (decision.action, decision.fallback_reason) == (None, "out_of_whitelist")

    def test_passes_through_gateway_failures(self):
        decision = llm_decide("always_timeout")
        assert (decision.action, decision.fallback_reason) == (None, "timeout")


class TestFallbackDecide:
    def test_starvation_certain_give_up(self):
        params = CpfaParams(**{**DEFAULT_PARAMS.as_dict(), "p_r": 1.0})
        event = make_event(EventType.SEARCH_STARVATION)
        rng = np.random.default_rng(0)
        assert fallback_decide(event, params, rng) is TacticalAction.RETURN_FOR_INFO

    def test_starvation_never_give_up(self):
        params = CpfaParams(**{**DEFAULT_PARAMS.as_dict(), "p_r": 0.0})
        event = make_event(EventType.SEARCH_STARVATION)
        rng = np.random.default_rng(0)
        assert fallback_decide(event, params, rng) is TacticalAction.CONTINUE_SEARCH

    def test_post_deposit_without_options(self):
        # POISCDF(0, 20) ~ 2e-9: the fidelity draw misses and no trail is active
        params = CpfaParams(**{**DEFAULT_PARAMS.as_dict(), "lambda_f": 20.0})
        event = make_event(density=0, pheromones=0, pickup=(0.8, -1.2))
        rng = np.random.default_rng(0)
        assert fallback_decide(event, params, rng) is TacticalAction.UNINFORMED_SEARCH

    def test_central_arrival_prefers_pheromone(self):
        event = make_event(EventType.CENTRAL_ZONE_ARRIVAL, pheromones=2)
        rng = np.random.default_rng(0)
        assert fallback_decide(event, DEFAULT_PARAMS, rng) is TacticalAction.FOLLOW_PHEROMONE


class TestScripted:
    def test_published_example_prompt(self):
        # density 2.0, no pheromones, pickup location remembered -> site fidelity
        event = make_event(density=2, pheromones=0, pickup=(0.8, -1.2))
        response = scripted_decide(event)
        assert response.action == "USE_SITE_FIDELITY"
        assert response.rationale

    def test_pheromone_when_no_density(self):
        event = make_event(density=0, pheromones=3)
        assert scripted_decide(event).action == "FOLLOW_PHEROMONE"

    def test_uninformed_when_nothing(self):
        event = make_event(density=0, pheromones=0)
        assert scripted_decide(event).action == "UNINFORMED_SEARCH"

    def test_starvation_patient_without_signal(self):
        event = make_event(EventType.SEARCH_STARVATION, pheromones=0, time_since=90.0)
        assert scripted_decide(event).action == "CONTINUE_SEARCH"

    def test_starvation_returns_for_pheromones(self):
        event = make_event(EventType.SEARCH_STARVATION, pheromones=1, time_since=70.0)
        assert scripted_decide(event).action == "RETURN_FOR_INFO"

    def test_starvation_returns_when_stale(self):
        event = make_event(EventType.SEARCH_STARVATION, pheromones=0, time_since=181.0)
        assert scripted_decide(event).action == "RETURN_FOR_INFO"

    def test_deterministic(self):
        event = make_event(density=2, pheromones=0, pickup=(0.8, -1.2))
        assert scripted_decide(event) == scripted_decide(event)


class TestPolicies:
    def test_cascade_policy_sources(self):
        policy = CascadePolicy()
        decision = policy.decide(make_event())
        assert decision.source == "cascade"
        assert not decision.llm_call
        assert not policy.uses_starvation

    def test_scripted_policy(self):
        policy = ScriptedPolicy()
        decision = policy.decide(make_event(density=2, pickup=(1.0, 1.0)))
        assert decision.source == "scripted"
        assert decision.action is TacticalAction.USE_SITE_FIDELITY
        assert policy.uses_starvation

    def test_fixed_policy(self):
        policy = FixedActionPolicy()
        assert policy.decide(make_event()).action is TacticalAction.UNINFORMED_SEARCH
        starve = make_event(EventType.SEARCH_STARVATION)
        assert policy.decide(starve).action is TacticalAction.RETURN_FOR_INFO

    def test_make_policy_selectors(self):
        assert isinstance(make_policy("cascade"), CascadePolicy)
        assert isinstance(make_policy("scripted"), ScriptedPolicy)
        assert isinstance(make_policy("uninformed"), FixedActionPolicy)
        with pytest.raises(ValueError):
            make_policy("llm")  # needs a client
        with pytest.raises(ValueError):
            make_policy("alien")


class TestEventPayload:
    def test_field_order_and_omission(self):
        event = make_event(density=2, pheromones=0)
        doc = event.payload()
        assert "last_pickup_location" not in doc
        keys = list(doc)
        assert keys.index("robot_id") == 0
        assert keys.index("event_type") == 1
        assert keys[-1] == "allowed_actions"

    def test_payload_round_trippable(self):
        event = make_event(density=2, pickup=(0.8, -1.2),
                           summary=(((1.0, 2.0), 0.75),))
        doc = json.loads(json.dumps(event.payload()))
        assert doc["last_pickup_location"] == {"x": 0.8, "y": -1.2}
        assert doc["pheromone_summary"] == [{"x": 1.0, "y": 2.0, "strength": 0.75}]

    def test_constructible_from_single_robot_view(self):
        # every field comes from one robot's memory plus the pheromone manager
        from swarmforage.core import Arena
        from swarmforage.engine import TrialConfig, World
        from swarmforage.layouts import Distribution, LayoutSpec
        from swarmforage.cpfa import _build_event

        arena = Arena.square(6.0)
        layout = LayoutSpec(Distribution.CLUSTERED, 64, arena, seed=1)
        world = World(TrialConfig(arena=arena, team_size=2, layout=layout,
                                  params=DEFAULT_PARAMS, duration=0.0, seed=1))
        robot = world.robots[0]
        event = _build_event(robot, world, EventType.CENTRAL_ZONE_ARRIVAL)
        assert event.robot_id == robot.robot_id
        assert event.pheromone_summary == ()


class TestFallbackEquivalence:
    def test_all_fallback_matches_vanilla_within_3_sigma(self):
        # a policy that always fails reduces every decision to the cascade;
        # deposit means agree within 3 sigma over 30 paired layouts
        import numpy as np

        from swarmforage.core import Arena, derive_seed
        from swarmforage.engine import TrialConfig, run_trial
        from swarmforage.gateway import GatewayConfig
        from swarmforage.layouts import Distribution, LayoutSpec

        arena = Arena.square(6.0)
        gateway = GatewayConfig(mode="mock", mock_behavior="always_invalid")

        def deposits(policy, seed, gw=None):
            layout = LayoutSpec(Distribution.CLUSTERED, 64, arena, seed=seed)
            config = TrialConfig(arena=arena, team_size=4, layout=layout,
                                 params=DEFAULT_PARAMS, policy=policy, duration=300.0,
                                 seed=derive_seed(seed, "b"), gateway=gw)
            return run_trial(config).deposits

        vanilla = np.asarray([deposits("cascade", s) for s in range(30)], dtype=float)
        fallback = np.asarray([deposits("llm", s, gateway) for s in range(30)], dtype=float)
        diff = abs(fallback.mean() - vanilla.mean())
        sigma = np.sqrt(vanilla.var(ddof=1) / 30 + fallback.var(ddof=1) / 30)
        assert diff <= 3 * sigma, (vanilla.mean(), fallback.mean(), sigma)

    def test_fallback_counter_matches_log_entries(self):
        from swarmforage.core import Arena
        from swarmforage.engine import TrialConfig, run_trial
        from swarmforage.gateway import GatewayConfig
        from swarmforage.layouts import Distribution, LayoutSpec

        arena = Arena.square(6.0)
        layout = LayoutSpec(Distribution.CLUSTERED, 64, arena, seed=2)
        config = TrialConfig(arena=arena, team_size=4, layout=layout, params=DEFAULT_PARAMS,
                             policy="llm", duration=120.0, seed=2,
                             gateway=GatewayConfig(mode="mock", mock_behavior="always_invalid"))
        result = run_trial(config)
        logged = [e for e in result.event_log
                  if e["kind"] == "DECISION" and e["payload"].get("fallback_reason")]
        assert result.llm_fallbacks == len(logged) > 0
