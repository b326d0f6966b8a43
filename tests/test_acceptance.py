"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in the captured output of failures).  Criteria 1-12 are self-contained
and offline; criterion 13 needs a real endpoint and is skipped unless
SWARMFORAGE_LIVE_BASE_URL is set.
"""
import json
import math
import os
import socket
import time
from contextlib import contextmanager

import numpy as np
import pytest

from swarmforage.core import Arena, DEFAULT_PARAMS, CpfaParams, derive_seed, poisson_cdf
from swarmforage.engine import TrialConfig, World, run_trial
from swarmforage.gateway import GatewayConfig
from swarmforage.harness import ARENA_RESOURCES, GridSpec, expand_grid, run_grid
from swarmforage.kinematics import MotionLimits
from swarmforage.layouts import (
    CLUSTER_PITCH,
    Distribution,
    LayoutSpec,
    generate,
    powerlaw_schedule,
)
from swarmforage.cpfa import fallback_decide
from swarmforage.policy import DecisionEvent, EventType, TacticalAction, build_whitelist
from swarmforage.tuner import GaConfig, ga_cost, ga_run

from conftest import single_linkage_labels


@contextmanager
def criterion(number, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"\n[criterion {number:02d}] PASS - {description} "
          f"({time.monotonic() - start:.1f}s)")


def trial_config(dist, count, side, team, policy, duration, seed,
                 layout_seed=None, params=DEFAULT_PARAMS, gateway=None):
    arena = Arena.square(side)
    layout = LayoutSpec(Distribution(dist), count, arena,
                        seed=layout_seed if layout_seed is not None else seed)
    return TrialConfig(arena=arena, team_size=team, layout=layout, params=params,
                       policy=policy, duration=duration, seed=seed, gateway=gateway)


def test_criterion_01_poisson_oracle():
    with criterion(1, "poisson CDF matches brute-force series within 1e-12"):
        for lam in (0.01, 0.5, 1.0, 5.0, 20.0):
            for c in range(0, 51):
                oracle = math.exp(-lam) * sum(
                    lam**i / math.factorial(i) for i in range(c + 1)
                )
                assert abs(poisson_cdf(c, lam) - oracle) < 1e-12


def test_criterion_02_ga_cost_exactness():
    with criterion(2, "tuning cost formula reproduces 36,000 min = 600 hrs"):
        minutes = ga_cost(12, 10, 10, 30)
        assert minutes == 36_000
        assert minutes / 60.0 == 600.0


def test_criterion_03_grid_shape():
    with criterion(3, "full grid expands to 36 cells and 360 trials per policy"):
        jobs = expand_grid(GridSpec())
        assert len({j.cell for j in jobs}) == 36
        for policy in ("cascade", "scripted"):
            assert sum(1 for j in jobs if j.policy == policy) == 360


def test_criterion_04_conservation_suite():
    with criterion(4, "deposits + carried + unpicked == initial, every step, 50 trials"):
        rng = np.random.default_rng(404)
        teams = (2, 4, 6)
        dists = ("clustered", "powerlaw", "random")
        policies = ("cascade", "scripted", "uninformed")
        for i in range(50):
            side = float(rng.choice((6.0, 8.0)))
            config = trial_config(
                dist=dists[i % 3],
                count=ARENA_RESOURCES[side],
                side=side,
                team=int(teams[i % len(teams)]),
                policy=policies[i % len(policies)],
                duration=300.0,
                seed=int(rng.integers(1 << 30)),
            )
            world = World(config)
            initial = len(world.resources)
            for _ in range(int(300.0 / world.limits.dt)):
                world.step()
                total = world.deposits + world.carrying_count() + world.resources.remaining()
                assert total == initial, f"conservation broken in trial {i}"


def test_criterion_05_determinism():
    with criterion(5, "cascade/scripted trials replay byte-identically, 20 seeded cases"):
        for i in range(20):
            config = trial_config(
                dist=("clustered", "powerlaw", "random")[i % 3],
                count=64,
                side=6.0,
                team=2 + (i % 3) * 2,
                policy="cascade" if i % 2 == 0 else "scripted",
                duration=120.0,
                seed=1000 + i,
            )
            first = run_trial(config)
            second = run_trial(config)
            assert first.log_bytes() == second.log_bytes(), f"case {i} diverged"
            assert first.deposits == second.deposits


def test_criterion_06_fallback_semantics():
    with criterion(6, "invalid/timeout endpoints: fallback count == call count, no stalls"):
        for behavior in ("always_invalid", "always_timeout"):
            gateway = GatewayConfig(mode="mock", mock_behavior=behavior)
            config = trial_config("clustered", 64, 6.0, team=4, policy="llm",
                                  duration=60.0, seed=3, gateway=gateway)
            result = run_trial(config)
            assert result.llm_calls >= 1, f"{behavior}: no decisions fired in 60s"
            assert result.llm_fallbacks == result.llm_calls
            decisions = [e for e in result.event_log if e["kind"] == "DECISION"]
            assert decisions
            assert all(e["payload"]["source"] in ("fallback", "degraded") for e in decisions)
            expected_reason = "out_of_whitelist" if behavior == "always_invalid" else "timeout"
            assert set(result.outcome_counts) == {expected_reason}


def test_criterion_07_starvation_timing():
    with criterion(7, "starvation decisions at 60s of search, then every 30s"):
        gateway = GatewayConfig(mode="mock", mock_behavior="scripted")
        config = trial_config("random", 0, 6.0, team=3, policy="llm",
                              duration=220.0, seed=17, gateway=gateway)
        result = run_trial(config)
        dt = MotionLimits().dt
        search_start = {}
        last_fire = {}
        firsts, gaps = [], []
        for event in result.event_log:
            robot = event["robot"]
            if event["kind"] == "STATE":
                to_state = event["payload"]["to"]
                from_state = event["payload"]["from"]
                if to_state.startswith("SEARCHING") and not from_state.startswith("SEARCHING"):
                    search_start[robot] = event["t"]
                    last_fire.pop(robot, None)
            elif (event["kind"] == "DECISION"
                  and event["payload"]["event_type"] == "SEARCH_STARVATION"):
                if robot in last_fire:
                    gaps.append(event["t"] - last_fire[robot])
                else:
                    firsts.append(event["t"] - search_start[robot])
                last_fire[robot] = event["t"]
        assert len(firsts) >= 3, "expected every robot to starve at least once"
        assert all(abs(delta - 60.0) <= dt + 1e-9 for delta in firsts), firsts
        assert gaps, "expected re-fires"
        assert all(abs(gap - 30.0) <= dt + 1e-9 for gap in gaps), gaps


def test_criterion_08_cascade_statistics():
    with criterion(8, "post-deposit branch frequencies match the Poisson CDF (3 sigma)"):
        rng = np.random.default_rng(808)
        n = 100_000
        for c, lam in ((10, 20.0), (2, 1.0), (0, 1.0), (5, 5.0), (3, 8.0)):
            params = CpfaParams(**{**DEFAULT_PARAMS.as_dict(), "lambda_f": lam})
            event = DecisionEvent(
                robot_id="r0", event_type=EventType.POST_DEPOSIT_DECISION,
                current_state="RETURNING_WITH_RESOURCE", sim_time_sec=90.0, position=(0.2, 0.1),
                resource_density=c, time_since_last_pickup=80.0, last_pickup_location=(1.0, 1.0),
                active_pheromone_count=0,
                allowed_actions=tuple(build_whitelist(EventType.POST_DEPOSIT_DECISION)),
            )
            hits = sum(
                fallback_decide(event, params, rng) is TacticalAction.USE_SITE_FIDELITY
                for _ in range(n)
            )
            p = poisson_cdf(c, lam)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / n) + 1e-9
            assert abs(hits / n - p) <= bound, (c, lam, hits / n, p)


def test_criterion_09_layout_validity():
    with criterion(9, "all layouts valid for 9 arena/count pairs x 3 dists x 100 seeds"):
        radius = 2 * CLUSTER_PITCH
        for side in (6.0, 8.0, 10.0):
            arena = Arena.square(side)
            for count in (64, 128, 256):
                for dist in Distribution:
                    for seed in range(100):
                        spec = LayoutSpec(dist, count, arena, seed=seed)
                        field = generate(spec)
                        pos = field.positions
                        assert len(field) == count
                        assert np.all(np.abs(pos[:, 0]) <= arena.half_width)
                        assert np.all(np.abs(pos[:, 1]) <= arena.half_width)
                        assert np.all(np.hypot(pos[:, 0], pos[:, 1]) > spec.keep_out)
                        if seed < 25:  # geometric structure checks on a quarter
                            if dist is Distribution.CLUSTERED:
                                labels = single_linkage_labels(pos, radius)
                                assert labels.max() + 1 == 4
                            elif dist is Distribution.POWERLAW:
                                labels = single_linkage_labels(pos, radius)
                                sizes = sorted(np.bincount(labels).tolist(), reverse=True)
                                expected = sorted(
                                    [s for n_c, s in powerlaw_schedule(count) for _ in range(n_c)],
                                    reverse=True,
                                )
                                assert sizes == expected


def test_criterion_10_structure_sensitivity(no_external_network):
    with criterion(10, "structured layouts reward the informed policy more (bootstrap >= 80%)"):
        team, side, duration, n_seeds = 4, 6.0, 600.0, 20
        deposits = {}
        for dist in ("clustered", "random"):
            for policy in ("scripted", "uninformed"):
                per_seed = []
                for trial in range(n_seeds):
                    layout_seed = derive_seed(1010, dist, trial)
                    config = trial_config(dist, 64, side, team, policy, duration,
                                          seed=derive_seed(layout_seed, policy),
                                          layout_seed=layout_seed)
                    per_seed.append(run_trial(config).deposits)
                deposits[(dist, policy)] = np.asarray(per_seed, dtype=float)

        def margin(scripted, uninformed):
            mean_u = uninformed.mean()
            if mean_u == 0:
                return np.inf if scripted.mean() > 0 else 0.0
            return (scripted.mean() - mean_u) / mean_u

        point_clustered = margin(deposits[("clustered", "scripted")],
                                 deposits[("clustered", "uninformed")])
        point_random = margin(deposits[("random", "scripted")],
                              deposits[("random", "uninformed")])
        print(f"\n  clustered margin {point_clustered:+.2f}, random margin {point_random:+.2f}")
        assert point_clustered > point_random

        rng = np.random.default_rng(99)
        wins = 0
        n_boot = 2000
        for _ in range(n_boot):
            idx_c = rng.integers(0, n_seeds, size=n_seeds)
            idx_r = rng.integers(0, n_seeds, size=n_seeds)
            m_c = margin(deposits[("clustered", "scripted")][idx_c],
                         deposits[("clustered", "uninformed")][idx_c])
            m_r = margin(deposits[("random", "scripted")][idx_r],
                         deposits[("random", "uninformed")][idx_r])
            wins += m_c > m_r
        frac = wins / n_boot
        print(f"  bootstrap ordering holds in {100 * frac:.1f}% of resamples")
        assert frac >= 0.80


def test_criterion_11_ga_improvement():
    with criterion(11, "desk-scale GA beats the initial median in >= 4/5 runs, monotone in all"):
        improved = 0
        for seed in range(5):
            config = GaConfig(
                population=6, generations=5, trials_per_genome=2,
                eval_duration=120.0, team_size=4, arena_side=6.0,
                resource_count=64, distribution=Distribution.POWERLAW,
                master_seed=1100 + seed,
            )
            best, history = ga_run(config)

            # recompute the initial population's fitnesses from the history:
            # generation 0 statistics cover exactly the initial population
            curve = [h.best_so_far for h in history]
            assert all(b >= a for a, b in zip(curve, curve[1:])), "best-so-far dipped"

            initial_median = _initial_population_median(config)
            if history[-1].best_so_far >= initial_median:
                improved += 1
        print(f"\n  improved over the initial median in {improved}/5 runs")
        assert improved >= 4


def _initial_population_median(config: GaConfig) -> float:
    # re-derive the initial population and its fitnesses exactly as ga_run does
    from swarmforage.tuner import _trial_seeds, evaluate, sample_genome

    rng = np.random.default_rng(derive_seed(config.master_seed, "ga"))
    population = [sample_genome(rng) for _ in range(config.population)]
    fitnesses = [
        evaluate(genome, config, seeds=_trial_seeds(config, index))
        for index, genome in enumerate(population)
    ]
    return float(np.median(fitnesses))


def test_criterion_12_offline_closure(tmp_path, monkeypatch):
    with criterion(12, "mock-mode grid performs zero network operations"):
        real_connect = socket.socket.connect
        attempts = []

        def guard(self, address, *args, **kwargs):
            attempts.append(address)
            raise AssertionError(f"network operation attempted: {address}")

        monkeypatch.setattr(socket.socket, "connect", guard)
        spec = GridSpec(
            team_sizes=(4,), arena_sides=(6.0,),
            distributions=("clustered", "random"),
            trials_per_cell=2, duration=60.0,
            policies=("cascade", "llm"), master_seed=12,
            gateway=GatewayConfig(mode="mock", mock_behavior="scripted"),
        )
        rows = run_grid(spec, str(tmp_path), parallelism=1)
        monkeypatch.setattr(socket.socket, "connect", real_connect)
        assert attempts == []
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        llm_rows = [r for r in rows if r["policy"] == "llm"]
        assert all(r["llm_calls"] > 0 for r in llm_rows)


LIVE_URL = os.environ.get("SWARMFORAGE_LIVE_BASE_URL")


@pytest.mark.skipif(not LIVE_URL, reason="SWARMFORAGE_LIVE_BASE_URL not set")
def test_criterion_13_live_smoke():
    with criterion(13, "live endpoint smoke: fallback rate < 10%"):
        gateway = GatewayConfig(
            base_url=LIVE_URL,
            model_name=os.environ.get("SWARMFORAGE_LIVE_MODEL", "gpt-5-mini"),
            api_key_env=os.environ.get("SWARMFORAGE_LIVE_KEY_ENV", "OPENAI_API_KEY"),
            mode="live",
        )
        config = trial_config("clustered", 64, 6.0, team=4, policy="llm",
                              duration=120.0, seed=13, gateway=gateway)
        result = run_trial(config)
        assert result.llm_calls >= 1
        rate = result.llm_fallbacks / result.llm_calls
        mean_latency = (sum(result.latency_samples) / len(result.latency_samples)
                        if result.latency_samples else float("nan"))
        print(f"\n  live: {result.llm_calls} calls, fallback rate {100 * rate:.1f}%, "
              f"mean latency {mean_latency:.2f}s")
        assert rate < 0.10
