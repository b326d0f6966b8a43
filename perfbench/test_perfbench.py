"""Fast tests of the benchmark itself: every workload at toy size, the
traced run's metric names, and each correctness check against a
deliberately corrupted output."""
import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()

import checks  # noqa: E402
import workloads  # noqa: E402
from swarmforage import engine, gateway, layouts  # noqa: E402
from swarmforage.core import DEFAULT_PARAMS, Arena  # noqa: E402
from swarmforage.layouts import Distribution, LayoutSpec  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_round(name, tmp_path, seed=3):
    workload = workloads.make(name, seed, str(tmp_path), toy=True)
    try:
        inputs = workload.prepare(0)
        output = workload.execute(inputs)
        outcome = workload.check(0, inputs, output)
        return outcome, output, workload.final_check()
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_runs_and_passes_its_checks(name, tmp_path):
    outcome, _, final = toy_round(name, tmp_path)
    assert outcome.problems == [] and final == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    assert len(outcome.digest) == 64


def test_toy_round_is_repeatable(tmp_path):
    first, _, _ = toy_round("grid", tmp_path / "a")
    second, _, _ = toy_round("grid", tmp_path / "b")
    assert first.digest == second.digest


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = workloads.make("ga", 5, str(tmp_path), toy=True)
    try:
        _, outcomes, traced, layer = run.measure_traced(
            workload, workload.prepare(0), 0.0, str(tmp_path))
    finally:
        workload.close()
    assert all(o.problems == [] for o in outcomes + traced)
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert names == set(layer) | set(run.OUTCOME_UNITS)
    # trials ran in the pool workers and their figures came back
    assert layer["cpfa.fsm_step.calls"] > 0 and layer["tuner.evaluate.calls"] == 5


def test_benchmark_file_names_the_end_to_end_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_command_without_the_program_source_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "layouts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the checks reject corrupted outputs ------------------------------------

@pytest.fixture(scope="module")
def trial():
    arena = Arena.square(6.0)
    config = engine.TrialConfig(
        arena=arena, team_size=3, layout=LayoutSpec(Distribution.CLUSTERED, 64, arena, seed=7),
        params=DEFAULT_PARAMS, policy="scripted", duration=300.0, seed=7)
    result = engine.run_trial(config)
    assert result.deposits >= 2
    return result


def log_problems(result, events):
    return checks.check_trial_log(events, deposits=result.deposits, team=3, half_width=3.0,
                                  keep_out=workloads.keep_out_radius(6.0))


def first_index(events, kind):
    return next(i for i, e in enumerate(events) if e["kind"] == kind)


def test_trial_log_check_accepts_a_real_log(trial):
    assert log_problems(trial, trial.event_log) == []


def test_trial_log_check_rejects_a_duplicated_deposit(trial):
    events = copy.deepcopy(trial.event_log)
    i = first_index(events, "DEPOSIT")
    events.insert(i + 1, copy.deepcopy(events[i]))
    assert log_problems(trial, events)


def test_trial_log_check_rejects_a_state_chain_break(trial):
    events = copy.deepcopy(trial.event_log)
    events[first_index(events, "STATE")]["payload"]["from"] = "AT_CENTER"
    assert log_problems(trial, events)


def test_trial_log_check_rejects_an_action_outside_the_whitelist(trial):
    events = copy.deepcopy(trial.event_log)
    events[first_index(events, "DECISION")]["payload"]["action"] = "CONTINUE_SEARCH"
    assert any("not allowed" in p for p in log_problems(trial, events))


def test_trial_log_check_rejects_time_going_back(trial):
    events = copy.deepcopy(trial.event_log)
    events[-1]["t"] = 0.0
    assert log_problems(trial, events)


@pytest.fixture(scope="module")
def llm_trial():
    arena = Arena.square(6.0)
    config = engine.TrialConfig(
        arena=arena, team_size=3, layout=LayoutSpec(Distribution.RANDOM, 4, arena, seed=11),
        params=DEFAULT_PARAMS, policy="llm", duration=200.0, seed=11,
        gateway=gateway.GatewayConfig(mode="mock", mock_behavior="scripted"))
    events = engine.run_trial(config).event_log
    assert any(e["kind"] == "DECISION" and e["payload"]["event_type"] == "SEARCH_STARVATION"
               for e in events)
    return events


def starvation_problems(events):
    return checks.check_starvation_timing(events, dt=0.1, last_step_t=199.9)


def test_llm_checks_accept_a_real_log(llm_trial):
    assert checks.check_scripted_decisions(llm_trial) == []
    assert starvation_problems(llm_trial) == []


def test_scripted_rule_check_rejects_a_changed_action(llm_trial):
    events = copy.deepcopy(llm_trial)
    payload = events[first_index(events, "DECISION")]["payload"]
    payload["action"] = next(a for a in checks.WHITELIST[payload["event_type"]]
                             if a != payload["action"])
    assert checks.check_scripted_decisions(events)


def test_starvation_check_rejects_a_late_or_missing_decision(llm_trial):
    starving = [i for i, e in enumerate(llm_trial)
                if e["kind"] == "DECISION" and e["payload"]["event_type"] == "SEARCH_STARVATION"]
    late = copy.deepcopy(llm_trial)
    late[starving[0]]["t"] += 5.0
    assert starvation_problems(late)
    missing = [e for i, e in enumerate(llm_trial) if i != starving[-1]]
    assert starvation_problems(missing)


def layout(dist, count=64, side=6.0):
    spec = LayoutSpec(dist, count, Arena.square(side), seed=4)
    return spec, layouts.generate(spec).positions.copy()


def layout_problems(spec, positions):
    return checks.check_layout(
        positions, distribution=spec.distribution.value, count=spec.resource_count,
        half_width=spec.arena.half_width, keep_out=workloads.keep_out_radius(6.0),
        min_spacing=spec.min_spacing)


@pytest.mark.parametrize("dist", list(Distribution))
def test_layout_check_accepts_real_layouts(dist):
    assert layout_problems(*layout(dist)) == []


def test_layout_check_rejects_a_point_inside_the_keep_out_disc():
    spec, positions = layout(Distribution.RANDOM)
    positions[5] = (0.2, -0.1)
    assert any("keep-out" in p for p in layout_problems(spec, positions))


def test_layout_check_rejects_broken_structure():
    spec, positions = layout(Distribution.RANDOM)
    positions[1] = positions[0] + 0.01
    assert layout_problems(spec, positions)
    spec, positions = layout(Distribution.CLUSTERED)
    grid = [(x, y) for x in np.arange(-2.8, 2.9, 0.1) for y in np.arange(-2.8, 2.9, 0.1)]
    positions[0] = next(p for p in grid if np.hypot(*p) > 1.0
                        and np.hypot(*(positions - p).T).min() > 0.5)  # a fifth group
    assert any("groups" in p for p in layout_problems(spec, positions))
    spec, positions = layout(Distribution.POWERLAW)
    positions[-1] = positions[0] + 0.1  # a single joins the big pile
    assert layout_problems(spec, positions)


def test_single_linkage_counts_groups():
    points = np.array([[0, 0], [0.2, 0], [0.4, 0], [2, 2], [2.1, 2], [5, 5]], dtype=float)
    assert checks.single_linkage_sizes(points, 0.3) == [3, 2, 1]
    assert checks.powerlaw_sizes(64) == [16] + [8] * 4 + [1] * 16
