"""swarmforage benchmark command.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0

Runs one workload (grid, ga, llm-sparse, layouts) from the checkout's
``src/`` for about ``--seconds`` of timed rounds, checks every round's
outputs outside the timed region, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` each round runs
once untraced and once under the layer tracer, and the metrics are the
per-layer ones.  Times are scaled to a reference machine speed measured
with a calibration loop around every round.  See README.md in this
directory.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid", "ga", "llm-sparse", "layouts")
# set-ups measured per run: this process plus fresh interpreters
SETUP_SAMPLES = 5
# On a shared virtual machine the CPU speed drifts: for tens of
# milliseconds at a time, and in phases of seconds, a thread can run at
# half speed.  A fixed loop slows down with it, so every timed span is
# scaled by the loop's reference time over its time measured around the
# span: the result is the span's length on a machine where the loop
# takes REFERENCE_CALIBRATION_S.
CALIBRATION_ITERATIONS = 20_000
REFERENCE_CALIBRATION_S = 0.005


def calibration_s() -> float:
    """Time of a fixed piece of interpreter work: the machine's speed now."""
    start = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        total += math.atan2(math.hypot(i, i + 1.0), i + 1.0)
        table[i & 255] = total
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * 2.0 * REFERENCE_CALIBRATION_S / (cal_before + cal_after)


class Rounds:
    """Wall times of timed rounds, as measured and scaled."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.calibrations = [calibration_s()]

    def run(self, workload, inputs):
        start = time.perf_counter()
        output = workload.execute(inputs)
        wall = time.perf_counter() - start
        self.calibrations.append(calibration_s())
        self.raw.append(wall)
        self.scaled.append(scaled(wall, *self.calibrations[-2:]))
        return output


def use_checkout_source() -> None:
    """Import swarmforage from this checkout's src/, or stop."""
    package = SRC / "swarmforage" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"benchmark: no swarmforage source at {package}")
    sys.path.insert(0, str(SRC))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    return parser.parse_args(argv)


def set_up(args, work_dir: str):
    """Import the program, build the workload and its first inputs.
    Returns them with the set-up time, as measured and scaled."""
    cal_before = calibration_s()
    start = time.perf_counter()
    use_checkout_source()
    import workloads

    module = Path(sys.modules["swarmforage"].__file__).resolve()
    if SRC not in module.parents:
        raise SystemExit(f"benchmark: swarmforage imported from {module}, not {SRC}")
    workload = workloads.make(args.workload, args.seed, work_dir)
    inputs = workload.prepare(0)
    raw = time.perf_counter() - start
    return workload, inputs, (raw, scaled(raw, cal_before, calibration_s()))


def fresh_setup_seconds(args) -> tuple[float, float]:
    """One set-up timed in a fresh interpreter, as measured and scaled."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def should_stop(round_walls: list[float], seconds: float) -> bool:
    """Stop before a round that would end past ``seconds``."""
    return sum(round_walls) + statistics.median(round_walls) > seconds


def measure(workload, inputs, seconds: float):
    """Timed rounds on fresh inputs until the time is spent."""
    rounds, outcomes = Rounds(), []
    r = 0
    while True:
        output = rounds.run(workload, inputs)
        outcomes.append(workload.check(r, inputs, output))
        del output
        if should_stop(rounds.raw, seconds):
            return rounds, outcomes
        r += 1
        inputs = workload.prepare(r)


def measure_traced(workload, inputs, seconds: float, work_dir: str):
    """Round 0's inputs, again and again, untraced then traced."""
    import layertrace

    tracer = layertrace.Tracer(work_dir)
    plain, traced, outcomes, traced_outcomes = Rounds(), Rounds(), [], []
    while True:
        output = plain.run(workload, inputs)
        outcomes.append(workload.check(0, inputs, output))
        del output
        inputs = workload.prepare(0)
        with tracer:
            output = traced.run(workload, inputs)
        outcome = workload.check(0, inputs, output)
        del output
        if workload.pool_workers > 1 and tracer.gather_workers() == 0:
            outcome.problems.append("traced run: no figures came back from the pool workers")
        if outcome.digest != outcomes[-1].digest:
            outcome.problems.append("traced run: outputs differ from the untraced run")
        traced_outcomes.append(outcome)
        if should_stop([p + t for p, t in zip(plain.raw, traced.raw)], seconds):
            break
        inputs = workload.prepare(0)
    layer = tracer.metrics(rounds=len(traced.raw),
                           time_scale=sum(traced.scaled) / sum(traced.raw))
    samples = len(tracer.call_ms)
    tail = layertrace.tail_percentile(samples)
    print(f"gateway.call samples {samples}, ms_tail percentile "
          f"{'none (under 40 samples)' if tail is None else f'p{tail:g}'}")
    layer["trace.overhead_s"] = statistics.median(traced.scaled) - statistics.median(plain.scaled)
    return plain, outcomes, traced_outcomes, layer


OUTCOME_UNITS = {
    "robot_steps_per_s": "robot-steps/s",
    "trials_per_s": "trials/s",
    "decisions_per_s": "decisions/s",
    "deposits_per_trial": "resources",
    "ga_best_fitness": "resources",
    "layouts_per_s": "layouts/s",
}


def outcome_figures(name: str, walls: list[float], outcomes) -> dict[str, float]:
    """The workload's own results, on the workloads that produce them."""
    wall = sum(walls)
    trials = sum(o.trials for o in outcomes)
    figures = {}
    if name in ("grid", "ga", "llm-sparse"):
        figures["robot_steps_per_s"] = sum(o.robot_steps for o in outcomes) / wall
        figures["trials_per_s"] = trials / wall
    if name in ("grid", "llm-sparse"):
        figures["decisions_per_s"] = sum(o.decisions for o in outcomes) / wall
        figures["deposits_per_trial"] = sum(o.deposits for o in outcomes) / trials
    if name == "ga":
        figures["ga_best_fitness"] = statistics.mean(o.best_fitness for o in outcomes)
    if name == "layouts":
        figures["layouts_per_s"] = sum(o.layouts for o in outcomes) / wall
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    work_dir = str(HERE / ".work" / f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = None
    try:
        workload, inputs, setup = set_up(args, work_dir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups = [setup] + [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        traced_outcomes = []
        if args.trace:
            rounds, outcomes, traced_outcomes, layer = measure_traced(
                workload, inputs, args.seconds, work_dir)
        else:
            rounds, outcomes = measure(workload, inputs, args.seconds)
        peak = peak_rss_mb()
        problems = [p for o in outcomes + traced_outcomes for p in o.problems]
        problems += workload.final_check()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(HERE / ".work")

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    figures = outcome_figures(args.workload, rounds.scaled, outcomes)
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds.raw)} "
          f"attempted {attempted} failed {failed}")
    print(f"digest {args.workload} round0 {outcomes[0].digest}")
    print(f"measured: set-up {statistics.median(raw for raw, _ in setups):.6g} s, "
          f"round {statistics.median(rounds.raw):.6g} s, calibration loop "
          f"{1000 * statistics.median(rounds.calibrations):.4g} ms")
    for name, value in figures.items():
        print(f"result {name} {value:.6g} {OUTCOME_UNITS[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: (layer[name], unit) for name, unit in layer_units().items()}
        for name, unit in OUTCOME_UNITS.items():
            metrics[name] = (figures.get(name, 0.0), unit)
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_s": (statistics.median(rounds.scaled), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_units() -> dict[str, str]:
    import layertrace

    return {**layertrace.metric_units(), "trace.overhead_s": "s"}


if __name__ == "__main__":
    sys.exit(main())
