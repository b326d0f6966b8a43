"""Per-layer timing from outside the program.

``Tracer.install`` replaces each traced function at the module or class
attribute its callers look it up from (``cpfa.move_toward``,
``engine.apply_yield``, ``engine.World.step``, ...) with a wrapper that
counts calls and accumulates self time.  Self time is a
span's duration minus the time of the traced spans it encloses.  Hot
per-step functions are kept as running sums, never as one record per
call, and nothing is written out until the traced run ends.

GA evaluations run in forked pool workers, which inherit the wrappers.
Each worker writes its own sums to a file after every trial, and
``gather_workers`` adds them to the parent's once the pool has shut
down, so worker self times are summed over processes.
"""
from __future__ import annotations

import functools
import glob
import json
import math
import os
import threading
import time
from collections import Counter

from swarmforage import core, cpfa, engine, gateway, harness, layouts, policy, tuner

FSM_STATES = tuple(state.value for state in cpfa.FsmState)

# Timed spans: (metric prefix, whether its call count is reported).
SPANS = {
    "layouts.generate": True,
    "layouts.gen_random": False,
    "layouts.gen_clustered": False,
    "layouts.gen_powerlaw": False,
    "engine.apply_yield": True,
    "engine.translation_allowed": True,
    "engine.move_toward": True,
    "engine.step": True,
    "engine.world_init": False,
    "engine.try_pickup": True,
    "engine.pheromones": False,
    "engine.log_bytes": True,
    "cpfa.fsm_step": True,
    "policy.decide": True,
    "gateway.build_prompt": False,
    "gateway.parse_response": False,
    "gateway.call": True,
    "harness.expand_grid": False,
    "harness.run_grid": False,
    "tuner.ga_run": False,
    "tuner.evaluate": True,
}
# Plain counters, reported as they are.
COUNTS = (
    "engine.translation_allowed.rejected",
    "engine.try_pickup.hits",
    "engine.pheromones.waypoint_checks",
    "engine.log_bytes.bytes",
    "cpfa.fsm_step.gated",
    "policy.decide.fallbacks",
    "gateway.call.errors",
    "core.pheromone_strength.calls",
    "core.poisson_cdf.calls",
) + tuple(f"cpfa.steps.{state}" for state in FSM_STATES)

# Percentiles tried for the tail, highest first; the tail is the highest
# one with at least TAIL_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.99, 99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def tail_percentile(n: int) -> float | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, or None
    when there are too few samples for a tail."""
    if n < MIN_TAIL_SAMPLES:
        return None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name, with_calls in SPANS.items():
        if with_calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["gateway.call.ms_p50"] = "ms"
    units["gateway.call.ms_tail"] = "ms"
    return units


class _Stack(threading.local):
    def __init__(self):
        self.frames = [0.0]


class Tracer:
    """Wraps the program's layer functions and sums what they do."""

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.owner_pid = os.getpid()
        self._worker_pid = None
        self._stack = _Stack()
        self._patches: list[tuple] = []
        self.spans = {name: [0, 0.0] for name in SPANS}  # calls, self time
        self.counts: Counter = Counter()
        self.call_ms: list[float] = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        stat = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frames = stack.frames
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = frames.pop()
                frames[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed - child
            if after is not None:
                after(result, elapsed)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _worker_hook(self, fn):
        """Around the pool's task function: in a worker, start from zero
        and write the worker's sums out after every task."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid == tracer.owner_pid:
                return fn(*args, **kwargs)
            if tracer._worker_pid != pid:
                tracer._zero()
                tracer._worker_pid = pid
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._dump(os.path.join(tracer.work_dir, f"trace-worker-{pid}.json"))

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        timed, patch = self._timed, self._patch

        generate = timed("layouts.generate", layouts.generate)
        patch(layouts, "generate", generate)
        patch(engine, "generate", generate)  # World.__init__ looks it up here
        for kind in ("random", "clustered", "powerlaw"):
            attr = f"gen_{kind}"
            patch(layouts, attr, timed(f"layouts.{attr}", getattr(layouts, attr)))

        patch(engine, "apply_yield", timed("engine.apply_yield", engine.apply_yield))
        patch(cpfa, "move_toward", timed("engine.move_toward", cpfa.move_toward))

        def rejected(result, _elapsed):
            if not result:
                counts["engine.translation_allowed.rejected"] += 1

        world = engine.World
        patch(world, "translation_allowed",
              timed("engine.translation_allowed", world.translation_allowed, after=rejected))
        patch(world, "step", timed("engine.step", world.step))
        patch(world, "__init__", timed("engine.world_init", world.__init__))

        def hit(result, _elapsed):
            if result is not None:
                counts["engine.try_pickup.hits"] += 1

        patch(world, "try_pickup", timed("engine.try_pickup", world.try_pickup, after=hit))

        def checks(args):
            counts["engine.pheromones.waypoint_checks"] += len(args[0].waypoints)

        manager = engine.PheromoneManager
        for attr in ("add", "prune", "count", "active", "summary", "select"):
            scans = attr in ("prune", "count", "active")
            patch(manager, attr, timed("engine.pheromones", getattr(manager, attr),
                                       before=checks if scans else None))

        def log_size(result, _elapsed):
            counts["engine.log_bytes.bytes"] += len(result)

        patch(engine.TrialResult, "log_bytes",
              timed("engine.log_bytes", engine.TrialResult.log_bytes, after=log_size))

        def fsm_entry(args):
            counts["cpfa.steps." + args[0].state.value] += 1
            if len(args) > 3 and args[3]:
                counts["cpfa.fsm_step.gated"] += 1

        patch(cpfa, "fsm_step", timed("cpfa.fsm_step", cpfa.fsm_step, before=fsm_entry))

        def fallback(result, _elapsed):
            if result.source == "fallback":
                counts["policy.decide.fallbacks"] += 1

        for cls in _subclasses(policy.DecisionPolicy):
            if "decide" in cls.__dict__:
                patch(cls, "decide", timed("policy.decide", cls.__dict__["decide"], after=fallback))

        for attr in ("build_prompt", "parse_response"):
            patch(gateway, attr, timed(f"gateway.{attr}", getattr(gateway, attr)))

        def call_done(result, elapsed):
            self.call_ms.append(1000.0 * elapsed)
            if result.error is not None:
                counts["gateway.call.errors"] += 1

        patch(gateway.LlmClient, "call",
              timed("gateway.call", gateway.LlmClient.call, after=call_done))

        patch(harness, "expand_grid", timed("harness.expand_grid", harness.expand_grid))
        patch(harness, "run_grid", timed("harness.run_grid", harness.run_grid))
        patch(tuner, "ga_run", timed("tuner.ga_run", tuner.ga_run))
        patch(tuner, "evaluate", timed("tuner.evaluate", tuner.evaluate))
        patch(tuner, "_run_one", self._worker_hook(tuner._run_one))

        strength = self._counted("core.pheromone_strength.calls", core.pheromone_strength)
        patch(core, "pheromone_strength", strength)  # prune_pheromones
        patch(engine, "pheromone_strength", strength)  # PheromoneManager.count/active
        patch(cpfa, "poisson_cdf", self._counted("core.poisson_cdf.calls", cpfa.poisson_cdf))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- sums -------------------------------------------------------------

    def _zero(self) -> None:
        for stat in self.spans.values():
            stat[:] = [0, 0.0]
        self.counts.clear()
        self.call_ms.clear()
        self._stack.frames[:] = [0.0]

    def _dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "call_ms": self.call_ms}, fh)
        os.replace(tmp, path)

    def gather_workers(self) -> int:
        """Add the sums pool workers wrote out; returns how many workers."""
        paths = sorted(glob.glob(os.path.join(self.work_dir, "trace-worker-*.json")))
        for path in paths:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            os.remove(path)
            for name, (calls, self_s) in doc["spans"].items():
                stat = self.spans[name]
                stat[0] += calls
                stat[1] += self_s
            self.counts.update(doc["counts"])
            self.call_ms.extend(doc["call_ms"])
        return len(paths)

    def metrics(self, rounds: int, time_scale: float = 1.0) -> dict[str, float]:
        """Per-round means of every per-layer figure; zero where a layer
        did no work in this workload.  Times are multiplied by
        ``time_scale``, the traced rounds' scaled over measured wall time."""
        values: dict[str, float] = {}
        for name, (calls, self_s) in self.spans.items():
            if SPANS[name]:
                values[f"{name}.calls"] = calls / rounds
            values[f"{name}.self_s"] = self_s / rounds * time_scale
        for name in COUNTS:
            values[name] = self.counts.get(name, 0) / rounds
        samples = self.call_ms
        tail = tail_percentile(len(samples))
        values["gateway.call.ms_p50"] = percentile(samples, 50.0) * time_scale if samples else 0.0
        values["gateway.call.ms_tail"] = percentile(samples, tail) * time_scale if tail else 0.0
        return values


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
