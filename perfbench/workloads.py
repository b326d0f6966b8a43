"""The four benchmark workloads.

Each workload builds its inputs from the run's seed and a round index,
makes one timed call per round into the program's public API, and
checks the round's outputs outside the timed region.  Checks that need
a second run of the program (a trial re-run, the in-process transport
comparison) are kept for ``final_check``, after the timed rounds, so
they do not raise the run's peak memory.

Round r of every workload draws its inputs from ``round_seed(seed, name,
r)``, so the same seed always gives the same inputs, and longer runs
cover more of them.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

from swarmforage import core, engine, gateway, harness, layouts, tuner
from swarmforage.core import Arena
from swarmforage.layouts import Distribution

import checks

DT = engine.MotionLimits().dt


def round_seed(seed: int, *parts) -> int:
    """A 63-bit seed for one round's inputs, from the run's seed."""
    text = "/".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little") >> 1


def steps(duration: float) -> int:
    return int(round(duration / DT))


def keep_out_radius(side: float) -> float:
    return Arena.square(side).center_zone_radius + layouts.EXCLUSION_MARGIN


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_log(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines() if line]


@dataclass
class Outcome:
    """What one round did and what its checks found."""

    attempted: int
    failed: int
    problems: list[str]
    digest: str
    trials: int = 0
    robot_steps: int = 0
    decisions: int = 0
    deposits: int = 0
    layouts: int = 0
    best_fitness: float = 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str, toy: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.pool_workers = 0

    def prepare(self, r: int):
        raise NotImplementedError

    def execute(self, inputs):
        raise NotImplementedError

    def check(self, r: int, inputs, output) -> Outcome:
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class GridWorkload(Workload):
    """The paper's comparison grid at parallelism 1, from an empty store."""

    name = "grid"
    SHAPE = dict(team_sizes=(4, 10), arena_sides=(6.0, 10.0),
                 distributions=("clustered", "powerlaw", "random"), trials_per_cell=1,
                 duration=300.0, policies=("cascade", "scripted"))
    TOY = dict(team_sizes=(3,), arena_sides=(6.0,), distributions=("clustered", "random"),
               trials_per_cell=1, duration=60.0, policies=("cascade", "scripted"))

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.shape = self.TOY if toy else self.SHAPE
        self._reruns: dict = {}

    def prepare(self, r):
        spec = harness.GridSpec(**self.shape, master_seed=round_seed(self.seed, self.name, r))
        store = os.path.join(self.work_dir, f"grid-store-{r}")
        shutil.rmtree(store, ignore_errors=True)
        return spec, store

    def execute(self, inputs):
        spec, store = inputs
        return harness.run_grid(spec, store, parallelism=1)

    def check(self, r, inputs, rows):
        spec, store = inputs
        expected = len(spec.cells()) * spec.trials_per_cell * len(spec.policies)
        problems = []
        if len(rows) != expected or len({row["key"] for row in rows}) != len(rows):
            problems.append(f"grid round {r}: {len(rows)} rows for {expected} distinct trials")
        ok_rows = sorted((row for row in rows if row.get("status") == "ok"),
                         key=lambda row: row["key"])
        outcome = Outcome(attempted=expected, failed=len(rows) - len(ok_rows),
                          problems=problems, digest="")
        digest = hashlib.sha256()
        log_hashes = {}
        for row in ok_rows:
            with open(os.path.join(store, harness.LOGS_DIR, f"{row['key']}.jsonl"), "rb") as fh:
                data = fh.read()
            digest.update(row["key"].encode("utf-8") + b"\n" + data)
            log_hashes[row["key"]] = sha256(data)
            events = parse_log(data)
            problems += checks.check_trial_log(
                events, deposits=row["deposits"], team=row["team_size"],
                half_width=row["arena"] / 2.0, keep_out=keep_out_radius(row["arena"]),
                label=f"grid round {r} {row['key']}")
            outcome.trials += 1
            outcome.robot_steps += row["team_size"] * steps(spec.duration)
            outcome.decisions += sum(1 for e in events if e["kind"] == "DECISION")
            outcome.deposits += row["deposits"]
        outcome.digest = digest.hexdigest()
        # one trial per round is re-run later and must give the same bytes
        jobs = harness.expand_grid(spec)
        job = jobs[spec.master_seed % len(jobs)]
        if job.key in log_hashes:
            self._reruns[r] = (job, log_hashes[job.key])
        shutil.rmtree(store, ignore_errors=True)
        return outcome

    def final_check(self):
        problems = []
        for r, (job, expected) in sorted(self._reruns.items()):
            if sha256(engine.run_trial(job.config).log_bytes()) != expected:
                problems.append(f"grid round {r}: re-run of {job.key} gave different log bytes")
        return problems


class GaWorkload(Workload):
    """The GA on its own training set-up, reduced, on a pool of 2 workers."""

    name = "ga"
    SHAPE = dict(population=6, generations=3, trials_per_genome=2, eval_duration=120.0,
                 team_size=6, arena_side=8.0, resource_count=128,
                 distribution=Distribution.POWERLAW, workers=2)
    TOY = dict(population=3, generations=2, trials_per_genome=1, eval_duration=30.0,
               team_size=3, arena_side=6.0, resource_count=64,
               distribution=Distribution.POWERLAW, workers=2)

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.shape = self.TOY if toy else self.SHAPE
        self.pool_workers = self.shape["workers"]

    def prepare(self, r):
        return tuner.GaConfig(**self.shape, master_seed=round_seed(self.seed, self.name, r))

    def execute(self, config):
        return tuner.ga_run(config)

    def check(self, r, config, output):
        best, history = output
        pop = config.population
        evaluations = pop + (config.generations - 1) * (pop - min(max(1, config.elitism), pop))
        problems = [f"ga round {r}: {p}" for p in checks.check_ga_history(
            history, best.as_dict(), generations=config.generations,
            resource_count=config.resource_count, ranges=core.PARAM_RANGES)]
        trials = evaluations * config.trials_per_genome
        record = [dataclasses.asdict(h) for h in history]
        return Outcome(
            attempted=evaluations, failed=0, problems=problems,
            digest=sha256(json.dumps(record, sort_keys=True).encode("utf-8")),
            trials=trials, robot_steps=trials * config.team_size * steps(config.eval_duration),
            best_fitness=history[-1].best_so_far if history else 0.0)


class LlmSparseWorkload(Workload):
    """The llm policy over live HTTP to an in-process scripted mock server,
    on a sparse random field where search starvation is frequent."""

    name = "llm-sparse"
    SHAPE = dict(team=10, side=10.0, count=4, duration=150.0)
    TOY = dict(team=3, side=6.0, count=4, duration=150.0)

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.shape = self.TOY if toy else self.SHAPE
        self._round0 = None  # (deposits, digest) of round 0, for final_check
        self.server = gateway.MockLlmServer("scripted").start()

    def config(self, r, gateway_config):
        s = self.shape
        arena = Arena.square(s["side"])
        layout = layouts.LayoutSpec(Distribution.RANDOM, s["count"], arena,
                                    seed=round_seed(self.seed, self.name, r, "layout"))
        return engine.TrialConfig(
            arena=arena, team_size=s["team"], layout=layout, params=core.DEFAULT_PARAMS,
            policy="llm", duration=s["duration"],
            seed=round_seed(self.seed, self.name, r, "behavior"), gateway=gateway_config)

    def prepare(self, r):
        return self.config(r, gateway.GatewayConfig(mode="live", base_url=self.server.base_url))

    def execute(self, config):
        return engine.run_trial(config)

    def check(self, r, config, result):
        events = result.event_log
        label = f"llm-sparse round {r}"
        problems = checks.check_trial_log(
            events, deposits=result.deposits, team=config.team_size,
            half_width=config.arena.half_width, keep_out=keep_out_radius(self.shape["side"]),
            label=label)
        problems += checks.check_scripted_decisions(events, label=label)
        problems += checks.check_starvation_timing(
            events, dt=DT, last_step_t=(steps(config.duration) - 1) * DT, label=label)
        failed_calls = sum(n for outcome, n in result.outcome_counts.items() if outcome != "ok")
        if result.llm_fallbacks != failed_calls:
            problems.append(f"{label}: {result.llm_fallbacks} fallbacks for {failed_calls} "
                            "failed calls")
        digest = sha256(json.dumps(checks.strip_latency(events), separators=(",", ":"))
                        .encode("utf-8"))
        if r == 0:
            self._round0 = (result.deposits, digest)
        return Outcome(
            attempted=1 + result.llm_calls, failed=failed_calls, problems=problems,
            digest=digest, trials=1, robot_steps=config.team_size * steps(config.duration),
            decisions=sum(1 for e in events if e["kind"] == "DECISION"),
            deposits=result.deposits)

    def final_check(self):
        """The same trial through the in-process mock transport deposits
        the same and logs the same, apart from wall-clock latency."""
        deposits, digest = self._round0
        mock = engine.run_trial(
            self.config(0, gateway.GatewayConfig(mode="mock", mock_behavior="scripted")))
        problems = []
        if mock.deposits != deposits:
            problems.append(f"llm-sparse round 0: {deposits} deposits live, "
                            f"{mock.deposits} in process")
        stripped = json.dumps(checks.strip_latency(mock.event_log), separators=(",", ":"))
        if sha256(stripped.encode("utf-8")) != digest:
            problems.append("llm-sparse round 0: live and in-process logs differ")
        return problems

    def close(self):
        self.server.stop()


class LayoutsWorkload(Workload):
    """Layout generation over the grid's (arena, count) pairs, all three
    distributions, and many seeds."""

    name = "layouts"
    PAIRS = ((6.0, 64), (8.0, 128), (10.0, 256))
    SEEDS_PER_ROUND = 10

    def __init__(self, seed, work_dir, toy=False):
        super().__init__(seed, work_dir, toy)
        self.pairs = self.PAIRS[:1] if toy else self.PAIRS
        self.seeds_per_round = 1 if toy else self.SEEDS_PER_ROUND

    def prepare(self, r):
        return [
            layouts.LayoutSpec(dist, count, Arena.square(side),
                               seed=round_seed(self.seed, self.name, r, side, dist.value, k))
            for side, count in self.pairs
            for dist in Distribution
            for k in range(self.seeds_per_round)
        ]

    def execute(self, specs):
        return [layouts.generate(spec) for spec in specs]

    def check(self, r, specs, fields):
        problems = []
        digest = hashlib.sha256()
        for i, (spec, generated) in enumerate(zip(specs, fields)):
            digest.update(generated.positions.tobytes())
            problems += checks.check_layout(
                generated.positions, distribution=spec.distribution.value,
                count=spec.resource_count, half_width=spec.arena.half_width,
                keep_out=keep_out_radius(2 * spec.arena.half_width),
                min_spacing=spec.min_spacing,
                label=f"layouts round {r} #{i}")
        return Outcome(attempted=len(specs), failed=0, problems=problems,
                       digest=digest.hexdigest(), layouts=len(fields))


WORKLOADS = {cls.name: cls for cls in (GridWorkload, GaWorkload, LlmSparseWorkload,
                                       LayoutsWorkload)}


def make(name: str, seed: int, work_dir: str, toy: bool = False) -> Workload:
    return WORKLOADS[name](seed, work_dir, toy)
