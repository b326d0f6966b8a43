"""Experiment orchestration and reporting.

Expands the team x arena x distribution grid into seeded trial configs,
runs them with a resumable append-only store, and aggregates deposits
and operational metrics into summary tables and boxplot-ready CSVs.
Layout seeds are paired across policies so comparisons see the same
worlds; behavioural seeds differ per policy.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .core import Arena, CpfaParams, DEFAULT_PARAMS, derive_seed
from .engine import POLICY_NAMES, TrialConfig, run_trial
from .gateway import GatewayConfig
from .layouts import Distribution, LayoutSpec

# Standard resource stock per arena side.  Density is not constant: 64 in
# 36 m^2, 128 in 64 m^2 and 256 in 100 m^2 are 1.8, 2.0 and 2.6 per m^2.
ARENA_RESOURCES = {6.0: 64, 8.0: 128, 10.0: 256}

RESULTS_FILE = "results.jsonl"
LOGS_DIR = "logs"


@dataclass(frozen=True)
class GridSpec:
    team_sizes: tuple = (4, 6, 8, 10)
    arena_sides: tuple = (6.0, 8.0, 10.0)
    distributions: tuple = ("clustered", "powerlaw", "random")
    trials_per_cell: int = 10
    duration: float = 1200.0
    policies: tuple = ("cascade", "scripted")
    master_seed: int = 0
    params: CpfaParams = DEFAULT_PARAMS
    gateway: Optional[GatewayConfig] = None  # for any "llm" policy entries

    def __post_init__(self):
        for axis in ("team_sizes", "arena_sides", "distributions", "policies"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):  # its jobs would share keys
                raise ValueError(f"{axis} repeats an entry: {list(values)}")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
        for dist in self.distributions:
            Distribution(dist)  # ValueError: 'bogus' is not a valid Distribution

    def cells(self) -> list[tuple]:
        return [
            (team, side, dist)
            for team in self.team_sizes
            for side in self.arena_sides
            for dist in self.distributions
        ]


@dataclass(frozen=True)
class GridJob:
    cell: tuple  # (team_size, arena_side, distribution)
    trial_index: int
    policy: str
    config: TrialConfig

    @property
    def key(self) -> str:
        team, side, dist = self.cell
        return f"{dist}-a{side:g}-t{team}-trial{self.trial_index}-{self.policy}"

    @property
    def config_hash(self) -> str:
        """SHA-256 over every field of the job's TrialConfig."""
        doc = asdict(self.config)
        text = json.dumps(doc, sort_keys=True, default=lambda value: value.value)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def standard_resource_count(side: float) -> int:
    """The standard resource count for an arena side length."""
    if side not in ARENA_RESOURCES:
        raise ValueError(f"no standard resource count for a {side:g} m arena")
    return ARENA_RESOURCES[side]


def expand_grid(spec: GridSpec) -> list[GridJob]:
    """Every (cell, trial, policy) combination as a runnable job."""
    jobs = []
    for team, side, dist in spec.cells():
        arena = Arena.square(side)
        count = standard_resource_count(side)
        for trial in range(spec.trials_per_cell):
            layout_seed = derive_seed(spec.master_seed, dist, f"a{side:g}", f"t{team}", trial)
            layout = LayoutSpec(Distribution(dist), count, arena, seed=layout_seed)
            for policy in spec.policies:
                config = TrialConfig(
                    arena=arena,
                    team_size=team,
                    layout=layout,
                    params=spec.params,
                    policy=policy,
                    duration=spec.duration,
                    seed=derive_seed(layout_seed, "behavior", policy),
                    gateway=spec.gateway,
                )
                jobs.append(GridJob(cell=(team, side, dist), trial_index=trial,
                                    policy=policy, config=config))
    return jobs


def _job_row(job: GridJob, log_dir: str) -> dict:
    result = run_trial(job.config)
    log_path = os.path.join(log_dir, f"{job.key}.jsonl")
    with open(log_path, "wb") as fh:
        fh.write(result.log_bytes())
    team, side, dist = job.cell
    return {
        "key": job.key,
        "config_hash": job.config_hash,
        "status": "ok",
        "team_size": team,
        "arena": side,
        "distribution": dist,
        "trial": job.trial_index,
        "policy": job.policy,
        **result.report(),
    }


def _run_job(job: GridJob, log_dir: str) -> dict:
    try:
        return _job_row(job, log_dir)
    except Exception as exc:
        return {"key": job.key, "status": "error", "error": f"{type(exc).__name__}: {exc}"}


def load_store(out_dir: str) -> list[dict]:
    """The store's rows, one per key: a later row supersedes an earlier
    one, so a retried error or a re-run of a changed config counts once."""
    path = os.path.join(out_dir, RESULTS_FILE)
    rows: dict[str, dict] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    row = json.loads(line)
                    rows[row["key"]] = row
    return list(rows.values())


def run_grid(spec: GridSpec, out_dir: str, parallelism: int = 1,
             progress=None) -> list[dict]:
    """Run all grid jobs, appending rows as they finish; resumable.

    A job is skipped only when the store's row for its key is ok and was
    run from the same config; error rows and rows of a changed config are
    re-run.  Returns the store's rows after the run, one per key.
    """
    os.makedirs(out_dir, exist_ok=True)
    log_dir = os.path.join(out_dir, LOGS_DIR)
    os.makedirs(log_dir, exist_ok=True)

    done = {row["key"]: row.get("config_hash")
            for row in load_store(out_dir) if row.get("status") == "ok"}
    jobs = [job for job in expand_grid(spec) if done.get(job.key) != job.config_hash]

    results_path = os.path.join(out_dir, RESULTS_FILE)
    with open(results_path, "a", encoding="utf-8") as out:
        def write(row: dict) -> None:
            out.write(json.dumps(row, separators=(",", ":")) + "\n")
            out.flush()
            if progress is not None:
                progress(row)

        if parallelism > 1:
            with ProcessPoolExecutor(parallelism) as pool:
                futures = {pool.submit(_run_job, job, log_dir): job for job in jobs}
                for future in as_completed(futures):
                    write(future.result())
        else:
            for job in jobs:
                write(_run_job(job, log_dir))

    return load_store(out_dir)


@dataclass
class SummaryRow:
    cell: tuple
    baseline_mean: float
    candidate_mean: float
    baseline_median: float
    candidate_median: float
    absolute_gain: float
    relative_improvement: Optional[float]  # None when the baseline mean is 0
    candidate_wins: bool


@dataclass
class Summary:
    rows: list
    wins: int
    cells: int
    mean_relative_improvement: Optional[float]
    mean_absolute_gain: float
    per_distribution_improvement: dict
    operational: dict
    missing_cells: list = field(default_factory=list)


def _cell_deposits(rows: list[dict]) -> dict:
    by_cell: dict = {}
    for row in rows:
        if row.get("status") != "ok":
            continue
        cell = (row["team_size"], row["arena"], row["distribution"])
        by_cell.setdefault(cell, {}).setdefault(row["policy"], []).append(
            (row["trial"], row["deposits"])
        )
    for policies in by_cell.values():
        for policy, pairs in policies.items():
            policies[policy] = [d for _, d in sorted(pairs)]
    return by_cell


def summarize(rows: list[dict], baseline: str, candidate: str) -> Summary:
    """Per-cell comparison plus the headline aggregates."""
    by_cell = _cell_deposits(rows)
    summary_rows: list[SummaryRow] = []
    missing = []
    rels = []
    gains = []
    per_dist: dict = {}
    wins = 0
    for cell in sorted(by_cell):
        policies = by_cell[cell]
        if baseline not in policies or candidate not in policies:
            missing.append(cell)
            continue
        base = np.asarray(policies[baseline], dtype=float)
        cand = np.asarray(policies[candidate], dtype=float)
        base_mean, cand_mean = float(base.mean()), float(cand.mean())
        gain = cand_mean - base_mean
        rel = (gain / base_mean) if base_mean > 0 else None
        row = SummaryRow(
            cell=cell,
            baseline_mean=base_mean,
            candidate_mean=cand_mean,
            baseline_median=float(np.median(base)),
            candidate_median=float(np.median(cand)),
            absolute_gain=gain,
            relative_improvement=rel,
            candidate_wins=cand_mean > base_mean,
        )
        summary_rows.append(row)
        gains.append(gain)
        if rel is not None:
            rels.append(rel)
            per_dist.setdefault(cell[2], []).append(rel)
        wins += row.candidate_wins

    ok_rows = [r for r in rows if r.get("status") == "ok"]
    calls = sum(r.get("llm_calls", 0) for r in ok_rows)
    fallbacks = sum(r.get("llm_fallbacks", 0) for r in ok_rows)
    latencies = [r["latency_mean"] for r in ok_rows if r.get("latency_mean") is not None]
    return Summary(
        rows=summary_rows,
        wins=wins,
        cells=len(summary_rows),
        mean_relative_improvement=float(np.mean(rels)) if rels else None,
        mean_absolute_gain=float(np.mean(gains)) if gains else 0.0,
        per_distribution_improvement={
            dist: float(np.mean(vals)) for dist, vals in sorted(per_dist.items())
        },
        operational={"llm_calls": calls, "llm_fallbacks": fallbacks,
                     "latency_mean": float(np.mean(latencies)) if latencies else None},
        missing_cells=missing,
    )


def write_summary_csv(summary: Summary, path, baseline: str, candidate: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "team_size", "arena", "distribution",
            f"{baseline}_mean", f"{candidate}_mean",
            f"{baseline}_median", f"{candidate}_median",
            "absolute_gain", "relative_improvement", "candidate_wins",
        ])
        for row in summary.rows:
            team, side, dist = row.cell
            writer.writerow([
                team, side, dist,
                f"{row.baseline_mean:.3f}", f"{row.candidate_mean:.3f}",
                f"{row.baseline_median:.3f}", f"{row.candidate_median:.3f}",
                f"{row.absolute_gain:.3f}",
                "" if row.relative_improvement is None else f"{row.relative_improvement:.4f}",
                int(row.candidate_wins),
            ])


def write_summary_markdown(summary: Summary, path, baseline: str, candidate: str) -> None:
    lines = [
        f"# Grid summary: {candidate} vs {baseline}",
        "",
        f"- cells compared: {summary.cells}",
        f"- cells won by {candidate}: {summary.wins}",
    ]
    if summary.mean_relative_improvement is not None:
        lines.append(f"- mean relative improvement: {100 * summary.mean_relative_improvement:+.1f}%")
    lines.append(f"- mean absolute gain: {summary.mean_absolute_gain:+.2f} deposits/trial")
    for dist, rel in summary.per_distribution_improvement.items():
        lines.append(f"- {dist}: {100 * rel:+.1f}%")
    op = summary.operational
    lines.append(
        f"- operational: {op['llm_calls']} LLM calls, {op['llm_fallbacks']} fallbacks"
        + (f", mean latency {op['latency_mean']:.3f}s" if op["latency_mean"] is not None else "")
    )
    if summary.missing_cells:
        lines.append(f"- WARNING: missing cells: {summary.missing_cells}")
    lines += ["", f"| team | arena | distribution | {baseline} | {candidate} | gain | rel |",
              "|---|---|---|---|---|---|---|"]
    for row in summary.rows:
        team, side, dist = row.cell
        rel = "" if row.relative_improvement is None else f"{100 * row.relative_improvement:+.0f}%"
        lines.append(
            f"| {team} | {side:g} | {dist} | {row.baseline_mean:.1f} | "
            f"{row.candidate_mean:.1f} | {row.absolute_gain:+.1f} | {rel} |"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_boxplot_data(rows: list[dict], out_dir: str) -> list[str]:
    """One CSV per distribution: (team_size, arena, policy, trial, deposits),
    ordered by team-size group then arena then policy then trial."""
    os.makedirs(out_dir, exist_ok=True)
    ok_rows = [r for r in rows if r.get("status") == "ok"]
    distributions = sorted({r["distribution"] for r in ok_rows})
    paths = []
    for dist in distributions:
        path = os.path.join(out_dir, f"boxplot_{dist}.csv")
        selected = [r for r in ok_rows if r["distribution"] == dist]
        selected.sort(key=lambda r: (r["team_size"], r["arena"], r["policy"], r["trial"]))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["team_size", "arena", "policy", "trial", "deposits"])
            for r in selected:
                writer.writerow([r["team_size"], f"{r['arena']:g}", r["policy"],
                                 r["trial"], r["deposits"]])
        paths.append(path)
    return paths
