import json
import os

import pytest

from swarmforage import harness
from swarmforage.core import DEFAULT_PARAMS
from swarmforage.harness import (
    ARENA_RESOURCES,
    GridSpec,
    emit_boxplot_data,
    expand_grid,
    load_store,
    run_grid,
    summarize,
    write_summary_csv,
    write_summary_markdown,
)


def tiny_spec(**overrides):
    fields = dict(
        team_sizes=(2,),
        arena_sides=(6.0,),
        distributions=("clustered", "random"),
        trials_per_cell=2,
        duration=30.0,
        policies=("cascade", "scripted"),
        master_seed=5,
    )
    fields.update(overrides)
    return GridSpec(**fields)


class TestExpandGrid:
    def test_paper_shape(self):
        jobs = expand_grid(GridSpec())
        cells = {j.cell for j in jobs}
        assert len(cells) == 36
        for policy in ("cascade", "scripted"):
            assert sum(1 for j in jobs if j.policy == policy) == 360

    def test_resource_count_follows_arena(self):
        for job in expand_grid(GridSpec(trials_per_cell=1)):
            assert job.config.layout.resource_count == ARENA_RESOURCES[job.cell[1]]

    def test_single_cell(self):
        jobs = expand_grid(tiny_spec(distributions=("random",), policies=("cascade",)))
        assert len(jobs) == 2  # trials_per_cell

    def test_paired_layout_seeds(self):
        jobs = expand_grid(tiny_spec())
        by_trial = {}
        for job in jobs:
            by_trial.setdefault((job.cell, job.trial_index), []).append(job.config)
        for configs in by_trial.values():
            layout_seeds = {c.layout.seed for c in configs}
            behavior_seeds = {c.seed for c in configs}
            assert len(layout_seeds) == 1          # same world
            assert len(behavior_seeds) == len(configs)  # different behaviour

    def test_keys_unique(self):
        jobs = expand_grid(tiny_spec())
        keys = [j.key for j in jobs]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("axis, values", [
        ("team_sizes", (2, 2)),
        ("arena_sides", (6, 6.0)),
        ("distributions", ("random", "random")),
        ("policies", ("cascade", "cascade")),
    ])
    def test_repeated_axis_entry_rejected(self, axis, values):
        with pytest.raises(ValueError, match=f"{axis} repeats an entry"):
            tiny_spec(**{axis: values})


class TestRunGrid:
    def test_completes_and_counts(self, tmp_path):
        spec = tiny_spec()
        rows = run_grid(spec, str(tmp_path))
        expected = len(spec.cells()) * spec.trials_per_cell * len(spec.policies)
        assert len(rows) == expected
        assert all(r["status"] == "ok" for r in rows)
        for row in rows:
            log = tmp_path / "logs" / f"{row['key']}.jsonl"
            assert log.exists()

    def test_empty_spec(self, tmp_path):
        spec = tiny_spec(distributions=())
        assert run_grid(spec, str(tmp_path)) == []

    def test_resume_skips_completed(self, tmp_path):
        spec = tiny_spec()
        first = run_grid(spec, str(tmp_path))
        before = (tmp_path / "results.jsonl").read_bytes()
        second = run_grid(spec, str(tmp_path))  # nothing left to do
        after = (tmp_path / "results.jsonl").read_bytes()
        assert before == after
        assert len(second) == len(first)

    def test_interrupt_then_resume_matches_clean_run(self, tmp_path):
        spec = tiny_spec()
        clean_dir = tmp_path / "clean"
        resumed_dir = tmp_path / "resumed"
        clean = run_grid(spec, str(clean_dir))

        # simulate an interrupted run: keep only the first three rows
        os.makedirs(resumed_dir)
        rows = [json.dumps(r, separators=(",", ":")) for r in clean[:3]]
        (resumed_dir / "results.jsonl").write_text("\n".join(rows) + "\n")
        resumed = run_grid(spec, str(resumed_dir))

        def normalized(rows):
            return sorted(json.dumps(r, sort_keys=True) for r in rows)

        assert normalized(resumed) == normalized(clean)

    def test_resume_reruns_a_job_whose_config_changed(self, tmp_path):
        run_grid(tiny_spec(duration=10.0), str(tmp_path))
        rows = run_grid(tiny_spec(duration=20.0), str(tmp_path))
        assert len(rows) == 8
        assert {row["settings"]["duration"] for row in rows} == {20.0}
        assert len((tmp_path / "results.jsonl").read_text().splitlines()) == 16

    def test_a_retried_error_is_superseded(self, tmp_path, monkeypatch):
        spec = tiny_spec(distributions=("random",), trials_per_cell=1, policies=("cascade",))
        real_run_trial = harness.run_trial

        def broken(config):
            raise RuntimeError("transient")

        monkeypatch.setattr(harness, "run_trial", broken)
        assert [row["status"] for row in run_grid(spec, str(tmp_path))] == ["error"]
        monkeypatch.setattr(harness, "run_trial", real_run_trial)
        assert [row["status"] for row in run_grid(spec, str(tmp_path))] == ["ok"]
        assert [row["status"] for row in load_store(str(tmp_path))] == ["ok"]

    def test_parallel_matches_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_grid(spec, str(tmp_path / "serial"), parallelism=1)
        parallel = run_grid(spec, str(tmp_path / "par"), parallelism=2)

        def normalized(rows):
            return sorted(json.dumps(r, sort_keys=True) for r in rows)

        assert normalized(serial) == normalized(parallel)


def synthetic_rows(cells, trials, base_fn, cand_fn, baseline="cascade", candidate="scripted"):
    rows = []
    for cell in cells:
        team, arena, dist = cell
        for trial in range(trials):
            for policy, fn in ((baseline, base_fn), (candidate, cand_fn)):
                rows.append({
                    "key": f"{dist}-a{arena}-t{team}-trial{trial}-{policy}",
                    "status": "ok", "team_size": team, "arena": arena,
                    "distribution": dist, "trial": trial, "policy": policy,
                    "deposits": fn(cell, trial), "llm_calls": 0, "llm_fallbacks": 0,
                    "latency_mean": None,
                })
    return rows


class TestSummarize:
    CELLS = [(4, 6.0, "clustered"), (4, 6.0, "random"), (6, 8.0, "powerlaw")]

    def test_identical_policies_no_wins(self):
        rows = synthetic_rows(self.CELLS, 4, lambda c, t: 10, lambda c, t: 10)
        summary = summarize(rows, "cascade", "scripted")
        assert summary.wins == 0
        assert summary.mean_relative_improvement == 0.0
        assert summary.mean_absolute_gain == 0.0

    def test_plus_one_everywhere_wins_all(self):
        rows = synthetic_rows(self.CELLS, 4, lambda c, t: 10, lambda c, t: 11)
        summary = summarize(rows, "cascade", "scripted")
        assert summary.wins == len(self.CELLS)
        assert summary.mean_absolute_gain == pytest.approx(1.0)
        assert summary.mean_relative_improvement == pytest.approx(0.1)

    def test_zero_baseline_reported_absolute_only(self):
        rows = synthetic_rows(self.CELLS[:1], 4, lambda c, t: 0, lambda c, t: 5)
        summary = summarize(rows, "cascade", "scripted")
        assert summary.rows[0].relative_improvement is None
        assert summary.mean_relative_improvement is None
        assert summary.mean_absolute_gain == pytest.approx(5.0)
        assert summary.wins == 1

    def test_per_distribution_grouping(self):
        rows = synthetic_rows(self.CELLS, 2, lambda c, t: 10,
                              lambda c, t: 20 if c[2] == "clustered" else 12)
        summary = summarize(rows, "cascade", "scripted")
        assert summary.per_distribution_improvement["clustered"] == pytest.approx(1.0)
        assert summary.per_distribution_improvement["random"] == pytest.approx(0.2)

    def test_missing_cells_reported(self):
        rows = synthetic_rows(self.CELLS, 2, lambda c, t: 10, lambda c, t: 11)
        rows = [r for r in rows if not (r["distribution"] == "random" and r["policy"] == "scripted")]
        summary = summarize(rows, "cascade", "scripted")
        assert summary.missing_cells == [(4, 6.0, "random")]
        assert summary.cells == 2

    def test_summary_recomputable_from_raw_rows(self):
        rows = synthetic_rows(self.CELLS, 3, lambda c, t: 5 + t, lambda c, t: 7 + t)
        summary = summarize(rows, "cascade", "scripted")
        for srow in summary.rows:
            cell_rows = [r for r in rows if (r["team_size"], r["arena"], r["distribution"]) == srow.cell]
            base = [r["deposits"] for r in cell_rows if r["policy"] == "cascade"]
            cand = [r["deposits"] for r in cell_rows if r["policy"] == "scripted"]
            assert srow.baseline_mean == sum(base) / len(base)
            assert srow.candidate_mean == sum(cand) / len(cand)
            assert srow.absolute_gain == srow.candidate_mean - srow.baseline_mean

    def test_report_files(self, tmp_path):
        rows = synthetic_rows(self.CELLS, 2, lambda c, t: 10, lambda c, t: 12)
        summary = summarize(rows, "cascade", "scripted")
        csv_path = tmp_path / "summary.csv"
        md_path = tmp_path / "summary.md"
        write_summary_csv(summary, csv_path, "cascade", "scripted")
        write_summary_markdown(summary, md_path, "cascade", "scripted")
        assert csv_path.read_text().count("\n") == len(self.CELLS) + 1
        assert "wins" in md_path.read_text() or "cells won" in md_path.read_text()


class TestBoxplotData:
    def test_row_counts_and_ordering(self, tmp_path):
        cells = [(t, a, d) for t in (4, 6) for a in (6.0,) for d in ("clustered", "random")]
        rows = synthetic_rows(cells, 3, lambda c, t: 10, lambda c, t: 12)
        paths = emit_boxplot_data(rows, str(tmp_path))
        assert sorted(os.path.basename(p) for p in paths) == [
            "boxplot_clustered.csv", "boxplot_random.csv",
        ]
        lines = (tmp_path / "boxplot_clustered.csv").read_text().strip().splitlines()
        assert lines[0] == "team_size,arena,policy,trial,deposits"
        assert len(lines) == 1 + 2 * 3 * 2  # teams x trials x policies
        # grouped by team size, then policy, then trial
        data = [line.split(",") for line in lines[1:]]
        assert data == sorted(data, key=lambda r: (int(r[0]), r[1], r[2], int(r[3])))

    def test_empty_results(self, tmp_path):
        paths = emit_boxplot_data([], str(tmp_path))
        assert paths == []

    def test_row_conservation(self, tmp_path):
        cells = [(4, 6.0, "powerlaw")]
        rows = synthetic_rows(cells, 5, lambda c, t: 1, lambda c, t: 2)
        paths = emit_boxplot_data(rows, str(tmp_path))
        total = 0
        for path in paths:
            with open(path) as fh:
                total += len(fh.read().strip().splitlines()) - 1
        assert total == len(rows)


class TestFailureHandling:
    def test_error_rows_recorded_and_grid_continues(self, tmp_path):
        # an llm policy without a gateway config cannot initialise
        spec = tiny_spec(policies=("cascade", "llm"), gateway=None,
                         distributions=("random",), trials_per_cell=1)
        rows = run_grid(spec, str(tmp_path))
        by_status = {}
        for row in rows:
            by_status.setdefault(row["status"], []).append(row)
        assert len(by_status["ok"]) == 1
        assert len(by_status["error"]) == 1
        assert "gateway" in by_status["error"][0]["error"]

    def test_resume_retries_errors(self, tmp_path):
        bad = tiny_spec(policies=("llm",), gateway=None,
                        distributions=("random",), trials_per_cell=1)
        rows = run_grid(bad, str(tmp_path))
        assert rows[0]["status"] == "error"

        from swarmforage.gateway import GatewayConfig

        fixed = tiny_spec(policies=("llm",),
                          gateway=GatewayConfig(mode="mock", mock_behavior="scripted"),
                          distributions=("random",), trials_per_cell=1)
        rows = run_grid(fixed, str(tmp_path))
        ok = [r for r in rows if r["status"] == "ok"]
        assert len(ok) == 1
