import dataclasses
import json

import pytest

from swarmforage import harness
from swarmforage.cli import _ga_config, build_parser, main
from swarmforage.core import DEFAULT_PARAMS, load_params, save_params
from swarmforage.engine import TrialConfig
from swarmforage.layouts import load_layout
from swarmforage.tuner import GaConfig


class TestGenLayout:
    def test_writes_layout_and_csv(self, tmp_path, capsys):
        out = tmp_path / "layout.txt"
        csv_out = tmp_path / "layout.csv"
        code = main(["gen-layout", "--dist", "clustered", "--count", "64",
                     "--arena", "6", "--seed", "7", "--out", str(out),
                     "--csv", str(csv_out)])
        assert code == 0
        field = load_layout(out)
        assert len(field) == 64
        assert csv_out.read_text().splitlines()[0] == "x,y"
        assert "wrote 64 points" in capsys.readouterr().out

    def test_impossible_layout_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "layout.txt"
        code = main(["gen-layout", "--dist", "clustered", "--count", "7",
                     "--arena", "6", "--out", str(out)])
        assert code == 2
        assert "divisible by 4" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("dist,count,message", [
    ("clustered", "7", "divisible by 4"),
    ("powerlaw", "10", "not expressible by the rank-4 schedule"),
])
def test_impossible_layout_count_is_a_usage_error_everywhere(tmp_path, capsys, dist, count, message):
    # checked when the layout spec is built, before anything runs or is written
    out = tmp_path / "out.txt"
    for argv in (["gen-layout", "--arena", "6", "--out", str(out)],
                 ["run-trial", "--duration", "1"],
                 ["ga-train", "--population", "1", "--generations", "1", "--trials", "1",
                  "--duration", "1", "--out", str(out)]):
        assert main(argv + ["--dist", dist, "--count", count]) == 2, argv[0]
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRunTrial:
    def test_reports_deposits_and_writes_log(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code = main(["run-trial", "--team", "4", "--arena", "6", "--dist", "clustered",
                     "--policy", "scripted", "--duration", "120", "--seed", "3",
                     "--log", str(log)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deposits"] >= 0
        assert report["settings"]["policy"] == "scripted"
        lines = log.read_text().strip().splitlines()
        assert all(json.loads(line)["kind"] for line in lines)

    def test_layout_file_reuse(self, tmp_path, capsys):
        layout_file = tmp_path / "layout.txt"
        main(["gen-layout", "--dist", "random", "--count", "64", "--arena", "6",
              "--seed", "2", "--out", str(layout_file)])
        capsys.readouterr()
        code = main(["run-trial", "--team", "2", "--arena", "6", "--dist", "random",
                     "--duration", "30", "--seed", "1", "--layout-file", str(layout_file)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["settings"]["resource_count"] == 64

    def test_layout_file_reports_the_layout_it_ran(self, tmp_path, capsys):
        layout_file = tmp_path / "layout.txt"
        main(["gen-layout", "--dist", "random", "--count", "20", "--arena", "6",
              "--seed", "3", "--out", str(layout_file)])
        capsys.readouterr()
        code = main(["run-trial", "--arena", "6", "--duration", "30",
                     "--layout-file", str(layout_file)])
        assert code == 0
        settings = json.loads(capsys.readouterr().out)["settings"]
        assert (settings["distribution"], settings["resource_count"],
                settings["layout_seed"]) == ("random", 20, 3)

    def test_layout_file_needs_a_header_for_the_arena(self, tmp_path, capsys):
        layout_file = tmp_path / "layout.txt"
        main(["gen-layout", "--dist", "random", "--count", "20", "--arena", "6",
              "--seed", "3", "--out", str(layout_file)])
        capsys.readouterr()
        argv = ["run-trial", "--duration", "1", "--layout-file"]
        assert main(argv + [str(layout_file), "--arena", "8"]) == 1
        assert "not --arena 8" in capsys.readouterr().err
        bare = tmp_path / "bare.txt"
        bare.write_text("".join(layout_file.read_text().splitlines(keepends=True)[1:]))
        assert main(argv + [str(bare), "--arena", "6"]) == 1
        assert "no valid '# layout' header" in capsys.readouterr().err

    def test_llm_mock_policy(self, tmp_path, capsys):
        code = main(["run-trial", "--team", "2", "--arena", "6", "--dist", "clustered",
                     "--policy", "llm", "--duration", "60", "--seed", "3",
                     "--llm-mode", "mock", "--llm-mock-behavior", "scripted"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["llm_calls"] >= 0

    def test_unknown_policy_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-trial", "--policy", "bogus", "--duration", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_unknown_mock_behavior_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-trial", "--policy", "llm", "--llm-mock-behavior", "bogus",
                  "--duration", "1"])
        assert exc.value.code == 2
        assert "invalid mock_behavior value: 'bogus'" in capsys.readouterr().err

    def test_bad_config_value_is_a_usage_error(self, capsys):
        assert main(["run-trial", "--team", "0", "--duration", "1"]) == 2
        assert "team_size must be positive" in capsys.readouterr().err

    def test_bad_count_or_arena_is_a_usage_error(self, capsys):
        assert main(["run-trial", "--count", "-1", "--duration", "1"]) == 2
        assert "resource_count must be nonnegative" in capsys.readouterr().err
        assert main(["run-trial", "--arena", "0.5", "--count", "4", "--duration", "1"]) == 2
        assert "center zone must fit inside the arena" in capsys.readouterr().err

    def test_missing_params_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "params.txt"
        assert main(["run-trial", "--duration", "1", "--params", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_defaults_are_the_trial_config_defaults(self):
        args = build_parser().parse_args(["run-trial"])
        defaults = {f.name: f.default for f in dataclasses.fields(TrialConfig)}
        assert (args.duration, args.policy) == (defaults["duration"], defaults["policy"])


class TestGaTrain:
    def test_defaults_build_the_default_ga_config(self):
        args = build_parser().parse_args(["ga-train", "--out", "best.txt"])
        assert _ga_config(args, harness.standard_resource_count(args.arena)) == GaConfig()

    def test_trains_and_saves(self, tmp_path, capsys):
        out = tmp_path / "best.txt"
        history = tmp_path / "history.csv"
        code = main(["ga-train", "--population", "2", "--generations", "2",
                     "--trials", "1", "--duration", "30", "--team", "2",
                     "--arena", "6", "--dist", "powerlaw", "--seed", "4",
                     "--out", str(out), "--history", str(history)])
        assert code == 0
        params = load_params(out)
        assert params is not None
        assert history.read_text().startswith("generation,")

    def test_non_standard_arena_needs_count(self, tmp_path, capsys):
        # ga-train and run-trial refuse a non-standard arena without --count alike
        code = main(["ga-train", "--arena", "7", "--out", str(tmp_path / "best.txt")])
        ga_err = capsys.readouterr().err
        assert code == 1
        assert "--count is required" in ga_err
        assert main(["run-trial", "--arena", "7", "--duration", "1"]) == 1
        assert capsys.readouterr().err == ga_err
        assert not (tmp_path / "best.txt").exists()

    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "best.txt"
        assert main(["ga-train", "--population", "0", "--out", str(out)]) == 2
        assert "population, generations and trials_per_genome" in capsys.readouterr().err
        assert not out.exists()

    def test_arena_inside_the_central_zone_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "best.txt"
        with pytest.raises(ValueError, match="center zone must fit inside the arena"):
            GaConfig(arena_side=0.5, resource_count=4)
        assert main(["ga-train", "--arena", "0.5", "--count", "4", "--out", str(out)]) == 2
        assert "center zone must fit inside the arena" in capsys.readouterr().err
        assert not out.exists()

    def test_params_file_feeds_run_trial(self, tmp_path, capsys):
        params_file = tmp_path / "params.txt"
        save_params(DEFAULT_PARAMS, params_file)
        code = main(["run-trial", "--team", "2", "--arena", "6", "--duration", "30",
                     "--params", str(params_file)])
        assert code == 0


class TestGridAndReport:
    def test_grid_then_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "team_sizes": [2],
            "arena_sides": [6.0],
            "distributions": ["clustered", "random"],
            "trials_per_cell": 2,
            "duration": 30.0,
            "policies": ["cascade", "scripted"],
            "master_seed": 9,
        }))
        code = main(["run-grid", "--spec", str(spec), "--out", str(store)])
        assert code == 0
        out = capsys.readouterr().out
        assert "8/8 trials ok" in out

        report_dir = tmp_path / "report"
        code = main(["report", "--store", str(store), "--baseline", "cascade",
                     "--candidate", "scripted", "--out", str(report_dir)])
        assert code == 0
        assert (report_dir / "summary.csv").exists()
        assert (report_dir / "summary.md").exists()
        assert (report_dir / "boxplot_clustered.csv").exists()

    def test_resumed_failure_counts_once(self, tmp_path, capsys, monkeypatch):
        store = tmp_path / "store"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "team_sizes": [2], "arena_sides": [6.0], "distributions": ["random"],
            "trials_per_cell": 1, "duration": 10.0, "policies": ["cascade"],
        }))
        argv = ["run-grid", "--spec", str(spec), "--out", str(store)]
        real_run_trial = harness.run_trial

        def broken(config):
            raise RuntimeError("transient")

        monkeypatch.setattr(harness, "run_trial", broken)
        assert main(argv) == 2
        capsys.readouterr()
        monkeypatch.setattr(harness, "run_trial", real_run_trial)
        assert main(argv) == 0
        assert "1/1 trials ok, 0 failed" in capsys.readouterr().out

    def test_unknown_policy_or_distribution_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "team_sizes": [2], "arena_sides": [6.0], "distributions": ["random"],
            "trials_per_cell": 1, "duration": 10.0,
        }))
        store = tmp_path / "store"
        argv = ["run-grid", "--spec", str(spec), "--out", str(store)]
        assert main(argv + ["--policies", "cascade,bogus"]) == 2
        assert "unknown policy 'bogus'" in capsys.readouterr().err
        spec.write_text(json.dumps({"distributions": ["bogus"]}))
        assert main(argv) == 2
        assert "'bogus' is not a valid Distribution" in capsys.readouterr().err
        assert not store.exists()

    def test_repeated_axis_entry_is_a_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "team_sizes": [2], "arena_sides": [6.0], "distributions": ["random"],
            "trials_per_cell": 1, "duration": 10.0,
        }))
        store = tmp_path / "store"
        code = main(["run-grid", "--spec", str(spec), "--out", str(store),
                     "--policies", "cascade,cascade"])
        assert code == 2
        assert "policies repeats an entry" in capsys.readouterr().err
        assert not store.exists()

    def test_missing_params_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "params.txt"
        store = tmp_path / "store"
        assert main(["run-grid", "--params", str(missing), "--out", str(store)]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not store.exists()

    def test_unknown_report_policy_is_a_usage_error(self, tmp_path, capsys):
        for flag in ("--baseline", "--candidate"):
            with pytest.raises(SystemExit) as exc:
                main(["report", "--store", str(tmp_path), flag, "cascde",
                      "--out", str(tmp_path / "report")])
            assert exc.value.code == 2
            assert "invalid choice: 'cascde'" in capsys.readouterr().err

    def test_report_empty_store(self, tmp_path):
        assert main(["report", "--store", str(tmp_path), "--out", str(tmp_path)]) == 1


class TestMockLlmServe:
    def test_unknown_behavior_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mock-llm-serve", "--behavior", "bogus", "--port", "0"])
        assert exc.value.code == 2
        assert "invalid mock_behavior value: 'bogus'" in capsys.readouterr().err
