"""Command-line entry points.

Subcommands: gen-layout, run-trial, ga-train, run-grid, report, and
mock-llm-serve.  See README for examples.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from .core import Arena, DEFAULT_PARAMS, load_params, save_params
from .engine import POLICY_NAMES, TrialConfig, run_trial
from .gateway import MODES, REASONING_EFFORTS, GatewayConfig, MockLlmServer, mock_behavior
from .harness import (
    GridSpec,
    emit_boxplot_data,
    load_store,
    run_grid,
    standard_resource_count,
    summarize,
    write_summary_csv,
    write_summary_markdown,
)
from .layouts import (Distribution, LayoutError, LayoutSpec, generate, load_layout,
                      load_layout_spec, save_layout)
from .tuner import GaConfig, ga_run, save_history


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    default = GatewayConfig()
    parser.add_argument("--llm-mode", default=default.mode, choices=MODES)
    parser.add_argument("--llm-base-url", default=default.base_url)
    parser.add_argument("--llm-model", default=default.model_name)
    parser.add_argument("--llm-api-key-env", default=default.api_key_env)
    parser.add_argument("--llm-timeout", type=float, default=default.timeout)
    parser.add_argument("--llm-mock-behavior", default=default.mock_behavior, type=mock_behavior)
    parser.add_argument("--llm-cassette", default=default.cassette_path)
    parser.add_argument("--llm-reasoning-effort", default=default.reasoning_effort,
                        choices=REASONING_EFFORTS)
    parser.add_argument("--llm-max-output-tokens", type=int, default=default.max_output_tokens)


def _gateway_from_args(args) -> GatewayConfig:
    return GatewayConfig(
        base_url=args.llm_base_url,
        model_name=args.llm_model,
        api_key_env=args.llm_api_key_env,
        reasoning_effort=args.llm_reasoning_effort,
        max_output_tokens=args.llm_max_output_tokens,
        timeout=args.llm_timeout,
        mode=args.llm_mode,
        mock_behavior=args.llm_mock_behavior,
        cassette_path=args.llm_cassette,
    )


def _resource_count(args) -> int | None:
    """--count, else the standard count for --arena; None, after saying
    why on stderr, for a non-standard arena without --count."""
    if args.count is not None:
        return args.count
    try:
        return standard_resource_count(args.arena)
    except ValueError:
        print("--count is required for non-standard arena sizes", file=sys.stderr)
        return None


def _cmd_gen_layout(args) -> int:
    try:
        spec = LayoutSpec(Distribution(args.dist), args.count, Arena.square(args.arena),
                          seed=args.seed)
        field = generate(spec)
    except ValueError as exc:  # e.g. a clustered count not divisible by 4
        print(exc, file=sys.stderr)
        return 2
    save_layout(field, spec, args.out)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            writer.writerows((repr(float(x)), repr(float(y))) for x, y in field.positions)
    print(f"wrote {len(field)} points to {args.out}")
    return 0


def _cmd_run_trial(args) -> int:
    try:
        arena = Arena.square(args.arena)
        params = load_params(args.params) if args.params else DEFAULT_PARAMS
        resources = None
        if args.layout_file:
            # the file's header, not --dist/--count/--layout-seed, says what runs
            try:
                layout = load_layout_spec(args.layout_file)
            except LayoutError as exc:  # a layout file without a header
                print(exc, file=sys.stderr)
                return 1
            if layout.arena != arena:
                print(f"{args.layout_file}: its arena is not --arena {args.arena:g}",
                      file=sys.stderr)
                return 1
            resources = load_layout(args.layout_file)
        else:
            count = _resource_count(args)
            if count is None:
                return 1
            layout_seed = args.layout_seed if args.layout_seed is not None else args.seed
            layout = LayoutSpec(Distribution(args.dist), count, arena, seed=layout_seed)
        config = TrialConfig(
            arena=arena,
            team_size=args.team,
            layout=layout,
            params=params,
            policy=args.policy,
            duration=args.duration,
            seed=args.seed,
            gateway=_gateway_from_args(args) if args.policy == "llm" else None,
        )
    except OSError as exc:  # a missing parameter or layout file
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. a team of 0, or a count no layout of --dist can hold
        print(exc, file=sys.stderr)
        return 2
    result = run_trial(config, resources=resources)
    if args.log:
        with open(args.log, "wb") as fh:
            fh.write(result.log_bytes())
    print(json.dumps(result.report(), indent=2))
    return 0


def _ga_config(args, count: int) -> GaConfig:
    return GaConfig(
        population=args.population,
        generations=args.generations,
        trials_per_genome=args.trials,
        eval_duration=args.duration,
        team_size=args.team,
        arena_side=args.arena,
        resource_count=count,
        distribution=Distribution(args.dist),
        master_seed=args.seed,
        workers=args.workers,
    )


def _cmd_ga_train(args) -> int:
    count = _resource_count(args)
    if count is None:
        return 1
    try:
        config = _ga_config(args, count)
    except ValueError as exc:  # e.g. a population of 0, or a count no layout of --dist can hold
        print(exc, file=sys.stderr)
        return 2
    start = time.time()
    best, history = ga_run(config)
    save_params(best, args.out)
    if args.history:
        save_history(history, args.history)
    print(f"best fitness {history[-1].best_so_far:.2f} after {config.generations} generations "
          f"({time.time() - start:.1f}s); genome written to {args.out}")
    return 0


# grid.json keys and how each value is read; absent keys keep GridSpec's defaults.
GRID_SPEC_KEYS = {
    "team_sizes": tuple,
    "arena_sides": lambda sides: tuple(float(side) for side in sides),
    "distributions": tuple,
    "trials_per_cell": int,
    "duration": float,
    "policies": tuple,
    "master_seed": int,
}


def _load_grid_spec(args) -> GridSpec:
    overrides = {}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    kwargs = {key: read(overrides[key]) for key, read in GRID_SPEC_KEYS.items() if key in overrides}
    if args.policies:
        kwargs["policies"] = tuple(args.policies.split(","))
    params_file = args.params or overrides.get("params_file")
    if params_file:
        kwargs["params"] = load_params(params_file)
    spec = GridSpec(**kwargs)
    if "llm" in spec.policies:
        spec = dataclasses.replace(spec, gateway=_gateway_from_args(args))
    return spec


def _cmd_run_grid(args) -> int:
    try:
        spec = _load_grid_spec(args)
    except OSError as exc:  # a missing spec or parameter file
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. an unknown policy or a repeated axis entry
        print(exc, file=sys.stderr)
        return 2
    total = len(spec.cells()) * spec.trials_per_cell * len(spec.policies)
    done = {"n": 0}

    def progress(row):
        done["n"] += 1
        status = row.get("status")
        print(f"[{done['n']}] {row['key']}: "
              + (f"deposits={row['deposits']}" if status == "ok" else f"ERROR {row.get('error')}"))

    rows = run_grid(spec, args.out, parallelism=args.parallelism, progress=progress)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    failed = sum(1 for r in rows if r.get("status") == "error")
    print(f"grid complete: {ok}/{total} trials ok, {failed} failed; store at {args.out}")
    return 2 if failed else 0


def _cmd_report(args) -> int:
    rows = load_store(args.store)
    if not rows:
        print(f"no results found in {args.store}", file=sys.stderr)
        return 1
    summary = summarize(rows, args.baseline, args.candidate)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "summary.csv")
    md_path = os.path.join(args.out, "summary.md")
    write_summary_csv(summary, csv_path, args.baseline, args.candidate)
    write_summary_markdown(summary, md_path, args.baseline, args.candidate)
    boxplots = emit_boxplot_data(rows, args.out)
    print(f"{args.candidate} wins {summary.wins}/{summary.cells} cells")
    if summary.mean_relative_improvement is not None:
        print(f"mean relative improvement {100 * summary.mean_relative_improvement:+.1f}%, "
              f"mean absolute gain {summary.mean_absolute_gain:+.2f}")
    print(f"wrote {csv_path}, {md_path}, {len(boxplots)} boxplot CSVs")
    if summary.missing_cells:
        print(f"WARNING: {len(summary.missing_cells)} cells missing a policy", file=sys.stderr)
    return 0


def _cmd_mock_llm_serve(args) -> int:
    server = MockLlmServer(args.behavior, port=args.port).start()
    print(f"mock endpoint ({args.behavior}) listening on {server.base_url}")
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        server.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swarmforage")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-layout", help="generate a resource layout file")
    p.add_argument("--dist", required=True, choices=[d.value for d in Distribution])
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--arena", type=float, required=True, help="arena side length in meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also write scatter data as CSV")
    p.set_defaults(func=_cmd_gen_layout)

    p = sub.add_parser("run-trial", help="run one foraging trial")
    p.add_argument("--team", type=int, default=4)
    p.add_argument("--arena", type=float, default=6.0)
    p.add_argument("--dist", default="clustered", choices=[d.value for d in Distribution])
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--params", default=None, help="parameter file (ga-train output)")
    # a dataclass keeps each field's plain default as a class attribute
    p.add_argument("--policy", default=TrialConfig.policy, choices=POLICY_NAMES)
    p.add_argument("--duration", type=float, default=TrialConfig.duration)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout-seed", type=int, default=None)
    p.add_argument("--layout-file", default=None, help="reuse a generated layout file")
    p.add_argument("--log", default=None, help="write the JSONL event log here")
    _add_gateway_args(p)
    p.set_defaults(func=_cmd_run_trial)

    ga = GaConfig()
    p = sub.add_parser("ga-train", help="tune the seven parameters with the GA")
    p.add_argument("--population", type=int, default=ga.population)
    p.add_argument("--generations", type=int, default=ga.generations)
    p.add_argument("--trials", type=int, default=ga.trials_per_genome)
    p.add_argument("--duration", type=float, default=ga.eval_duration)
    p.add_argument("--team", type=int, default=ga.team_size)
    p.add_argument("--arena", type=float, default=ga.arena_side)
    p.add_argument("--dist", default=ga.distribution.value,
                   choices=[d.value for d in Distribution])
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=ga.master_seed)
    p.add_argument("--workers", type=int, default=ga.workers)
    p.add_argument("--out", required=True, help="best-genome parameter file")
    p.add_argument("--history", default=None, help="per-generation CSV")
    p.set_defaults(func=_cmd_ga_train)

    p = sub.add_parser("run-grid", help="run the experiment grid")
    p.add_argument("--spec", default=None, help="JSON file overriding grid fields")
    p.add_argument("--policies", default=None, help="comma-separated policy list")
    p.add_argument("--params", default=None)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_gateway_args(p)
    p.set_defaults(func=_cmd_run_grid)

    p = sub.add_parser("report", help="summarize a results store")
    p.add_argument("--store", required=True)
    p.add_argument("--baseline", default="cascade", choices=POLICY_NAMES)
    p.add_argument("--candidate", default="scripted", choices=POLICY_NAMES)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("mock-llm-serve", help="serve a local mock decision endpoint")
    p.add_argument("--behavior", default="scripted", type=mock_behavior)
    p.add_argument("--port", type=int, default=8080)
    p.set_defaults(func=_cmd_mock_llm_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
