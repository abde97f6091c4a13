"""Command line front end.

Subcommands: gen (scenario spec to instance), run (simulate one instance),
bench (full experiment matrix to CSV), timeseries (per-round capture
counts), qbf2app (QDIMACS to graph instance), solve (exact decision game).
Seeds resolve from --seed, then the APP_SEED environment variable, then 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from areaguard.allocate import STRATEGIES
from areaguard.bench import config_from_json, run_bench, timeseries_table
from areaguard.engine import result_to_json, run_simulation
from areaguard.model import load_instance, save_instance
from areaguard.qbf import load_qdimacs, reduce_to_instance
from areaguard.scenarios import generate_instance, spec_from_json
from areaguard.solver import solve_decision_game


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("APP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"APP_SEED must be an integer, got {env!r}") from None
    return 0


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_gen(args) -> int:
    doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    spec = spec_from_json(doc)
    seed = _resolve_seed(args.seed)
    instance = generate_instance(spec, seed, base_dir=Path(args.spec).parent)
    save_instance(instance, args.out)
    return 0


def _node_json(node):
    return list(node) if isinstance(node, tuple) else node


def _cmd_run(args) -> int:
    instance = load_instance(args.instance)
    seed = _resolve_seed(args.seed)
    result = run_simulation(
        instance,
        strategy=args.strategy,
        seed=seed,
        keep_trace=args.trace,
        audit=args.audit,
    )
    doc = result_to_json(result)
    if args.trace:
        doc["trace"] = [
            {
                "round": step,
                "phase": phase,
                "positions": {a.label: _node_json(c) for a, c in sorted(cfg.positions.items())},
            }
            for step, phase, cfg in result.trace
        ]
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_bench(args) -> int:
    config_path = Path(args.config)
    config = config_from_json(json.loads(config_path.read_text(encoding="utf-8")))
    output = run_bench(config, base_dir=config_path.parent, jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "runs.csv").write_text(output.run_csv(), encoding="utf-8")
    (out_dir / "aggregate.csv").write_text(output.aggregate_csv(), encoding="utf-8")
    sys.stdout.write(f"wrote {out_dir / 'runs.csv'} and {out_dir / 'aggregate.csv'}\n")
    return 0


def _cmd_timeseries(args) -> int:
    config_path = Path(args.config)
    config = config_from_json(json.loads(config_path.read_text(encoding="utf-8")))
    table = timeseries_table(
        config,
        map_name=args.map,
        ratio=args.ratio,
        placement=args.placement,
        run_index=args.run,
        base_dir=config_path.parent,
    )
    _emit(table, args.out)
    return 0


def _cmd_qbf2app(args) -> int:
    instance = reduce_to_instance(load_qdimacs(args.formula))
    save_instance(instance, args.out)
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    result = solve_decision_game(instance, state_budget=args.budget)
    doc = {
        "winner": result.winner.name.lower(),
        "states": result.states,
        "bound": result.bound,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areaguard", description="Area protection simulator and tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance from a scenario spec")
    gen.add_argument("--spec", required=True, help="scenario spec JSON file")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--out", required=True, help="instance JSON to write")
    gen.set_defaults(func=_cmd_gen)

    run = sub.add_parser("run", help="simulate one instance")
    run.add_argument("--instance", required=True, help="instance JSON file")
    run.add_argument("--strategy", default="bottleneck", choices=STRATEGIES)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--trace", action="store_true", help="include per-phase positions")
    run.add_argument("--audit", action="store_true", help="re-check every phase against the rules")
    run.add_argument("-o", "--out", default=None)
    run.set_defaults(func=_cmd_run)

    bench = sub.add_parser("bench", help="run an experiment matrix")
    bench.add_argument("--config", required=True, help="bench config JSON file")
    bench.add_argument("-o", "--out", required=True, help="output directory")
    bench.add_argument("--jobs", type=int, default=1)
    bench.set_defaults(func=_cmd_bench)

    ts = sub.add_parser("timeseries", help="cumulative captures per round")
    ts.add_argument("--config", required=True)
    ts.add_argument("--map", required=True)
    ts.add_argument("--ratio", required=True)
    ts.add_argument("--placement", required=True)
    ts.add_argument("--run", type=int, default=0)
    ts.add_argument("-o", "--out", default=None)
    ts.set_defaults(func=_cmd_timeseries)

    qbf = sub.add_parser("qbf2app", help="reduce a QDIMACS formula to an instance")
    qbf.add_argument("formula", help="QDIMACS file")
    qbf.add_argument("-o", "--out", required=True, help="instance JSON to write")
    qbf.set_defaults(func=_cmd_qbf2app)

    solve = sub.add_parser("solve", help="solve the exact decision game")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--budget", type=int, default=5_000_000)
    solve.add_argument("-o", "--out", default=None)
    solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
