"""Time pinned simulation workloads and write the medians to a BENCH_*.json file.

Usage:

    python3 scripts/perf.py --out BENCH_new.json [--runs 5] [--tree LABEL=SRC_DIR ...]

Each --tree names a package source directory (one holding areaguard/) and
the label its numbers go under; the default is this checkout's src/ as
"checkout". Every sample runs in a fresh interpreter with that directory on
PYTHONPATH, and the trees take turns, so a machine whose speed drifts
over a minute slows every tree alike. The file records every sample and
its median, in seconds. Stdlib only.

The workloads are pinned: nothing in them depends on the clock or on an
argument.

- criterion10: the 64x64 rooms instance of acceptance criterion 10 (3x3
  rooms, doors of width 2, 100 attackers against 100 defenders, separated,
  150 rounds, instance seed 42), played once with the greedy strategy,
  allocation included, as the acceptance test times it.
- matrix_cells: one serial simulation per cell of the acceptance matrix
  (rooms3, ruins3 and the islands stand-in; ratios 1:1, 1:2 and 1:10;
  both placements; all four strategies: 72 simulations), instance
  generation included, through run_bench with one job.
- solve: the exact solver on the reduction of the false formula
  "forall x1. (x1)" (23 nodes, 369,262 states), then on the eight
  hand-solved micro games of acceptance criterion 7, each solved once.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("criterion10", "matrix_cells", "solve")

ROOMS44 = {"kind": "rooms", "width": 44, "height": 44, "rooms_x": 3, "rooms_y": 3, "door_width": 1}
MATRIX_CELLS = {
    "master_seed": 977,
    "attackers": 100,
    "time_limit": 150,
    "runs": 1,
    "ratios": ["1:1", "1:2", "1:10"],
    "placements": ["overlapped", "separated"],
    "strategies": ["random", "greedy", "strict-greedy", "bottleneck"],
    "maps": [
        {"name": "rooms3", "map": ROOMS44},
        {"name": "ruins3", "map": {**ROOMS44, "kind": "ruins", "damage_rate": 0.15, "jitter": 1}},
        {"name": "islands", "map": {"kind": "file", "path": "maps/islands_standin.map"}},
    ],
}

# Acceptance criterion 7's games on open grids: (width, height), attacker
# starts, targets, defender starts.
MICRO_GAMES = [
    ((4, 1), [(0, 0)], [(3, 0)], []),
    ((4, 1), [(0, 0)], [(3, 0)], [(3, 0)]),
    ((6, 1), [(0, 0)], [(5, 0)], [(3, 0)]),
    ((4, 1), [(1, 0)], [(3, 0)], [(0, 0)]),
    ((3, 1), [(0, 0)], [(0, 0)], [(2, 0)]),
    ((2, 2), [(0, 0)], [(1, 1)], [(1, 0)]),
    ((7, 1), [(0, 0)], [(3, 0)], [(6, 0)]),
    ((3, 2), [(0, 0)], [(2, 0)], [(1, 0), (1, 1)]),
]


def _sample(workload: str) -> float:
    """Seconds one run of workload takes with the areaguard found on sys.path."""
    if workload == "criterion10":
        from areaguard.bench import derive_allocation_seed
        from areaguard.engine import run_simulation
        from areaguard.scenarios import MapSpec, ScenarioSpec, generate_instance

        spec = ScenarioSpec(
            map=MapSpec(kind="rooms", width=64, height=64, rooms_x=3, rooms_y=3, door_width=2),
            n_attackers=100,
            n_defenders=100,
            time_limit=150,
            placement="separated",
        )
        instance = generate_instance(spec, 42)
        start = time.perf_counter()
        run_simulation(instance, "greedy", derive_allocation_seed(42, "greedy"))
        return time.perf_counter() - start
    if workload == "solve":
        from areaguard.grid import GridMap
        from areaguard.model import Instance
        from areaguard.qbf import parse_qdimacs, reduce_to_instance
        from areaguard.solver import solve_decision_game

        games = [reduce_to_instance(parse_qdimacs("p cnf 1 1\na 1 0\n1 0\n"))] + [
            Instance(
                world=GridMap(*size),
                attacker_starts=tuple(attackers),
                attacker_targets=tuple(targets),
                defender_starts=tuple(defenders),
                time_limit=1,
            )
            for size, attackers, targets, defenders in MICRO_GAMES
        ]
        start = time.perf_counter()
        for instance in games:
            solve_decision_game(instance)
        return time.perf_counter() - start
    from areaguard.bench import config_from_json, run_bench

    config = config_from_json(MATRIX_CELLS)
    start = time.perf_counter()
    run_bench(config, base_dir=ROOT, jobs=1)
    return time.perf_counter() - start


def _run_sample(src: Path, workload: str) -> float:
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--sample", workload],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout)


def _tree(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR, got {text!r}")
    path = Path(src).resolve()
    if not (path / "areaguard" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no areaguard package under {path}")
    return label, path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="BENCH_*.json file to write")
    parser.add_argument("--runs", type=int, default=5, help="samples per workload and tree")
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=SRC_DIR (repeatable)")
    parser.add_argument("--sample", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.sample:
        print(_sample(args.sample))
        return 0
    if args.out is None or args.runs < 1:
        parser.error("--out is required and --runs must be at least 1")
    trees = dict(args.tree or [("checkout", ROOT / "src")])
    samples = {label: {w: [] for w in WORKLOADS} for label in trees}
    for run in range(args.runs):
        # Alternate which tree goes first.
        order = list(trees.items())
        if run % 2:
            order.reverse()
        for workload in WORKLOADS:
            for label, src in order:
                seconds = _run_sample(src, workload)
                samples[label][workload].append(seconds)
                print(f"run {run + 1}/{args.runs} {workload} {label}: {seconds:.3f} s", file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "runs": args.runs,
        "unit": "s",
        "trees": {
            label: {
                w: {"median": round(statistics.median(v), 4), "samples": [round(x, 4) for x in v]}
                for w, v in per_tree.items()
            }
            for label, per_tree in samples.items()
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
