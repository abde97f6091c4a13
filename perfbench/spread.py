"""Run workloads repeatedly and show each metric's spread against its bound.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Without --workload it runs the workloads BENCHMARK.json lists; --workload
also takes `allocate`, which run.py keeps outside the manifest.

Each run is a separate process, `run.py --workload W --seed S --seconds
<run_seconds> --trace 0`, with seeds first-seed, first-seed + 1, ... For
every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) as a
share of the median, and that metric's bound from BENCHMARK.json. A
spread above a third of its bound is flagged; setup_s is reported but,
being one cold set-up per run, is judged by its median alone.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    known = sorted(path.stem.removeprefix("workload_") for path in HERE.glob("workload_*.py"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=known)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    ok = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            proc = subprocess.run(cmd + ["--seconds", seconds, "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above a third of the bound"
            ok &= not flag
            print(f"  {name:22s} median {median:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f}  bound {bound:.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
