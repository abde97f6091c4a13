"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload matrix|allocate|solve --seed N --seconds S --trace 0|1

With --trace 0 the workload sets up (timed from process start as
setup_s), runs whole rounds for about S seconds, checks every output and
reports the end-to-end metrics that every workload shares: setup_s,
ops_per_s (operations per second; an operation is a simulation, an
allocation or a solve) and peak_rss_mb (the process's peak resident
memory). With --trace 1 it sets up and runs one round with the package's
module-level names wrapped (see tracing.py), then one untraced round to
measure the tracing overhead, and reports the per-layer metrics. Either
way it prints exactly the metrics BENCHMARK.json lists for that mode, and
the last line of standard output is always
{"correct", "attempted", "failed", "metrics"}.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("matrix", "allocate", "solve")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_checkout()
    module = importlib.import_module(f"workload_{args.workload}")

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            workload = module.Workload(args.seed)
            start = time.perf_counter()
            workload.run_round()
            traced_wall = time.perf_counter() - start
        untraced_wall, extra = workload.traced_extras()
        tracer.write_spans(common.OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = tracer.layer_metrics()
        metrics["check.replayed_runs"] = (0, "count")
        metrics["check.phases_checked"] = (0, "count")
        metrics.update(extra)
        metrics["trace.traced_s"] = (traced_wall, "s")
        metrics["trace.untraced_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    else:
        workload = module.Workload(args.seed)
        setup_s = time.perf_counter() - PROCESS_START
        common.run_rounds(workload.run_round, args.seconds)
        metrics = workload.metrics()
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    expected = [m["name"] for m in common.manifest()["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        sys.stderr.write(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json's {sorted(expected)}\n")
        return 1
    problems = workload.check()
    for problem in problems[:50]:
        sys.stderr.write(f"check failed: {problem}\n")
    if hasattr(workload, "dir"):
        shutil.rmtree(workload.dir, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
