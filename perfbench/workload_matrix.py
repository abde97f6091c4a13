"""matrix: the paper's strategy comparison through the `bench` subcommand.

One round runs `areaguard bench --jobs 2` in-process on two configs:
the acceptance-matrix maps (rooms3, ruins3 and an islands stand-in drawn
from the seed) at ratios 1:1 and 1:10, both placements, all four
strategies, one run per cell (48 simulations); and the two-room chokepoint
map (44x12, one door, 50 attackers, ratios 1:10 and 1:25, separated
rectangles, six runs per cell, 48 simulations). One operation is one
simulation.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import multiprocessing
import os
import shutil
import time
from concurrent.futures import ProcessPoolExecutor

import checks
from areaguard import bench, cli, engine, scenarios
from common import OUT, TWO_ROOM, derive, grid_of, islands_map

ATTACKERS = 100
CHOKE_ATTACKERS = 50
TIME_LIMIT = 150


def _configs(seed: int) -> dict[str, dict]:
    room = {"kind": "rooms", "width": 44, "height": 44, "rooms_x": 3, "rooms_y": 3, "door_width": 1}
    return {
        "matrix": {
            "master_seed": derive(seed, "matrix"),
            "attackers": ATTACKERS,
            "time_limit": TIME_LIMIT,
            "runs": 1,
            "ratios": ["1:1", "1:10"],
            "placements": ["overlapped", "separated"],
            "strategies": ["random", "greedy", "strict-greedy", "bottleneck"],
            "maps": [
                {"name": "rooms3", "map": room},
                {"name": "ruins3", "map": {**room, "kind": "ruins", "damage_rate": 0.15, "jitter": 1}},
                {"name": "islands", "map": {"kind": "file", "path": "islands.map"}},
            ],
        },
        "chokepoint": {
            "master_seed": derive(seed, "chokepoint"),
            "attackers": CHOKE_ATTACKERS,
            "time_limit": TIME_LIMIT,
            "runs": 6,
            "ratios": ["1:10", "1:25"],
            "placements": ["separated"],
            "strategies": ["random", "greedy", "strict-greedy", "bottleneck"],
            "maps": [{"name": "tworoom", **TWO_ROOM}],
        },
    }


def _sims(doc: dict) -> int:
    return len(doc["maps"]) * len(doc["ratios"]) * len(doc["placements"]) * len(doc["strategies"]) * doc["runs"]


class Workload:
    def __init__(self, seed: int):
        self.bench_s = 0.0
        self.dir = OUT / f"matrix-{seed}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        (self.dir / "islands.map").write_text(islands_map(), encoding="ascii")
        self.configs = _configs(seed)
        for name, doc in self.configs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        self.outputs: list[dict[str, tuple[str, str]]] = []
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def run_bench(self, config: str, jobs: int, label: str) -> tuple[str, str] | None:
        out = self.dir / f"{config}-{label}"
        argv = ["bench", "--config", str(self.dir / f"{config}.json"), "-o", str(out), "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            return None
        texts = ((out / "runs.csv").read_text(encoding="utf-8"), (out / "aggregate.csv").read_text(encoding="utf-8"))
        shutil.rmtree(out)
        return texts

    def run_round(self, jobs: int = 2, label: str = "j2") -> None:
        outputs = {}
        for config, doc in self.configs.items():
            self.attempted += _sims(doc)
            start = time.perf_counter()
            texts = self.run_bench(config, jobs, label)
            self.bench_s += time.perf_counter() - start
            if texts is None:
                self.failed += _sims(doc)
            else:
                outputs[config] = texts
        self.outputs.append(outputs)

    def metrics(self) -> dict[str, tuple[float, str]]:
        done = self.attempted - self.failed
        return {"ops_per_s": (done / self.bench_s, "1/s")}

    # -------- checks --------

    def check(self) -> list[str]:
        problems = list(self.problems)
        first = self.outputs[0]
        for config, doc in self.configs.items():
            if config not in first:
                problems.append(f"{config}: bench exited with an error")
                continue
            rows = _rows(first[config][0])
            if len(rows) != _sims(doc):
                problems.append(f"{config}: {len(rows)} rows, expected {_sims(doc)}")
            problems += self._check_rows(config, rows)
            for later in self.outputs[1:]:
                if later.get(config, (None, None))[1] != first[config][1]:
                    problems.append(f"{config}: aggregate.csv differs between rounds (or between --jobs 2 and 1)")
        return problems

    def _check_rows(self, config: str, rows: list[dict]) -> list[str]:
        doc = self.configs[config]
        passable = {}
        problems = []
        for row in rows:
            key = (row["map"], row["ratio"], row["placement"], row["seed"])
            if key not in passable:
                passable[key] = grid_of(_instance(doc, self.dir, row)).passable_count
            where = f"{config} {row['map']} {row['ratio']} {row['placement']} {row['strategy']}"
            for problem in checks.check_bench_row(
                int(row["captured"]),
                int(row["obj2_uncaptured"]),
                int(row["obj3_sum_dist"]),
                int(row["obj4_time_at_targets"]),
                doc["attackers"],
                passable[key],
                doc["time_limit"],
            ):
                problems.append(f"{where}: {problem}")
            if config == "chokepoint" and row["strategy"] == "bottleneck" and row["captured"] != "0":
                problems.append(f"{where}: bottleneck let {row['captured']} attackers through the door")
        return problems

    # -------- traced mode extras --------

    def traced_extras(self) -> tuple[float, dict[str, tuple[float, str]]]:
        """--jobs 1 pass (untraced, timed; check() compares its aggregate.csv) and replay.

        Returns the untraced wall time and the replay's counts.
        """
        start = time.perf_counter()
        self.run_round(jobs=1, label="j1")
        untraced = time.perf_counter() - start
        traced_out = self.outputs[0]
        jobs = [(self.configs[c], self.dir, c, row) for c in self.configs if c in traced_out for row in _rows(traced_out[c][0])]
        # The replay is the slowest part of a traced run; two spawned
        # workers keep it well inside the time a run may take.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(2, os.cpu_count() or 1), mp_context=context) as pool:
            replays = list(pool.map(_replay, jobs, chunksize=4))
        for _, problems in replays:
            self.problems += problems
        return untraced, {
            "check.replayed_runs": (len(replays), "count"),
            "check.phases_checked": (sum(count for count, _ in replays), "count"),
        }


def _instance(doc: dict, map_dir, row: dict):
    bench_config = bench.config_from_json(doc)
    bench_map = next(m for m in bench_config.maps if m.name == row["map"])
    spec = bench.scenario_for(bench_config, bench_map, row["ratio"], row["placement"])
    return scenarios.generate_instance(spec, int(row["seed"]), map_dir)


def _replay(job) -> tuple[int, list[str]]:
    """Re-run one runs.csv row with keep_trace=True; check rules and recompute objectives."""
    doc, map_dir, config, row = job
    instance = _instance(doc, map_dir, row)
    seed = bench.derive_allocation_seed(int(row["seed"]), row["strategy"])
    result = engine.run_simulation(instance, row["strategy"], seed, keep_trace=True)
    agents = instance.attackers + instance.defenders
    trace = [(t, phase, tuple(cfg.positions[a] for a in agents)) for t, phase, cfg in result.trace]
    grid = grid_of(instance)
    targets = list(instance.attacker_targets)
    where = f"replay {config} {row['map']} {row['ratio']} {row['placement']} {row['strategy']}"
    problems = [
        f"{where}: {p}"
        for p in checks.check_phases(grid, instance.n_attackers, targets, [(ph, pos) for _, ph, pos in trace])
    ]
    m = result.metrics
    reported = (m.captured, m.uncaptured, m.sum_target_distance, m.time_at_targets)
    row_values = tuple(int(row[k]) for k in ("captured", "obj2_uncaptured", "obj3_sum_dist", "obj4_time_at_targets"))
    if reported != row_values:
        problems.append(f"{where}: replay gives {reported}, runs.csv has {row_values}")
    recomputed = checks.objectives(grid, instance.n_attackers, targets, instance.time_limit, trace)
    if recomputed != reported:
        problems.append(f"{where}: objectives recomputed as {recomputed}, program reports {reported}")
    return len(trace) - 1, problems


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
