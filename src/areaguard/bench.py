"""Benchmark matrices: maps x ratios x placements x strategies x runs.

Every run's instance seed is derived by hashing the master seed with the
map name, ratio, placement, and run index, deliberately leaving the
strategy out: all strategies face byte-for-byte identical instances. The
allocation seed folds the strategy name into the instance seed so seeded
strategies stay decorrelated across columns. Wall-clock time appears only
in the per-run table, which keeps the aggregate table byte-identical on
every rerun of the same config.
"""
from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from areaguard.allocate import STRATEGIES
from areaguard.engine import Metrics, run_simulation, timed_run
from areaguard.model import REQUIRED, read_json_object
from areaguard.scenarios import (
    PLACEMENTS,
    RECT_FIELDS,
    GenerationError,
    MapSpec,
    Rect,
    ScenarioSpec,
    generate_instance,
    map_spec_from_json,
)

RUN_HEADER = (
    "map,ratio,placement,strategy,seed,captured,obj2_uncaptured,"
    "obj3_sum_dist,obj4_time_at_targets,wall_ms"
)
AGGREGATE_HEADER = "map,ratio,placement,strategy,runs,mean_captured,min,max,stddev"
TIMESERIES_STEP_HEADER = "step"


def _digest_seed(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def derive_instance_seed(
    master_seed: int, map_name: str, ratio: str, placement: str, run_index: int
) -> int:
    """Strategy-independent, so every strategy replays the same instance."""
    return _digest_seed(f"{master_seed}|{map_name}|{ratio}|{placement}|{run_index}")


def derive_allocation_seed(instance_seed: int, strategy: str) -> int:
    return _digest_seed(f"{instance_seed}|{strategy}")


def parse_ratio(ratio: str) -> int:
    """A ratio '1:k' means one defender per k attackers."""
    parts = ratio.split(":") if isinstance(ratio, str) else []
    if len(parts) != 2 or parts[0] != "1" or not parts[1].isdigit() or int(parts[1]) < 1:
        raise ValueError(f"ratio must look like '1:k' with k >= 1, got {ratio!r}")
    return int(parts[1])


def defenders_for(attackers: int, ratio: str) -> int:
    return max(1, attackers // parse_ratio(ratio))


@dataclass(frozen=True)
class BenchMap:
    name: str
    map_spec: MapSpec
    attacker_rect: Rect | None = None
    defender_rect: Rect | None = None
    target_rect: Rect | None = None


@dataclass(frozen=True)
class BenchConfig:
    master_seed: int
    attackers: int
    time_limit: int
    runs: int
    maps: tuple[BenchMap, ...]
    ratios: tuple[str, ...]
    placements: tuple[str, ...]
    strategies: tuple[str, ...] = field(default=tuple(STRATEGIES))


_CONFIG_FIELDS = (
    ("master_seed", int, 0),
    ("attackers", int, REQUIRED),
    ("time_limit", int, REQUIRED),
    ("runs", int, REQUIRED),
    ("maps", tuple, REQUIRED),
    ("ratios", tuple, REQUIRED),
    ("placements", tuple, REQUIRED),
    ("strategies", tuple, STRATEGIES),
)
_MAP_FIELDS = (("name", str, REQUIRED), ("map", map_spec_from_json, REQUIRED), *RECT_FIELDS)


def config_from_json(doc: dict) -> BenchConfig:
    where = "bench config"
    fields = read_json_object(doc, where, _CONFIG_FIELDS)
    maps: list[BenchMap] = []
    for i, entry in enumerate(fields["maps"]):
        at = f"{where} map {i}"
        bench_map = read_json_object(entry, at, _MAP_FIELDS)
        # The name is a column of the CSV tables and a seed input.
        name = bench_map.pop("name")
        if any(c in name for c in ",\r\n"):
            raise ValueError(f"{at} 'name' must contain no comma or line break, got {name!r}")
        if any(m.name == name for m in maps):
            raise ValueError(f"{at} 'name' {name!r} is already taken by an earlier map")
        maps.append(BenchMap(name, map_spec=bench_map.pop("map"), **bench_map))
    for ratio in fields["ratios"]:
        parse_ratio(ratio)
    for placement in fields["placements"]:
        if placement not in PLACEMENTS:
            raise GenerationError(f"unknown placement {placement!r}")
    for strategy in fields["strategies"]:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    # A repeated entry would play its simulations again under the same name.
    for key in ("ratios", "placements", "strategies"):
        values = fields[key]
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{where} {key!r} repeats {value!r}")
    config = BenchConfig(**{**fields, "maps": tuple(maps)})
    if config.attackers < 1 or config.runs < 1 or config.time_limit < 1:
        raise ValueError("attackers, runs and time_limit must all be positive")
    return config


def scenario_for(config: BenchConfig, bench_map: BenchMap, ratio: str, placement: str) -> ScenarioSpec:
    return ScenarioSpec(
        map=bench_map.map_spec,
        n_attackers=config.attackers,
        n_defenders=defenders_for(config.attackers, ratio),
        time_limit=config.time_limit,
        placement=placement,
        attacker_rect=bench_map.attacker_rect,
        defender_rect=bench_map.defender_rect,
        target_rect=bench_map.target_rect,
    )


@dataclass
class BenchOutput:
    run_rows: list[list[str]]
    aggregate_rows: list[list[str]]

    def run_csv(self) -> str:
        return "\n".join([RUN_HEADER] + [",".join(row) for row in self.run_rows]) + "\n"

    def aggregate_csv(self) -> str:
        return (
            "\n".join([AGGREGATE_HEADER] + [",".join(row) for row in self.aggregate_rows]) + "\n"
        )


class SimTask(NamedTuple):
    """One simulation of the matrix, small enough to send to a worker.

    Whoever plays the task regenerates its instance from (spec,
    instance_seed, base_dir), so with worker processes the process that
    merges the rows never builds or holds an instance. label names the
    cell in error messages.
    """

    spec: ScenarioSpec
    instance_seed: int
    base_dir: str | Path
    strategy: str
    label: str


def simulate(task: SimTask) -> tuple[Metrics, float]:
    """Generate the task's instance, play it once and return (metrics, wall_ms)."""
    try:
        instance = generate_instance(task.spec, task.instance_seed, task.base_dir)
    except GenerationError as err:
        raise GenerationError(f"{task.label}: {err}") from err
    seed = derive_allocation_seed(task.instance_seed, task.strategy)
    result, wall_ms = timed_run(instance, task.strategy, seed)
    return result.metrics, wall_ms


def run_bench(config: BenchConfig, base_dir: str | Path = ".", jobs: int = 1) -> BenchOutput:
    """Run the whole matrix and collect both tables.

    Every simulation is one SimTask. With jobs > 1 up to jobs of them run
    at once in spawned worker processes; results are merged in config
    order, so both tables are the same for every jobs value apart from
    the wall_ms column, which is measured inside the worker and so
    includes CPU contention.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cells = [
        (bench_map, ratio, placement)
        for bench_map in config.maps
        for ratio in config.ratios
        for placement in config.placements
    ]
    tasks: list[SimTask] = []
    for bench_map, ratio, placement in cells:
        spec = scenario_for(config, bench_map, ratio, placement)
        label = f"map {bench_map.name!r} {ratio} {placement}"
        for run_index in range(config.runs):
            instance_seed = derive_instance_seed(
                config.master_seed, bench_map.name, ratio, placement, run_index
            )
            tasks += [
                SimTask(spec, instance_seed, base_dir, strategy, label)
                for strategy in config.strategies
            ]
    workers = min(jobs, len(tasks))
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        try:
            results = list(pool.map(simulate, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = list(map(simulate, tasks))

    run_rows: list[list[str]] = []
    aggregate_rows: list[list[str]] = []
    done = list(zip(tasks, results))
    width = config.runs * len(config.strategies)
    for index, (bench_map, ratio, placement) in enumerate(cells):
        cell = done[index * width : (index + 1) * width]
        for task, (metrics, wall_ms) in cell:
            run_rows.append(
                [
                    bench_map.name,
                    ratio,
                    placement,
                    task.strategy,
                    str(task.instance_seed),
                    str(metrics.captured),
                    str(metrics.uncaptured),
                    str(metrics.sum_target_distance),
                    str(metrics.time_at_targets),
                    f"{wall_ms:.3f}",
                ]
            )
        for offset, strategy in enumerate(config.strategies):
            counts = [metrics.captured for _, (metrics, _) in cell[offset :: len(config.strategies)]]
            aggregate_rows.append(
                [
                    bench_map.name,
                    ratio,
                    placement,
                    strategy,
                    str(len(counts)),
                    f"{statistics.fmean(counts):.4f}",
                    str(min(counts)),
                    str(max(counts)),
                    f"{statistics.pstdev(counts):.4f}",
                ]
            )
    return BenchOutput(run_rows=run_rows, aggregate_rows=aggregate_rows)


def timeseries_table(
    config: BenchConfig,
    map_name: str,
    ratio: str,
    placement: str,
    run_index: int = 0,
    base_dir: str | Path = ".",
) -> str:
    """Cumulative captures per round, one column per strategy, as CSV."""
    bench_map = next((m for m in config.maps if m.name == map_name), None)
    if bench_map is None:
        raise ValueError(f"no map named {map_name!r} in the config")
    if ratio not in config.ratios or placement not in config.placements:
        raise ValueError(f"{ratio!r}/{placement!r} not part of the config")
    if not 0 <= run_index < config.runs:
        raise ValueError(
            f"run index {run_index} is outside 0..{config.runs - 1} (runs is {config.runs})"
        )
    spec = scenario_for(config, bench_map, ratio, placement)
    instance_seed = derive_instance_seed(
        config.master_seed, map_name, ratio, placement, run_index
    )
    instance = generate_instance(spec, instance_seed, base_dir)
    columns: dict[str, list[int]] = {}
    for strategy in config.strategies:
        seed = derive_allocation_seed(instance_seed, strategy)
        result = run_simulation(instance, strategy, seed)
        cumulative = []
        total = 0
        arrivals = sorted(result.captured.values())
        for step in range(1, config.time_limit + 1):
            while arrivals and arrivals[0] == step:
                arrivals.pop(0)
                total += 1
            cumulative.append(total)
        columns[strategy] = cumulative
    header = ",".join([TIMESERIES_STEP_HEADER] + list(config.strategies))
    lines = [header]
    for step in range(1, config.time_limit + 1):
        row = [str(step)] + [str(columns[s][step - 1]) for s in config.strategies]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
