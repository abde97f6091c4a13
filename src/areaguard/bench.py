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

from areaguard.allocate import STRATEGIES
from areaguard.engine import run_simulation, timed_run
from areaguard.scenarios import (
    GenerationError,
    MapSpec,
    Rect,
    ScenarioSpec,
    _rect_from_json,
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
    parts = ratio.split(":")
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


def config_from_json(doc: dict) -> BenchConfig:
    maps = [
        BenchMap(
            name=entry["name"],
            map_spec=map_spec_from_json(entry["map"]),
            attacker_rect=_rect_from_json(entry.get("attacker_rect")),
            defender_rect=_rect_from_json(entry.get("defender_rect")),
            target_rect=_rect_from_json(entry.get("target_rect")),
        )
        for entry in doc["maps"]
    ]
    ratios = tuple(doc["ratios"])
    for ratio in ratios:
        parse_ratio(ratio)
    strategies = tuple(doc.get("strategies", STRATEGIES))
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    placements = tuple(doc["placements"])
    config = BenchConfig(
        master_seed=int(doc.get("master_seed", 0)),
        attackers=int(doc["attackers"]),
        time_limit=int(doc["time_limit"]),
        runs=int(doc["runs"]),
        maps=tuple(maps),
        ratios=ratios,
        placements=placements,
        strategies=strategies,
    )
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


def run_bench(config: BenchConfig, base_dir: str | Path = ".", jobs: int = 1) -> BenchOutput:
    """Run the whole matrix serially and collect both tables.

    The jobs parameter is accepted for interface stability; runs are
    deterministic and cheap enough that this implementation stays
    single-process.
    """
    del jobs
    run_rows: list[list[str]] = []
    aggregate_rows: list[list[str]] = []
    for bench_map in config.maps:
        for ratio in config.ratios:
            for placement in config.placements:
                spec = scenario_for(config, bench_map, ratio, placement)
                per_strategy: dict[str, list[int]] = {s: [] for s in config.strategies}
                for run_index in range(config.runs):
                    instance_seed = derive_instance_seed(
                        config.master_seed, bench_map.name, ratio, placement, run_index
                    )
                    try:
                        instance = generate_instance(spec, instance_seed, base_dir)
                    except GenerationError as err:
                        raise GenerationError(
                            f"map {bench_map.name!r} {ratio} {placement}: {err}"
                        ) from err
                    for strategy in config.strategies:
                        seed = derive_allocation_seed(instance_seed, strategy)
                        result, wall_ms = timed_run(instance, strategy, seed)
                        per_strategy[strategy].append(result.metrics.captured)
                        run_rows.append(
                            [
                                bench_map.name,
                                ratio,
                                placement,
                                strategy,
                                str(instance_seed),
                                str(result.metrics.captured),
                                str(result.metrics.uncaptured),
                                str(result.metrics.sum_target_distance),
                                str(result.metrics.time_at_targets),
                                f"{wall_ms:.3f}",
                            ]
                        )
                for strategy in config.strategies:
                    counts = per_strategy[strategy]
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
