"""Benchmark matrix tests: seed derivation, tables, determinism."""
import statistics

import pytest

from areaguard.bench import (
    AGGREGATE_HEADER,
    RUN_HEADER,
    config_from_json,
    defenders_for,
    derive_allocation_seed,
    derive_instance_seed,
    parse_ratio,
    run_bench,
    scenario_for,
    timeseries_table,
)
from areaguard.engine import run_simulation
from areaguard.grid import dump_map
from areaguard.scenarios import generate_instance, generate_rooms_map

SMALL_CONFIG = {
    "master_seed": 7,
    "attackers": 4,
    "time_limit": 30,
    "runs": 2,
    "ratios": ["1:2"],
    "placements": ["overlapped", "separated"],
    "maps": [{"name": "open", "map": {"kind": "empty", "width": 12, "height": 6}}],
}


def test_parse_ratio():
    assert parse_ratio("1:1") == 1
    assert parse_ratio("1:10") == 10
    for bad in ("2:1", "1:0", "1:x", "1", "1:2:3"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_defenders_for():
    assert defenders_for(100, "1:1") == 100
    assert defenders_for(100, "1:2") == 50
    assert defenders_for(100, "1:10") == 10
    # Never fewer than one defender.
    assert defenders_for(4, "1:10") == 1


def test_seed_derivation_pins():
    # Regression pins so CSVs stay reproducible across releases.
    s = derive_instance_seed(7, "m", "1:2", "separated", 0)
    assert s == 5051991101223502395
    assert derive_allocation_seed(s, "random") == 12240757043064245561
    assert derive_allocation_seed(s, "bottleneck") == 4246776500431941724


def test_instance_seed_ignores_strategy_but_varies_elsewhere():
    base = derive_instance_seed(1, "a", "1:2", "overlapped", 0)
    assert derive_instance_seed(1, "a", "1:2", "overlapped", 1) != base
    assert derive_instance_seed(1, "b", "1:2", "overlapped", 0) != base
    assert derive_instance_seed(1, "a", "1:1", "overlapped", 0) != base
    assert derive_instance_seed(1, "a", "1:2", "separated", 0) != base
    assert derive_instance_seed(2, "a", "1:2", "overlapped", 0) != base
    assert derive_allocation_seed(base, "random") != derive_allocation_seed(base, "greedy")


def test_config_parsing_defaults_and_errors():
    config = config_from_json(SMALL_CONFIG)
    assert config.strategies == ("random", "greedy", "strict-greedy", "bottleneck")
    assert config.maps[0].name == "open"
    bad = dict(SMALL_CONFIG, strategies=["psychic"])
    with pytest.raises(ValueError):
        config_from_json(bad)
    bad = dict(SMALL_CONFIG, ratios=["2:1"])
    with pytest.raises(ValueError):
        config_from_json(bad)
    bad = dict(SMALL_CONFIG, runs=0)
    with pytest.raises(ValueError):
        config_from_json(bad)
    bad = dict(SMALL_CONFIG, maps=[{"name": "x", "map": {"kind": "maze"}}])
    with pytest.raises(ValueError, match="unknown map kind"):
        config_from_json(bad)


def test_headers_are_pinned():
    assert RUN_HEADER == (
        "map,ratio,placement,strategy,seed,captured,obj2_uncaptured,"
        "obj3_sum_dist,obj4_time_at_targets,wall_ms"
    )
    assert AGGREGATE_HEADER == "map,ratio,placement,strategy,runs,mean_captured,min,max,stddev"


def test_run_bench_table_shape_and_determinism():
    config = config_from_json(SMALL_CONFIG)
    first = run_bench(config)
    again = run_bench(config)
    # 1 map x 1 ratio x 2 placements x 4 strategies x 2 runs
    assert len(first.run_rows) == 16
    assert len(first.aggregate_rows) == 8
    # The aggregate table is byte-identical on reruns; per-run rows agree
    # everywhere except the wall-clock column.
    assert first.aggregate_csv() == again.aggregate_csv()
    assert [row[:-1] for row in first.run_rows] == [row[:-1] for row in again.run_rows]
    # All strategies of one run share the instance seed.
    for base in range(0, 16, 4):
        seeds = {first.run_rows[base + i][4] for i in range(4)}
        assert len(seeds) == 1
    csv_text = first.run_csv()
    assert csv_text.startswith(RUN_HEADER + "\n")
    assert csv_text.endswith("\n")


def test_aggregate_row_matches_recomputed_stats():
    config = config_from_json(SMALL_CONFIG)
    output = run_bench(config)
    row = output.aggregate_rows[0]
    key = tuple(row[:4])
    captured = [
        int(r[5]) for r in output.run_rows if tuple(r[:4]) == key
    ]
    assert row[4] == str(len(captured)) == "2"
    assert row[5] == f"{statistics.fmean(captured):.4f}"
    assert row[6] == str(min(captured))
    assert row[7] == str(max(captured))
    assert row[8] == f"{statistics.pstdev(captured):.4f}"


def test_bench_rows_match_direct_simulation():
    config = config_from_json(SMALL_CONFIG)
    output = run_bench(config)
    row = output.run_rows[5]
    map_name, ratio, placement, strategy = row[:4]
    run_index = 1  # rows 4..7 are the second run of the first placement
    assert int(row[4]) == derive_instance_seed(7, map_name, ratio, placement, run_index)
    spec = scenario_for(config, config.maps[0], ratio, placement)
    instance = generate_instance(spec, int(row[4]))
    result = run_simulation(
        instance, strategy, derive_allocation_seed(int(row[4]), strategy)
    )
    assert int(row[5]) == result.metrics.captured
    assert int(row[6]) == result.metrics.uncaptured
    assert int(row[7]) == result.metrics.sum_target_distance
    assert int(row[8]) == result.metrics.time_at_targets


def test_file_map_in_config(tmp_path):
    grid = generate_rooms_map(16, 8, 2, 1, door_width=1, seed=4)
    (tmp_path / "two_rooms.map").write_text(dump_map(grid))
    doc = dict(
        SMALL_CONFIG,
        maps=[{"name": "tr", "map": {"kind": "file", "path": "two_rooms.map"}}],
        strategies=["greedy"],
    )
    output = run_bench(config_from_json(doc), base_dir=tmp_path)
    assert len(output.run_rows) == 4
    assert all(row[0] == "tr" for row in output.run_rows)


def test_timeseries_table():
    config = config_from_json(SMALL_CONFIG)
    table = timeseries_table(config, "open", "1:2", "overlapped", run_index=0)
    lines = table.strip().split("\n")
    assert lines[0] == "step,random,greedy,strict-greedy,bottleneck"
    assert len(lines) == 1 + 30
    for column in range(1, 5):
        values = [int(line.split(",")[column]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(values, values[1:]))
    # The last row equals each strategy's final capture count.
    instance_seed = derive_instance_seed(7, "open", "1:2", "overlapped", 0)
    spec = scenario_for(config, config.maps[0], "1:2", "overlapped")
    instance = generate_instance(spec, instance_seed)
    final = lines[-1].split(",")
    for column, strategy in enumerate(config.strategies, start=1):
        result = run_simulation(
            instance, strategy, derive_allocation_seed(instance_seed, strategy)
        )
        assert int(final[column]) == result.metrics.captured


def test_timeseries_rejects_unknown_case():
    config = config_from_json(SMALL_CONFIG)
    with pytest.raises(ValueError):
        timeseries_table(config, "nope", "1:2", "overlapped")
    with pytest.raises(ValueError):
        timeseries_table(config, "open", "1:3", "overlapped")
