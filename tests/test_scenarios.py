"""Map generation and agent placement tests."""
import importlib.util
import random
import statistics
from pathlib import Path

import pytest

from areaguard.grid import dump_map, load_map
from areaguard.scenarios import (
    GenerationError,
    MapSpec,
    Rect,
    ScenarioSpec,
    build_map,
    default_rects,
    generate_instance,
    generate_rooms_map,
    generate_ruins_map,
    spec_from_json,
)
from helpers import is_connected


def test_rect_cells_order_and_contains():
    rect = Rect(1, 2, 2, 2)
    assert list(rect.cells()) == [(1, 2), (2, 2), (1, 3), (2, 3)]


def test_empty_map():
    grid = build_map(MapSpec(kind="empty", width=5, height=4))
    assert grid.width == 5 and grid.height == 4
    assert grid.passable_count == 20


def test_two_room_wall_has_one_door():
    grid = generate_rooms_map(44, 12, rooms_x=2, rooms_y=1, door_width=1, seed=3)
    wall_x = 44 // 2
    column = [(wall_x, y) for y in range(12)]
    doors = [c for c in column if grid.is_passable(c)]
    assert len(doors) == 1
    assert all(grid.is_passable((x, y)) for x in range(44) for y in range(12) if x != wall_x)
    assert is_connected(grid)


def test_three_by_three_rooms_geometry():
    grid = generate_rooms_map(44, 44, rooms_x=3, rooms_y=3, door_width=1, seed=0)
    assert [14, 29] == [i * 44 // 3 for i in (1, 2)]
    for wall_x in (14, 29):
        doors = [y for y in range(44) if grid.is_passable((wall_x, y))]
        assert len(doors) == 3
        # One door inside each segment between crossings and borders.
        assert sum(1 for y in doors if y < 14) == 1
        assert sum(1 for y in doors if 14 < y < 29) == 1
        assert sum(1 for y in doors if y > 29) == 1
    for wall_y in (14, 29):
        doors = [x for x in range(44) if grid.is_passable((x, wall_y))]
        assert len(doors) == 3
    # Wall crossings stay blocked so doors never open diagonally.
    for cross in ((14, 14), (14, 29), (29, 14), (29, 29)):
        assert not grid.is_passable(cross)
    assert is_connected(grid)


def test_rooms_deterministic_and_seed_sensitive():
    layouts = set()
    for seed in range(10):
        a = generate_rooms_map(30, 20, 3, 2, door_width=2, seed=seed)
        b = generate_rooms_map(30, 20, 3, 2, door_width=2, seed=seed)
        assert a == b
        layouts.add(a.blocked)
        assert is_connected(a)
    assert len(layouts) > 1


def test_door_wider_than_segment_is_rejected():
    # Two rooms on a 4-tall map: the wall column is a single 4-cell segment.
    with pytest.raises(GenerationError):
        generate_rooms_map(10, 4, rooms_x=2, rooms_y=1, door_width=4, seed=0)
    generate_rooms_map(10, 4, rooms_x=2, rooms_y=1, door_width=3, seed=0)


@pytest.mark.parametrize("width, height", [(0, 0), (0, 5), (5, -1)])
def test_rooms_map_without_cells_is_rejected(width, height):
    with pytest.raises(GenerationError, match=f"got {width}x{height}"):
        generate_rooms_map(width, height, seed=0)


def test_ruins_without_damage_matches_rooms_exactly():
    for seed in range(5):
        rooms = generate_rooms_map(33, 21, 3, 2, door_width=1, seed=seed)
        ruins = generate_ruins_map(33, 21, 3, 2, door_width=1, damage_rate=0.0, jitter=0, seed=seed)
        assert dump_map(rooms) == dump_map(ruins)


def test_ruins_full_damage_clears_every_wall():
    grid = generate_ruins_map(20, 20, 2, 2, door_width=1, damage_rate=1.0, jitter=0, seed=7)
    assert grid.passable_count == 400


def test_ruins_damage_rate_statistics():
    base = generate_rooms_map(44, 44, 3, 3, door_width=1, seed=0)
    base_walls = len(base.blocked)
    assert base_walls == 160
    counts = []
    for seed in range(100):
        grid = generate_ruins_map(44, 44, 3, 3, door_width=1, damage_rate=0.2, jitter=0, seed=seed)
        counts.append(len(grid.blocked))
    mean = statistics.fmean(counts)
    assert abs(mean - 0.8 * base_walls) < 5.0


def test_ruins_stay_connected():
    rng = random.Random(5)
    for seed in range(30):
        damage = rng.uniform(0.05, 0.3)
        grid = generate_ruins_map(
            44, 44, 3, 3, door_width=1, damage_rate=damage, jitter=1, seed=seed
        )
        assert is_connected(grid)


def test_ruins_deterministic():
    a = generate_ruins_map(30, 30, 3, 3, door_width=1, damage_rate=0.15, jitter=2, seed=11)
    b = generate_ruins_map(30, 30, 3, 3, door_width=1, damage_rate=0.15, jitter=2, seed=11)
    assert a == b


def test_generate_instance_places_groups_in_bands():
    spec = ScenarioSpec(
        map=MapSpec(kind="empty", width=20, height=10),
        n_attackers=6,
        n_defenders=4,
        time_limit=50,
        placement="overlapped",
    )
    inst = generate_instance(spec, seed=4)
    assert inst.n_attackers == 6 and inst.n_defenders == 4
    cells = list(inst.attacker_starts) + list(inst.defender_starts) + list(inst.attacker_targets)
    assert len(set(cells)) == len(cells)
    assert all(x < 5 for x, _ in inst.attacker_starts)
    assert all(x < 5 for x, _ in inst.defender_starts)
    assert all(x >= 15 for x, _ in inst.attacker_targets)
    assert generate_instance(spec, seed=4) == inst
    assert generate_instance(spec, seed=5) != inst
    assert inst.metadata["placement"] == "overlapped"
    assert inst.time_limit == 50


def test_separated_defenders_hold_middle_band():
    spec = ScenarioSpec(
        map=MapSpec(kind="empty", width=20, height=10),
        n_attackers=3,
        n_defenders=3,
        time_limit=10,
        placement="separated",
    )
    inst = generate_instance(spec, seed=0)
    assert all(7 <= x < 12 for x, _ in inst.defender_starts)


def test_explicit_rect_overrides_band():
    spec = ScenarioSpec(
        map=MapSpec(kind="empty", width=20, height=10),
        n_attackers=2,
        n_defenders=2,
        time_limit=10,
        defender_rect=Rect(9, 9, 2, 1),
    )
    inst = generate_instance(spec, seed=1)
    assert sorted(inst.defender_starts) == [(9, 9), (10, 9)]


def test_band_overflow_is_an_error():
    spec = ScenarioSpec(
        map=MapSpec(kind="empty", width=8, height=2),
        n_attackers=5,
        n_defenders=0,
        time_limit=10,
    )
    with pytest.raises(GenerationError):
        generate_instance(spec, seed=0)


def test_file_map_kind(tmp_path):
    grid = generate_rooms_map(12, 8, 2, 1, door_width=1, seed=1)
    (tmp_path / "m.map").write_text(dump_map(grid))
    spec = ScenarioSpec(
        map=MapSpec(kind="file", path="m.map"),
        n_attackers=2,
        n_defenders=1,
        time_limit=10,
    )
    inst = generate_instance(spec, seed=2, base_dir=tmp_path)
    assert inst.world == grid


def test_default_rects_shape():
    grid = build_map(MapSpec(kind="empty", width=44, height=12))
    a, d, t = default_rects(grid, "separated")
    assert (a.x, a.width) == (0, 11)
    assert (t.x, t.width) == (33, 11)
    assert d.x == (44 - 11) // 2


def test_spec_json_round_trip():
    spec = ScenarioSpec(
        map=MapSpec(kind="ruins", width=30, height=20, rooms_x=3, rooms_y=2,
                    door_width=2, damage_rate=0.25, jitter=1),
        n_attackers=10,
        n_defenders=5,
        time_limit=100,
        placement="separated",
        target_rect=Rect(20, 0, 10, 20),
    )
    doc = {
        "map": {"kind": "ruins", "width": 30, "height": 20, "rooms_x": 3, "rooms_y": 2,
                "door_width": 2, "damage_rate": 0.25, "jitter": 1},
        "attackers": 10,
        "defenders": 5,
        "time_limit": 100,
        "placement": "separated",
        "target_rect": [20, 0, 10, 20],
    }
    assert spec_from_json(doc) == spec
    plain = ScenarioSpec(
        map=MapSpec(kind="file", path="maps/x.map"),
        n_attackers=1,
        n_defenders=1,
        time_limit=5,
    )
    doc = {"map": {"kind": "file", "path": "maps/x.map"}, "attackers": 1, "defenders": 1,
           "time_limit": 5, "placement": "overlapped"}
    assert spec_from_json(doc) == plain


def test_standin_script_reproduces_committed_maps():
    root = Path(__file__).resolve().parent.parent
    loader = importlib.util.spec_from_file_location(
        "make_standin_maps", root / "scripts" / "make_standin_maps.py"
    )
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    for name, grid in (("islands_standin.map", script.islands(101)),
                       ("scatter_standin.map", script.scatter(202))):
        assert dump_map(grid).encode("ascii") == (root / "maps" / name).read_bytes()


def test_committed_standin_maps_are_intact():
    maps_dir = Path(__file__).resolve().parent.parent / "maps"
    for name, free_cells in (("islands_standin.map", 1921), ("scatter_standin.map", 1922)):
        grid = load_map(maps_dir / name)
        assert grid.width == 48 and grid.height == 48
        assert grid.passable_count == free_cells
        assert is_connected(grid)


def test_spec_json_rejects_unknown_fields():
    with pytest.raises(GenerationError):
        spec_from_json({"map": {"kind": "moon"}, "attackers": 1, "defenders": 0, "time_limit": 1})
    with pytest.raises(GenerationError):
        spec_from_json(
            {
                "map": {"kind": "empty", "width": 4, "height": 4},
                "attackers": 1,
                "defenders": 0,
                "time_limit": 1,
                "placement": "diagonal",
            }
        )
