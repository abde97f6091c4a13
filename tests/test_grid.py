"""Map parsing and search primitives."""
from __future__ import annotations

import random

import pytest

from areaguard.grid import (
    GridMap,
    MapFormatError,
    bfs_distances,
    dump_map,
    obstacle_components,
    parse_map,
    shortest_path,
)
from helpers import brute_force_shortest, enumerate_walks, grid_from_rows, random_grid

MAP_TEXT = """type octile
height 3
width 5
map
.....
..@..
...T.
"""


def test_parse_map_basic():
    grid = parse_map(MAP_TEXT)
    assert grid.width == 5
    assert grid.height == 3
    assert grid.blocked == {(2, 1), (3, 2)}
    assert grid.is_passable((0, 0))
    assert not grid.is_passable((2, 1))
    assert not grid.is_passable((-1, 0))
    assert grid.passable_count == 13


def test_parse_accepts_all_terrain_chars():
    grid = parse_map("type octile\nheight 1\nwidth 6\nmap\n.G@OTW\n")
    assert grid.blocked == {(2, 0), (3, 0), (4, 0), (5, 0)}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("type quad\nheight 1\nwidth 1\nmap\n.\n", "unsupported map type"),
        ("height 1\nwidth 1\nmap\n.\n", "expected 'type"),
        ("type octile\nheight x\nwidth 1\nmap\n.\n", "non-integer"),
        ("type octile\nheight 1\nwidth 1\nnope\n.\n", "expected 'map'"),
        ("type octile\nheight 2\nwidth 1\nmap\n.\n", "expected 2 map rows"),
        ("type octile\nheight 1\nwidth 3\nmap\n..\n", "row has 2 characters"),
        ("type octile\nheight 1\nwidth 3\nmap\n.S.\n", "column 2"),
    ],
)
def test_parse_map_errors(text, fragment):
    with pytest.raises(MapFormatError) as err:
        parse_map(text)
    assert fragment in str(err.value)


def test_dump_map_round_trip():
    grid = parse_map(MAP_TEXT)
    text = dump_map(grid)
    lines = text.splitlines()
    assert lines[:4] == ["type octile", "height 3", "width 5", "map"]
    assert lines[4] == "....."
    assert lines[5] == "..@.."
    assert lines[6] == "...@."  # dump normalizes every blocked char to @
    assert parse_map(text) == grid


def test_neighbors4_order_is_n_s_w_e():
    grid = grid_from_rows(["...", "...", "..."])
    assert grid.neighbors((1, 1)) == [(1, 0), (1, 2), (0, 1), (2, 1)]
    assert grid.neighbors((0, 0)) == [(0, 1), (1, 0)]
    blocked = grid_from_rows(["...", ".#.", "..."])
    assert blocked.neighbors((1, 0)) == [(0, 0), (2, 0)]


def test_shortest_path_empty_3x3_matches_walk_oracle():
    grid = grid_from_rows(["...", "...", "..."])
    # Oracle: no 3-move walk reaches the far corner, some 4-move walks do.
    assert brute_force_shortest(grid, (0, 0), (2, 2)) == 4
    path = shortest_path(grid, (0, 0), (2, 2))
    assert path is not None and len(path) == 5
    assert path[0] == (0, 0) and path[-1] == (2, 2)
    assert path in [w for w in enumerate_walks(grid, (0, 0), 4) if w[-1] == (2, 2)]
    # N/S/W/E breadth-first tie-break pins the exact path.
    assert path == [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)]


def test_shortest_path_detours_around_obstacle():
    grid = grid_from_rows(["...", ".#.", "..."])
    assert brute_force_shortest(grid, (0, 1), (2, 1)) == 4
    path = shortest_path(grid, (0, 1), (2, 1))
    assert path == [(0, 1), (0, 0), (1, 0), (2, 0), (2, 1)]


def test_shortest_path_edge_cases():
    grid = grid_from_rows(["...", "...", "..."])
    assert shortest_path(grid, (1, 1), (1, 1)) == [(1, 1)]
    # A forbidden source cell never blocks itself.
    assert shortest_path(grid, (0, 0), (1, 0), forbidden={(0, 0)}) == [(0, 0), (1, 0)]
    assert shortest_path(grid, (0, 0), (1, 0), forbidden={(1, 0)}) is None
    corridor = grid_from_rows(["..."])
    assert shortest_path(corridor, (0, 0), (2, 0), forbidden={(1, 0)}) is None
    walled = grid_from_rows([".#."])
    assert shortest_path(walled, (0, 0), (2, 0)) is None
    with pytest.raises(ValueError):
        shortest_path(walled, (1, 0), (2, 0))
    with pytest.raises(ValueError):
        shortest_path(walled, (0, 0), (9, 0))


def test_bfs_distances_hand_computed():
    grid = grid_from_rows(["...", ".#.", "..."])
    dist = bfs_distances(grid, (0, 0))
    assert dist == {
        (0, 0): 0,
        (1, 0): 1, (0, 1): 1,
        (2, 0): 2, (0, 2): 2,
        (2, 1): 3, (1, 2): 3,
        (2, 2): 4,
    }


def test_bfs_distances_respects_forbidden():
    corridor = grid_from_rows(["....."])
    dist = bfs_distances(corridor, (0, 0), forbidden={(2, 0)})
    assert dist == {(0, 0): 0, (1, 0): 1}


def test_path_length_agrees_with_distance_field():
    rng = random.Random(20260816)
    checked = 0
    for _ in range(100):
        grid = random_grid(rng, 8, 8, wall_rate=0.25)
        cells = list(grid.passable_cells())
        if len(cells) < 2:
            continue
        src, dst = rng.sample(cells, 2)
        dist = bfs_distances(grid, src)
        path = shortest_path(grid, src, dst)
        if dst in dist:
            assert path is not None and len(path) - 1 == dist[dst]
            # Symmetry of the metric.
            assert bfs_distances(grid, dst).get(src) == dist[dst]
        else:
            assert path is None
        checked += 1
    assert checked >= 90


def test_path_is_simple_and_connected():
    rng = random.Random(7)
    for _ in range(50):
        grid = random_grid(rng, 10, 6, wall_rate=0.3)
        cells = list(grid.passable_cells())
        if len(cells) < 2:
            continue
        src, dst = rng.sample(cells, 2)
        path = shortest_path(grid, src, dst)
        if path is None:
            continue
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert grid.is_passable(b)


def test_obstacle_components_diagonal_touch():
    # Corner contact joins components (8-connectivity).
    assert obstacle_components([(0, 0), (1, 1)]) == [{(0, 0), (1, 1)}]
    comps = obstacle_components([(0, 0), (2, 2), (0, 3)])
    assert comps == [{(0, 0)}, {(2, 2)}, {(0, 3)}]
    # Ordered by smallest member in (y, x) order.
    comps = obstacle_components([(5, 5), (0, 0), (1, 0), (5, 4)])
    assert comps == [{(0, 0), (1, 0)}, {(5, 4), (5, 5)}]


def test_obstacle_components_accept_out_of_bounds_cells():
    comps = obstacle_components([(-1, 0), (0, -1), (3, 0)])
    assert comps == [{(-1, 0), (0, -1)}, {(3, 0)}]


def test_gridmap_rejects_bad_blocked_cells():
    with pytest.raises(ValueError):
        GridMap(3, 3, [(3, 0)])
    with pytest.raises(ValueError):
        GridMap(0, 3)
