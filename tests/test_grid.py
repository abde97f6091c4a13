"""Map parsing and search primitives."""
from __future__ import annotations

import random
import tracemalloc

import pytest

from areaguard import grid as grid_module
from areaguard.grid import (
    BIT_BUDGET,
    GridMap,
    MapFormatError,
    bfs_distance_table,
    bfs_distances,
    dump_map,
    find_path,
    free_mask,
    nearest_target_path,
    obstacle_components,
    parse_map,
    shortest_path,
)
from areaguard.model import AdjacencyGraph
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


def test_bfs_distances_on_an_adjacency_graph():
    # a - b - c - d, a - e - d, and f on its own; nodes are numbered by name.
    graph = AdjacencyGraph.from_edges(
        list("fedcba"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d")]
    )
    assert [graph.index(n) for n in "abcdef"] == [0, 1, 2, 3, 4, 5]
    assert [graph.cell(i) for i in range(6)] == list("abcdef")
    assert bfs_distances(graph, "a") == {"a": 0, "b": 1, "e": 1, "c": 2, "d": 2}
    assert bfs_distance_table(graph, "a") == [0, 1, 2, 2, 1, -1]
    # Forbidding e sends the route to d the long way; the source is never forbidden.
    assert bfs_distances(graph, "a", forbidden={"e", "a"}) == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert bfs_distance_table(graph, "a", forbidden={"e"}) == [0, 1, 2, 3, -1, -1]
    assert bfs_distances(graph, "f") == {"f": 0}
    with pytest.raises(ValueError):
        bfs_distance_table(graph, "z")


def test_nearest_target_path_tie_breaking():
    box = lambda c: 0 <= c[0] < 5 and 0 <= c[1] < 5
    # Four targets two steps away: N is expanded first.
    cross = {(2, 0), (0, 2), (4, 2), (2, 4)}
    assert nearest_target_path([(2, 2)], box, cross.__contains__) == [(2, 2), (2, 1), (2, 0)]
    # Two diagonal targets: N before W on the way to the first.
    diag = {(1, 1), (3, 3)}
    assert nearest_target_path([(2, 2)], box, diag.__contains__) == [(2, 2), (2, 1), (1, 1)]
    # Equidistant sources: the one listed first wins.
    mid = {(2, 0)}.__contains__
    assert nearest_target_path([(4, 0), (0, 0)], box, mid) == [(4, 0), (3, 0), (2, 0)]
    assert nearest_target_path([(0, 0), (4, 0)], box, mid) == [(0, 0), (1, 0), (2, 0)]
    # The first source that is a target is a one-cell path.
    assert nearest_target_path([(1, 1), (2, 0), (0, 2)], box, cross.__contains__) == [(2, 0)]
    # allowed fences the search; None when no target is reachable.
    left = lambda c: box(c) and c[0] < 2
    assert nearest_target_path([(0, 0)], left, mid) is None
    assert nearest_target_path([], box, mid) is None


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


def _lex_min_path(grid, src, dst, forbidden):
    """(N<S<W<E lexicographically smallest shortest path or None, cells reached from src).

    Distances to dst come from a plain breadth-first search; the walk from
    src then takes the first move, in N, S, W, E order, that gets one step
    closer to dst.
    """
    reached = {src}
    queue = [src]
    for here in queue:
        for nxt in grid.neighbors(here):
            if nxt not in reached and nxt not in forbidden:
                reached.add(nxt)
                queue.append(nxt)
    if dst in forbidden or dst not in reached:
        return None, reached
    to_dst = {dst: 0}
    queue = [dst]
    for here in queue:
        for nxt in grid.neighbors(here):
            if nxt not in to_dst and (nxt not in forbidden or nxt == src):
                to_dst[nxt] = to_dst[here] + 1
                queue.append(nxt)
    path = [src]
    while path[-1] != dst:
        here = path[-1]
        path.append(next(c for c in grid.neighbors(here) if to_dst.get(c) == to_dst[here] - 1))
    return path, reached


def test_find_path_is_the_lexicographically_first_shortest_path():
    # The routing contract: among shortest paths that avoid forbidden cells,
    # find_path returns the one whose N, S, W, E move sequence sorts first,
    # and on failure exactly the region reachable from src.
    rng = random.Random(4242)
    found = failed = 0
    for _ in range(400):
        grid = random_grid(rng, rng.randrange(1, 13), rng.randrange(1, 13), rng.uniform(0.0, 0.45))
        cells = list(grid.passable_cells())
        if not cells:
            continue
        for query in range(12):
            if query % 4 == 0:
                forbidden = set(rng.sample(cells, rng.randrange(len(cells) + 1)))
                if rng.random() < 0.2:
                    forbidden |= {(-1, 0), (grid.width, grid.height - 1)}
            src = rng.choice(sorted(forbidden & set(cells)) or cells)
            dst = rng.choice(cells)
            path, region = find_path(grid, src, dst, forbidden)
            want, reached = _lex_min_path(grid, src, dst, forbidden - {src})
            assert path == want, (grid, src, dst, forbidden)
            if path is not None:
                found += 1
                assert region is None
            elif dst in forbidden and dst != src:
                assert region is None
            else:
                failed += 1
                assert region[0] == grid.index(src) and len(region) == len(set(region))
                assert {grid.cell(i) for i in region} == reached
    assert found > 1000 and failed > 500


def _serpentine(size):
    """size x size map whose even rows form one corridor, entered at (0, 0).

    Every odd row is a wall with one gap, at its east end and at its west
    end in turn, so the corridor snakes down the whole map.
    """
    blocked = []
    for y in range(1, size, 2):
        gap = size - 1 if y % 4 == 1 else 0
        blocked += [(x, y) for x in range(size) if x != gap]
    return GridMap(size, size, blocked)


def _corridor_cells(size):
    """The serpentine's corridor from (0, 0), in walking order."""
    cells = []
    for y in range(0, size, 2):
        row = [(x, y) for x in range(size)]
        cells += row if y % 4 == 0 else row[::-1]
        if y + 1 < size:
            cells.append((size - 1 if y % 4 == 0 else 0, y + 1))
    return cells


@pytest.mark.parametrize("size", [64, 128])
def test_find_path_past_the_bit_budget_hands_over_to_the_flood(monkeypatch, size):
    # A search holds at most 128 layers on 64x64 and 32 on 128x128, far
    # fewer than the serpentine's length, so long routes and failures fall
    # back to the list search while shorter routes never reach it. Targets
    # farther than that on the bare grid skip the layers.
    grid = _serpentine(size)
    corridor = _corridor_cells(size)
    max_layers = BIT_BUDGET // (size * size)
    assert max_layers == (1 << 19) // (size * size) and size * size * len(corridor) > BIT_BUDGET
    src = corridor[0]
    calls = {"_flood": [], "_layered_path": []}

    def counted(name):
        search = getattr(grid_module, name)

        def wrapper(*args):
            calls[name].append(args)
            return search(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(grid_module, name, counted(name))
    for steps in (1, max_layers // 2, *range(max_layers - 1, max_layers + 3), 700, len(corridor) - 1):
        dst = corridor[steps]
        floods, layered = len(calls["_flood"]), len(calls["_layered_path"])
        path, region = find_path(grid, src, dst)
        assert path == _lex_min_path(grid, src, dst, set())[0] == corridor[: steps + 1]
        assert region is None
        assert len(calls["_flood"]) - floods == (steps > max_layers)
        manhattan = abs(dst[0] - src[0]) + abs(dst[1] - src[1])
        assert len(calls["_layered_path"]) - layered == (manhattan <= max_layers)
    # The bare-grid bound skips the layers of some searches on 128x128 only.
    assert (len(calls["_layered_path"]) < 8) == (size == 128)

    # One forbidden corridor cell cuts the route: the region is exactly
    # what src still reaches, src first.
    for cut, src, dst in ((50, 10, -1), (50, 60, 0), (900, 899, -1), (900, 1500, 0)):
        src, dst = corridor[src], corridor[dst]
        forbidden = {corridor[cut]}
        path, region = find_path(grid, src, dst, forbidden)
        want, reached = _lex_min_path(grid, src, dst, forbidden)
        assert path is None and want is None
        assert region[0] == grid.index(src) and len(region) == len(set(region))
        assert {grid.cell(i) for i in region} == reached
        assert reached == (set(corridor[:cut]) if src in corridor[:cut] else set(corridor[cut + 1 :]))


def test_find_path_gives_the_same_answer_with_a_caller_packed_mask():
    rng = random.Random(2718)
    found = failed = 0
    for _ in range(200):
        grid = random_grid(rng, rng.randrange(1, 16), rng.randrange(1, 16), rng.uniform(0.0, 0.4))
        cells = list(grid.passable_cells())
        if not cells:
            continue
        forbidden = set(rng.sample(cells, rng.randrange(len(cells) + 1)))
        free = free_mask(grid, forbidden)
        assert free == sum(1 << grid.index(c) for c in cells if c not in forbidden)
        for _ in range(10):
            src = rng.choice(sorted(forbidden) or cells)
            dst = rng.choice(cells)
            got = find_path(grid, src, dst, forbidden, free)
            assert got == find_path(grid, src, dst, forbidden), (grid, src, dst, forbidden)
            found += got[0] is not None
            failed += got[1] is not None
    assert found > 300 and failed > 300


def _peak_bytes(search):
    tracemalloc.start()
    try:
        search()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_find_path_on_512x512_maps_matches_the_flood_within_the_bit_budget():
    # On 512x512 a search grows two layers before it floods. Its answers
    # are the flood's, and its memory peak exceeds the flood's by at most
    # the layers' budget, 2**19 bits (written out, so that a larger
    # BIT_BUDGET does not widen the bound).
    corridor = _corridor_cells(512)
    serpentine = _serpentine(512)
    assert find_path(serpentine, corridor[0], corridor[-1]) == (corridor, None)
    rng = random.Random(512)
    walls = random_grid(rng, 512, 512, 0.25)
    queries = [(serpentine, corridor[0], corridor[-1], set())]
    src = (256, 256)
    while not walls.is_passable(src):
        src = (src[0] + 1, src[1])
    # Targets as far down the map as their distance allows, so every layer
    # grown from them is map-wide.
    table = bfs_distance_table(walls, src)[::-1]
    for steps in (1, 2, 3, 40, 330):
        dst = walls.cell(len(table) - 1 - table.index(steps))
        queries.append((walls, src, dst, set()))
    cells = list(walls.passable_cells())
    queries.append((walls, src, dst, set(rng.sample(cells, 20000))))
    for grid, src, dst, forbidden in queries:
        want = grid_module._flood(grid, src, dst, forbidden)
        assert find_path(grid, src, dst, forbidden) == want
        flood_peak = _peak_bytes(lambda: grid_module._flood(grid, src, dst, forbidden))
        search_peak = _peak_bytes(lambda: find_path(grid, src, dst, forbidden))
        assert search_peak <= flood_peak + (1 << 19) // 8, (src, dst, search_peak, flood_peak)


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
