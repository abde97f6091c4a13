"""Allocation strategies: random, greedy, strict-greedy, bottleneck."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from areaguard.allocate import (
    BottleneckParams,
    allocate_bottleneck,
    allocate_for,
    allocate_greedy,
    allocate_random,
    allocate_strict_greedy,
    confirm_bottleneck,
    estimate_attacker_paths,
    search_vicinity,
    select_peak,
    strict_greedy_pairs,
    visit_frequency,
)
from areaguard.grid import bfs_distances
from areaguard.model import Instance
from areaguard.scenarios import MapSpec, ScenarioSpec, generate_instance
from helpers import grid_from_rows, random_grid

MAPS_DIR = Path(__file__).resolve().parent.parent / "maps"


def make_instance(rows, attackers, targets, defenders, limit=50):
    return Instance(
        world=grid_from_rows(rows),
        attacker_starts=tuple(attackers),
        attacker_targets=tuple(targets),
        defender_starts=tuple(defenders),
        time_limit=limit,
    )


TWO_ROOM = [
    "...#...",
    "...#...",
    ".......",
    "...#...",
    "...#...",
]


def two_room_instance():
    return make_instance(
        TWO_ROOM,
        attackers=[(0, 0), (0, 4)],
        targets=[(6, 0), (6, 4)],
        defenders=[(5, 2), (6, 2)],
    )


def test_allocate_random_matches_seeded_sample():
    inst = make_instance(["......"], [(5, 0)], [(0, 0)], [(1, 0), (2, 0)])
    inst = Instance(
        inst.world,
        attacker_starts=((5, 0), (3, 0)),
        attacker_targets=((0, 0), (4, 0)),
        defender_starts=((1, 0), (2, 0)),
        time_limit=50,
    )
    got = allocate_random(inst, seed=7)
    expect = random.Random(7).sample([(0, 0), (4, 0)], 2)
    assert got == {0: expect[0], 1: expect[1]}


def test_allocate_random_is_injective_prefix():
    rng = random.Random(3)
    grid = grid_from_rows(["........"] * 6)
    cells = list(grid.passable_cells())
    for trial in range(50):
        n_att, n_def = rng.randint(1, 8), rng.randint(0, 8)
        spots = rng.sample(cells, n_att * 2 + n_def)
        inst = Instance(
            grid,
            tuple(spots[:n_att]),
            tuple(spots[n_att : 2 * n_att]),
            tuple(spots[2 * n_att :]),
            time_limit=10,
        )
        alloc = allocate_random(inst, seed=trial)
        assert len(alloc) == min(n_att, n_def)
        values = list(alloc.values())
        assert len(set(values)) == len(values)
        assert set(values) <= set(inst.attacker_targets)
        assert allocate_random(inst, seed=trial) == alloc


def test_greedy_and_strict_greedy_diverge_on_corridor():
    # Hand-enumerated distance table: d0 -> {t0: 2, t1: 2}, d1 -> {t0: 1, t1: 3}.
    # Greedy lets d0 grab t0 on the index tie-break; strict greedy commits
    # the globally closest pair (d1, t0) first and does strictly better.
    inst = Instance(
        world=grid_from_rows(["......"]),
        attacker_starts=((5, 0), (3, 0)),
        attacker_targets=((0, 0), (4, 0)),
        defender_starts=((2, 0), (1, 0)),
        time_limit=50,
    )
    assert allocate_greedy(inst) == {0: (0, 0), 1: (4, 0)}
    assert strict_greedy_pairs(inst) == [(1, 0), (0, 1)]
    assert allocate_strict_greedy(inst) == {0: (4, 0), 1: (0, 0)}


def test_greedy_skips_unreachable_targets():
    inst = Instance(
        world=grid_from_rows(["..#.."]),
        attacker_starts=((3, 0),),
        attacker_targets=((4, 0),),
        defender_starts=((0, 0), (1, 0)),
        time_limit=50,
    )
    # The only target sits behind the wall: nobody gets an assignment.
    assert allocate_greedy(inst) == {}
    assert allocate_strict_greedy(inst) == {}


def brute_force_strict_pairs(inst):
    """Oracle: sort every finite (dist, defender, target) triple, then scan."""
    grid = inst.world
    triples = []
    for d, start in enumerate(inst.defender_starts):
        dist = bfs_distances(grid, start)
        for t, cell in enumerate(inst.attacker_targets):
            if cell in dist:
                triples.append((dist[cell], d, t))
    triples.sort()
    used_d, used_t, pairs = set(), set(), []
    for _, d, t in triples:
        if d not in used_d and t not in used_t:
            pairs.append((d, t))
            used_d.add(d)
            used_t.add(t)
    return pairs


def test_strict_greedy_matches_brute_force_on_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        grid = random_grid(rng, 7, 7, wall_rate=0.2)
        cells = list(grid.passable_cells())
        n_def = rng.randint(1, 4)
        n_att = rng.randint(1, 4)
        if len(cells) < n_def + 2 * n_att:
            continue
        spots = rng.sample(cells, n_def + 2 * n_att)
        inst = Instance(
            grid,
            tuple(spots[:n_att]),
            tuple(spots[n_att : 2 * n_att]),
            tuple(spots[2 * n_att :]),
            time_limit=10,
        )
        assert strict_greedy_pairs(inst) == brute_force_strict_pairs(inst)


def test_estimate_paths_guess_is_seeded_permutation():
    inst = two_room_instance()
    paths = estimate_attacker_paths(inst, set(), seed=5)
    assert set(paths) == {0, 1}
    ends = {p[-1] for p in paths.values()}
    assert ends == set(inst.attacker_targets)
    assert estimate_attacker_paths(inst, set(), seed=5) == paths


def test_estimate_paths_unreachable_is_none():
    inst = two_room_instance()
    paths = estimate_attacker_paths(inst, {(3, 2)}, seed=5)
    assert paths == {0: None, 1: None}


def test_visit_frequency_counts_shared_cells():
    inst = two_room_instance()
    paths = estimate_attacker_paths(inst, set(), seed=5)
    freq = visit_frequency(paths)
    # Both routes must thread the single door and its approach cells.
    assert freq[(2, 2)] == 2 and freq[(3, 2)] == 2 and freq[(4, 2)] == 2
    assert freq[(0, 0)] == 1
    assert visit_frequency({0: None, 1: None}) == {}


def test_select_peak_prefers_defender_side():
    grid = grid_from_rows(TWO_ROOM)
    freq = {(2, 2): 2, (3, 2): 2, (4, 2): 2, (0, 0): 1}
    # Defender centroid lands in the right room, so the tie among the three
    # busiest cells resolves to the right-side approach cell.
    peak = select_peak(freq, [(5, 2), (6, 2)], grid)
    assert peak == (4, 2)
    assert select_peak({(1, 1): 3, (2, 2): 1}, [(5, 2)], grid) == (1, 1)
    # Without defenders the (y, x) order decides.
    assert select_peak(freq, [], grid) == (2, 2)
    with pytest.raises(ValueError):
        select_peak({}, [(5, 2)], grid)


def test_search_vicinity_single_door():
    grid = grid_from_rows(TWO_ROOM)
    assert search_vicinity(grid, (4, 2)) == {(3, 2)}
    assert search_vicinity(grid, (3, 2)) == {(3, 2)}


def test_search_vicinity_double_door_returns_both_cells():
    grid = grid_from_rows(
        [
            "...#...",
            "...#...",
            ".......",
            ".......",
            "...#...",
            "...#...",
        ]
    )
    assert search_vicinity(grid, (3, 2)) == {(3, 2), (3, 3)}


def test_search_vicinity_open_field_finds_nothing():
    grid = grid_from_rows(["......"] * 6)
    assert search_vicinity(grid, (3, 3)) == set()


def test_search_vicinity_uses_map_border_as_obstacle():
    grid = grid_from_rows(
        [
            ".....",
            "#####",
            ".....",
        ]
    )
    # Top corridor runs between the wall and the map border; any corridor
    # cell separates the two, and the scan finds the leftmost in range.
    assert search_vicinity(grid, (2, 0)) == {(1, 0)}


def test_confirm_bottleneck_rejects_unused_candidate():
    inst = make_instance(
        [".....", ".....", "....."],
        attackers=[(0, 0), (0, 1)],
        targets=[(4, 0), (4, 1)],
        defenders=[(2, 2)],
    )
    paths = estimate_attacker_paths(inst, set(), seed=1)
    # A pocket cell no route touches is a false bottleneck.
    assert confirm_bottleneck(inst, set(), {(2, 2)}, paths, seed=1) is None
    # A cell on some route forces a reroute and is confirmed. The allocator
    # carries the returned routes into its next round, so they must be
    # exactly a fresh estimate around the grown forbidden set.
    on_route = next(iter(visit_frequency(paths)))
    confirmed = confirm_bottleneck(inst, set(), {on_route}, paths, seed=1)
    assert confirmed
    assert confirmed == estimate_attacker_paths(inst, {on_route}, seed=1)


def test_allocate_bottleneck_blocks_the_door():
    inst = two_room_instance()
    alloc = allocate_bottleneck(inst, BottleneckParams(rng_seed=9))
    # Hand-run: routes pile on the door, vicinity finds it, the nearest
    # defender (d0) takes it, the second defender falls back to a target.
    assert alloc[0] == (3, 2)
    assert alloc[1] in inst.attacker_targets
    assert len(set(alloc.values())) == 2


def test_allocate_bottleneck_gives_up_when_bottleneck_too_wide():
    inst = Instance(
        world=grid_from_rows(
            [
                "...#...",
                "...#...",
                ".......",
                ".......",
                "...#...",
                "...#...",
            ]
        ),
        attacker_starts=((0, 0), (0, 5)),
        attacker_targets=((6, 0), (6, 5)),
        defender_starts=((5, 2),),
        time_limit=50,
    )
    alloc = allocate_bottleneck(inst, BottleneckParams(rng_seed=4))
    # The doorway needs two defenders but only one exists: fall back.
    assert alloc == {0: alloc[0]}
    assert alloc[0] in inst.attacker_targets


def test_allocate_bottleneck_no_defenders():
    inst = Instance(
        world=grid_from_rows(TWO_ROOM),
        attacker_starts=((0, 0),),
        attacker_targets=((6, 0),),
        defender_starts=(),
        time_limit=10,
    )
    assert allocate_bottleneck(inst) == {}


def test_allocate_bottleneck_deterministic():
    inst = two_room_instance()
    a = allocate_bottleneck(inst, BottleneckParams(rng_seed=123))
    b = allocate_bottleneck(inst, BottleneckParams(rng_seed=123))
    assert a == b


def test_allocate_for_dispatch():
    inst = two_room_instance()
    assert allocate_for(inst, "random", 3) == allocate_random(inst, 3)
    assert allocate_for(inst, "greedy", 0) == allocate_greedy(inst)
    assert allocate_for(inst, "strict-greedy", 0) == allocate_strict_greedy(inst)
    assert allocate_for(inst, "bottleneck", 9) == allocate_bottleneck(
        inst, BottleneckParams(rng_seed=9)
    )
    with pytest.raises(ValueError):
        allocate_for(inst, "psychic", 0)


def test_allocations_are_injective_and_passable():
    rng = random.Random(42)
    for trial in range(40):
        grid = random_grid(rng, 9, 7, wall_rate=0.15)
        cells = list(grid.passable_cells())
        n_att, n_def = rng.randint(1, 5), rng.randint(1, 5)
        if len(cells) < 2 * n_att + n_def:
            continue
        spots = rng.sample(cells, 2 * n_att + n_def)
        inst = Instance(
            grid,
            tuple(spots[:n_att]),
            tuple(spots[n_att : 2 * n_att]),
            tuple(spots[2 * n_att :]),
            time_limit=10,
        )
        for strategy in ("random", "greedy", "strict-greedy", "bottleneck"):
            alloc = allocate_for(inst, strategy, seed=trial)
            values = list(alloc.values())
            assert len(set(values)) == len(values), strategy
            assert all(grid.is_passable(c) for c in values), strategy
            assert set(alloc) <= set(range(n_def)), strategy


def test_bottleneck_never_posts_two_defenders_on_one_cell():
    # On scatter debris a later chokepoint can overlap an earlier one; the
    # cells already held must not be matched a second time.
    spec = ScenarioSpec(
        map=MapSpec(kind="file", path="scatter_standin.map"),
        n_attackers=100,
        n_defenders=100,
        time_limit=150,
        placement="separated",
    )
    inst = generate_instance(spec, 1, MAPS_DIR)
    alloc = allocate_for(inst, "bottleneck", 1)
    assert len(alloc) == 100
    assert len(set(alloc.values())) == len(alloc)
