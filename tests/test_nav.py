"""Local-repair route planner."""
from __future__ import annotations

import random

from areaguard import grid as grid_module
from areaguard.grid import SnapshotMemo, find_path
from areaguard.model import Configuration, attacker, defender
from areaguard.nav import NavState, next_move, observe_result
from helpers import grid_from_rows, random_grid


def test_follows_shortest_plan_in_open_corridor():
    grid = grid_from_rows(["...."])
    cfg = Configuration({attacker(0): (0, 0)})
    nav = NavState(attacker(0), goal=(3, 0))
    proposed, nav = next_move(nav, cfg, grid)
    assert proposed == (1, 0)
    assert nav.plan == ((1, 0), (2, 0), (3, 0))
    nav = observe_result(nav, proposed, (0, 0), (1, 0))
    assert nav.plan == ((2, 0), (3, 0))
    assert nav.stalls == 0


def test_waits_at_goal_and_without_goal():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (2, 0)})
    at_goal = NavState(attacker(0), goal=(2, 0), plan=((1, 0),), stalls=2)
    proposed, nav = next_move(at_goal, cfg, grid)
    assert proposed == (2, 0)
    assert nav.plan == () and nav.stalls == 0

    idle = NavState(attacker(0), goal=None)
    proposed, nav = next_move(idle, cfg, grid)
    assert proposed == (2, 0)


def test_replans_around_parked_blocker():
    # Hand-checked detour on a 5x2 corridor with a defender parked ahead.
    grid = grid_from_rows([".....", "....."])
    cfg = Configuration({attacker(0): (0, 0), defender(0): (1, 0)})
    nav = NavState(attacker(0), goal=(4, 0), plan=((1, 0), (2, 0), (3, 0), (4, 0)))
    proposed, nav = next_move(nav, cfg, grid)
    assert proposed == (0, 1)
    assert nav.plan == ((0, 1), (1, 1), (2, 1), (2, 0), (3, 0), (4, 0))


def test_waits_forever_when_goal_is_occupied_dead_end():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (0, 0), defender(0): (2, 0)})
    nav = NavState(attacker(0), goal=(2, 0))
    for expected_stalls in (1, 2, 3):
        proposed, nav = next_move(nav, cfg, grid)
        assert proposed == (0, 0)
        assert nav.stalls == expected_stalls
        nav = observe_result(nav, proposed, (0, 0), (0, 0))
    assert nav.plan == ()


def test_denied_moves_accumulate_stalls():
    grid = grid_from_rows(["...."])
    cfg = Configuration({attacker(0): (0, 0)})
    nav = NavState(attacker(0), goal=(3, 0))
    proposed, nav = next_move(nav, cfg, grid)
    # Conflict resolution denied the step (position unchanged).
    nav = observe_result(nav, proposed, (0, 0), (0, 0))
    assert nav.stalls == 1
    nav = observe_result(nav, proposed, (0, 0), (0, 0))
    assert nav.stalls == 2


def test_stall_threshold_forces_fresh_replan():
    grid = grid_from_rows(["....", "...."])
    # Stale plan still points through (2, 0), now occupied two cells ahead;
    # the head (1, 0) is free so nothing would trigger a lazy replan.
    cfg = Configuration({attacker(0): (0, 0), defender(0): (2, 0)})
    stale = ((1, 0), (2, 0), (3, 0))
    calm = NavState(attacker(0), goal=(3, 0), plan=stale, stalls=2)
    proposed, nav = next_move(calm, cfg, grid)
    assert proposed == (1, 0)  # below threshold: follow the stale plan

    stuck = NavState(attacker(0), goal=(3, 0), plan=stale, stalls=3)
    proposed, nav = next_move(stuck, cfg, grid)
    assert proposed == (0, 1)  # forced replan routes around the blocker
    assert nav.plan == ((0, 1), (1, 1), (2, 1), (3, 1), (3, 0))
    assert nav.stalls == 0


def test_failed_forced_replan_keeps_old_plan():
    grid = grid_from_rows(["..."])
    # Goal cell occupied: replanning fails, the old plan survives.
    cfg = Configuration({attacker(0): (0, 0), defender(0): (2, 0)})
    nav = NavState(attacker(0), goal=(2, 0), plan=((1, 0), (2, 0)), stalls=3)
    proposed, out = next_move(nav, cfg, grid)
    assert proposed == (0, 0)
    assert out.plan == ((1, 0), (2, 0))
    assert out.stalls == 4


def test_observe_result_clears_desynchronized_plan():
    nav = NavState(attacker(0), goal=(3, 0), plan=((1, 0), (2, 0)))
    out = observe_result(nav, (0, 1), (0, 0), (0, 1))
    assert out.plan == ()
    assert out.stalls == 0


def _components(grid, occupied):
    """Bitmask of each 4-connected component of the passable cells not in occupied."""
    comps = []
    seen = set(occupied)
    for start in grid.passable_cells():
        if start in seen:
            continue
        seen.add(start)
        queue = [start]
        for here in queue:
            for nxt in grid.neighbors(here):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        comps.append(sum(1 << grid.index(c) for c in queue))
    return comps


def test_search_with_memo_matches_a_full_search(monkeypatch):
    # Sources sit on occupied cells, as the engine's agents do, and every
    # query of one snapshot shares one memo. A query is skipped when
    # neither of find_path's searches runs.
    searches = []

    def counted(name):
        search = getattr(grid_module, name)

        def wrapper(*args):
            searches.append(args)
            return search(*args)

        return wrapper

    for name in ("_layered_path", "_flood"):
        monkeypatch.setattr(grid_module, name, counted(name))
    rng = random.Random(8128)
    queries = skipped = free_targets = boxed_in = cuts_checked = 0
    for _ in range(150):
        grid = random_grid(rng, rng.randrange(3, 11), rng.randrange(3, 11), rng.uniform(0.0, 0.35))
        cells = list(grid.passable_cells())
        if len(cells) < 3:
            continue
        occupied = set(rng.sample(cells, rng.randrange(1, int(len(cells) * 0.7) + 1)))
        sources = sorted(occupied)
        memo = SnapshotMemo()
        for _ in range(40):
            src = rng.choice(sources)
            dst = rng.choice([c for c in cells if c != src])
            before = len(searches)
            got = find_path(grid, src, dst, occupied, memo)[0]
            searched = len(searches) > before
            assert got == find_path(grid, src, dst, occupied)[0], (grid, src, dst, occupied)
            queries += 1
            if dst in occupied:
                # No route ends on an occupied cell: answered without a search.
                assert not searched
            else:
                free_targets += 1
                skipped += not searched
            boxed_in += all(nb in occupied for nb in grid.neighbors(src))
        # Every cut kept is exactly a union of free components: each
        # component lies wholly inside it or wholly outside.
        for cut in memo.cuts:
            assert all(comp & cut in (0, comp) for comp in _components(grid, occupied))
            cuts_checked += 1
    # Exact answers alone do not show the memo works: keeping no cuts, or
    # counting occupied neighbours as ways out of src, stays exact but
    # skips fewer of the queries to free targets (405 and 1,206 of 4,023
    # here, against 1,315).
    assert queries > 4000
    assert skipped > free_targets * 31 // 100
    assert boxed_in > 100
    assert cuts_checked > 50
