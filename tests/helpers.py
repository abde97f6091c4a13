"""Shared builders for the test suite."""
from __future__ import annotations

import random

from areaguard.grid import Cell, GridMap, bfs_distance_table


def grid_from_rows(rows: list[str]) -> GridMap:
    """Build a GridMap from ascii art rows ('.' passable, '#' or '@' blocked)."""
    height = len(rows)
    width = len(rows[0])
    blocked = []
    for y, row in enumerate(rows):
        assert len(row) == width, "ragged ascii map"
        for x, ch in enumerate(row):
            if ch in "#@":
                blocked.append((x, y))
            else:
                assert ch == ".", f"unexpected char {ch!r}"
    return GridMap(width, height, blocked)


def random_grid(rng: random.Random, width: int, height: int, wall_rate: float) -> GridMap:
    blocked = [
        (x, y)
        for y in range(height)
        for x in range(width)
        if rng.random() < wall_rate
    ]
    return GridMap(width, height, blocked)


def enumerate_walks(grid: GridMap, src: Cell, moves: int) -> list[list[Cell]]:
    """All 4-connected walks of exactly `moves` steps starting at src.

    Brute-force oracle for path length checks; every step must land on a
    passable cell (waiting in place is not a step here).
    """
    walks = [[src]]
    for _ in range(moves):
        nxt = []
        for walk in walks:
            x, y = walk[-1]
            for cand in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
                if grid.is_passable(cand):
                    nxt.append(walk + [cand])
        walks = nxt
    return walks


def brute_force_shortest(grid: GridMap, src: Cell, dst: Cell, cap: int = 8) -> int | None:
    """Smallest number of moves from src to dst found by walk enumeration."""
    if src == dst:
        return 0
    for moves in range(1, cap + 1):
        if any(w[-1] == dst for w in enumerate_walks(grid, src, moves)):
            return moves
    return None


def is_connected(grid: GridMap) -> bool:
    """True when the passable cells form exactly one 4-connected component."""
    cells = list(grid.passable_cells())
    if not cells:
        return False
    table = bfs_distance_table(grid, cells[0])
    return all(table[grid.index(c)] >= 0 for c in cells)
