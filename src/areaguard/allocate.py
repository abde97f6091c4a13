"""Defender allocation strategies.

Four ways to decide, before the simulation starts, which cell each
defender should occupy:

  random        seeded distinct draw from the attacker targets
  greedy        defenders in index order take the nearest unassigned target
  strict-greedy repeatedly commit the globally closest (defender, target) pair
  bottleneck    simulate likely attacker routes, find map chokepoints on the
                busiest cells, block them, send leftover defenders to targets

All distances are breadth-first distances on the bare map (agents ignored).
An allocation maps defender indices to cells and is always injective;
defenders missing from it hold their start position.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from areaguard.grid import (
    Cell,
    GridMap,
    bfs_distance_table,
    bfs_distances,
    obstacle_components,
    shortest_path,
)
from areaguard.model import Instance

Allocation = dict[int, Cell]

STRATEGIES = ("random", "greedy", "strict-greedy", "bottleneck")


@dataclass(frozen=True)
class BottleneckParams:
    """Knobs for the bottleneck-simulation strategy."""

    rng_seed: int = 0
    vicinity_limit: int = 5
    max_iterations: int = 32


def allocate_random(instance: Instance, seed: int) -> Allocation:
    """Assign each defender a distinct uniformly-drawn attacker target.

    Defenders (in index order) receive a seeded sample without replacement;
    whichever side runs out first ends the assignment.
    """
    rng = random.Random(seed)
    targets = list(instance.attacker_targets)
    count = min(instance.n_defenders, len(targets))
    return dict(enumerate(rng.sample(targets, count)))


def _defender_distance_rows(instance: Instance) -> list[list[int]]:
    """Distance from each defender start to each attacker target (-1 = unreachable)."""
    grid = _require_grid(instance)
    target_idx = [grid.index(t) for t in instance.attacker_targets]
    rows = []
    for start in instance.defender_starts:
        table = bfs_distance_table(grid, start)
        rows.append([table[i] for i in target_idx])
    return rows


def allocate_greedy(instance: Instance) -> Allocation:
    """Defenders in index order each take the nearest unassigned target.

    Distance ties resolve by target index; unreachable targets are skipped
    and a defender with no reachable target left stays unassigned.
    """
    rows = _defender_distance_rows(instance)
    targets = list(instance.attacker_targets)
    taken: set[int] = set()
    out: Allocation = {}
    for d, dist in enumerate(rows):
        best_t = -1
        best_d = None
        for t in range(len(targets)):
            if t in taken or dist[t] < 0:
                continue
            if best_d is None or dist[t] < best_d:
                best_d = dist[t]
                best_t = t
        if best_d is not None:
            taken.add(best_t)
            out[d] = targets[best_t]
    return out


def _strict_greedy_sweep(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Strict-greedy commit order over a distance table (-1 = unreachable).

    Sorting every finite (distance, row, column) triple once and taking each
    whose row and column are both still free commits the globally closest
    remaining pair first, ties by row index then column index.
    """
    triples = sorted(
        (dist, r, c) for r, row in enumerate(rows) for c, dist in enumerate(row) if dist >= 0
    )
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, r, c in triples:
        if r in used_rows or c in used_cols:
            continue
        pairs.append((r, c))
        used_rows.add(r)
        used_cols.add(c)
    return pairs


def strict_greedy_pairs(instance: Instance) -> list[tuple[int, int]]:
    """Commit order of the strict-greedy matching as (defender, target) pairs.

    Each round selects the globally minimal finite distance over all
    remaining defender/target pairs, ties by defender index then target
    index, then deletes that row and column.
    """
    return _strict_greedy_sweep(_defender_distance_rows(instance))


def allocate_strict_greedy(instance: Instance) -> Allocation:
    return {d: instance.attacker_targets[t] for d, t in strict_greedy_pairs(instance)}


# -------- bottleneck simulation --------


def estimate_attacker_paths(
    instance: Instance, forbidden: set[Cell], seed: int
) -> dict[int, list[Cell] | None]:
    """Sketch one likely route per attacker around the forbidden cells.

    Attackers don't reveal their real target, so each one is guessed to aim
    at a seeded random permutation of the target set (the guess is a pure
    function of the seed, letting callers re-estimate under a grown
    forbidden set without disturbing it). Unreachable attackers map to None.
    """
    grid = _require_grid(instance)
    rng = random.Random(seed)
    guess = list(instance.attacker_targets)
    rng.shuffle(guess)
    return {
        i: shortest_path(grid, start, guess[i], forbidden=forbidden)
        for i, start in enumerate(instance.attacker_starts)
    }


def visit_frequency(paths: dict[int, list[Cell] | None]) -> dict[Cell, int]:
    """How many estimated routes touch each cell (endpoints included)."""
    freq: Counter[Cell] = Counter()
    for path in paths.values():
        if path:
            freq.update(set(path))
    return dict(freq)


def select_peak(freq: dict[Cell, int], defender_cells: list[Cell], grid: GridMap) -> Cell:
    """Most visited cell; ties go to the cell the defenders can reach best.

    The tie-break is BFS distance from the defender centroid (the passable
    cell nearest the arithmetic mean of defender_cells), residual ties by
    (y, x). Defenders prefer chokepoints they can beat the attackers to.
    """
    if not freq:
        raise ValueError("visit frequencies are empty")
    top = max(freq.values())
    peaks = [c for c, n in freq.items() if n == top]
    if len(peaks) == 1:
        return peaks[0]
    if defender_cells:
        mx = sum(c[0] for c in defender_cells) / len(defender_cells)
        my = sum(c[1] for c in defender_cells) / len(defender_cells)
        centroid = min(
            grid.passable_cells(),
            key=lambda c: ((c[0] - mx) ** 2 + (c[1] - my) ** 2, c[1], c[0]),
        )
        dist = bfs_distances(grid, centroid)
        far = grid.width * grid.height + 1
        return min(peaks, key=lambda c: (dist.get(c, far), c[1], c[0]))
    return min(peaks, key=lambda c: (c[1], c[0]))


def search_vicinity(grid: GridMap, peak: Cell, limit: int = 5) -> set[Cell]:
    """Look for a map bottleneck near the peak cell.

    Squares of growing Chebyshev radius around the peak collect obstacle
    cells (map borders count as an implicit obstacle ring). As soon as the
    collected obstacles split into two or more 8-connected components, the
    shortest passable 4-connected path inside the square whose endpoints
    touch two different components is the presumed bottleneck; blocking it
    would locally separate the obstacle groups. Returns the path's cells,
    or an empty set when no bottleneck shows up within the radius limit.
    """
    px, py = peak
    obstacles: set[Cell] = set()
    for r in range(1, limit + 1):
        for x in range(px - r, px + r + 1):
            for y in (py - r, py + r):
                if not grid.is_passable((x, y)):
                    obstacles.add((x, y))
        for y in range(py - r + 1, py + r):
            for x in (px - r, px + r):
                if not grid.is_passable((x, y)):
                    obstacles.add((x, y))
        comps = obstacle_components(obstacles)
        if len(comps) < 2:
            continue
        path = _joining_path(grid, peak, r, comps)
        if path is not None:
            return set(path)
    return set()


def _joining_path(grid: GridMap, peak: Cell, r: int, comps: list[set[Cell]]) -> list[Cell] | None:
    """Shortest passable path linking two obstacle components near peak.

    Path cells stay within Chebyshev radius r of the peak; each endpoint
    must share an edge with a component (components themselves group under
    8-connectivity, so a blocked path is a genuine local separator).
    """
    px, py = peak
    in_region = lambda c: max(abs(c[0] - px), abs(c[1] - py)) <= r and grid.is_passable(c)
    touch: dict[Cell, set[int]] = {}
    for ci, comp in enumerate(comps):
        for ox, oy in comp:
            for cand in ((ox, oy - 1), (ox, oy + 1), (ox - 1, oy), (ox + 1, oy)):
                if in_region(cand):
                    touch.setdefault(cand, set()).add(ci)

    best: list[Cell] | None = None
    for ci in range(len(comps) - 1):
        sources = sorted(
            (c for c, t in touch.items() if ci in t), key=lambda c: (c[1], c[0])
        )
        if not sources:
            continue
        target_of = lambda c: any(j > ci for j in touch.get(c, ()))
        parent: dict[Cell, Cell | None] = {}
        found = None
        for s in sources:
            parent[s] = None
            if target_of(s):
                found = s
                break
        queue = list(sources) if found is None else []
        qi = 0
        while found is None and qi < len(queue):
            cx, cy = queue[qi]
            qi += 1
            for cand in ((cx, cy - 1), (cx, cy + 1), (cx - 1, cy), (cx + 1, cy)):
                if cand in parent or not in_region(cand):
                    continue
                parent[cand] = (cx, cy)
                if target_of(cand):
                    found = cand
                    break
                queue.append(cand)
        if found is None:
            continue
        path = [found]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        if best is None or len(path) < len(best):
            best = path
    return best


def confirm_bottleneck(
    instance: Instance,
    forbidden: set[Cell],
    bottleneck: set[Cell],
    previous_paths: dict[int, list[Cell] | None],
    seed: int,
) -> dict[int, list[Cell] | None] | None:
    """Routes around the candidate, or None when blocking it changes none.

    Re-estimates with the same target guess (same seed) and the candidate
    cells added to the forbidden set; a candidate nobody would have walked
    through is a false bottleneck and not worth a defender.
    """
    updated = estimate_attacker_paths(instance, forbidden | bottleneck, seed)
    if any(updated[i] != previous_paths[i] for i in updated):
        return updated
    return None


def allocate_bottleneck(instance: Instance, params: BottleneckParams = BottleneckParams()) -> Allocation:
    """Block likely chokepoints first, then spread leftovers over targets.

    Loop (at most max_iterations): estimate attacker routes around
    everything already blocked, take the busiest cell, look for a bottleneck
    near it, and assign its cells not yet held to the nearest free
    defenders. The loop stops when defenders run out, no route survives, no
    bottleneck is found, the bottleneck needs more defenders than remain,
    or blocking it would change nothing. The routes that confirm a
    bottleneck are the next round's estimate. Remaining defenders get
    seeded random distinct targets.
    """
    grid = _require_grid(instance)
    allocation: Allocation = {}
    available = list(range(instance.n_defenders))
    forbidden: set[Cell] = set()
    seed = params.rng_seed

    paths = estimate_attacker_paths(instance, forbidden, seed)
    for _ in range(params.max_iterations):
        if not available:
            break
        freq = visit_frequency(paths)
        if not freq:
            break
        starts = [instance.defender_starts[d] for d in available]
        peak = select_peak(freq, starts, grid)
        cells = search_vicinity(grid, peak, params.vicinity_limit) - forbidden
        if not cells or len(cells) > len(available):
            break
        confirmed = confirm_bottleneck(instance, forbidden, cells, paths, seed)
        if confirmed is None:
            break
        matching = _nearest_first_matching(grid, instance, available, cells)
        if matching is None:
            break
        allocation.update(matching)
        for d in matching:
            available.remove(d)
        forbidden |= cells
        paths = confirmed

    if available:
        taken = set(allocation.values())
        pool = [t for t in instance.attacker_targets if t not in taken]
        rng = random.Random(f"{seed}:fallback")
        for d, cell in zip(available, rng.sample(pool, min(len(available), len(pool)))):
            allocation[d] = cell
    return allocation


def _nearest_first_matching(
    grid: GridMap, instance: Instance, available: list[int], cells: set[Cell]
) -> Allocation | None:
    """Strict-greedy defender/cell matching; None unless every cell is covered.

    Ties go to the lower defender index, then to the cell first in (y, x)
    order.
    """
    ordered = sorted(cells, key=lambda c: (c[1], c[0]))
    tables = [bfs_distance_table(grid, c) for c in ordered]
    starts = [grid.index(instance.defender_starts[d]) for d in available]
    rows = [[table[i] for table in tables] for i in starts]
    pairs = _strict_greedy_sweep(rows)
    if len(pairs) < len(ordered):
        return None
    return {available[r]: ordered[c] for r, c in pairs}


def allocate_for(
    instance: Instance,
    strategy: str,
    seed: int,
    params: BottleneckParams | None = None,
) -> Allocation:
    """Run one strategy by name; seed feeds the seeded strategies."""
    if strategy == "random":
        return allocate_random(instance, seed)
    if strategy == "greedy":
        return allocate_greedy(instance)
    if strategy == "strict-greedy":
        return allocate_strict_greedy(instance)
    if strategy == "bottleneck":
        if params is None:
            params = BottleneckParams(rng_seed=seed)
        return allocate_bottleneck(instance, params)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _require_grid(instance: Instance) -> GridMap:
    if not isinstance(instance.world, GridMap):
        raise ValueError("allocation strategies need a grid world")
    return instance.world
