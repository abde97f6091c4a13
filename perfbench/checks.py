"""Output checkers that share no code with the areaguard package.

Every checker works on plain data (ints, tuples, sets, strings) and
recomputes what it needs from first principles: its own breadth-first
search, its own matching sweeps, its own QBF evaluation. A checker
returns a list of problem descriptions; an empty list means the output
passed.
"""
from __future__ import annotations

Cell = tuple[int, int]


class Grid:
    """Bare 4-connected grid: width, height and a set of blocked cells."""

    def __init__(self, width: int, height: int, blocked):
        self.width = width
        self.height = height
        self.blocked = frozenset(blocked)

    @classmethod
    def from_rows(cls, rows: list[str]) -> "Grid":
        blocked = {(x, y) for y, row in enumerate(rows) for x, ch in enumerate(row) if ch != "."}
        return cls(len(rows[0]), len(rows), blocked)

    def passable(self, c: Cell) -> bool:
        x, y = c
        return 0 <= x < self.width and 0 <= y < self.height and c not in self.blocked

    @property
    def passable_count(self) -> int:
        return self.width * self.height - len(self.blocked)

    def distances(self, src: Cell) -> dict[Cell, int]:
        """BFS distance from src to every reachable passable cell."""
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x, y in frontier:
                for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if cell not in dist and self.passable(cell):
                        dist[cell] = d
                        nxt.append(cell)
            frontier = nxt
        return dist


# -------- movement rules --------


def check_phases(
    grid: Grid,
    n_attackers: int,
    targets: list[Cell],
    phases: list[tuple[str, tuple[Cell, ...]]],
) -> list[str]:
    """Check every phase of a kept trace against the movement rules.

    phases is the trace in order: ("initial", positions) first, then one
    ("attackers" | "defenders", positions) entry per phase. Positions list
    the attackers first, then the defenders. The rules: only the phase's
    team moves; every move is one step to a 4-adjacent passable cell;
    occupancy stays injective; no two agents swap cells; nobody enters a
    cell whose occupant stayed; an attacker that stood on its own target
    after an attacker phase stays frozen there.
    """
    problems: list[str] = []
    if not phases or phases[0][0] != "initial":
        return ["trace does not start with the initial configuration"]
    before = phases[0][1]
    frozen: set[int] = set()
    for step, (team, after) in enumerate(phases[1:], 1):
        where = f"phase {step} ({team})"
        if team not in ("attackers", "defenders"):
            problems.append(f"{where}: unknown team")
            break
        if len(after) != len(before):
            problems.append(f"{where}: agent count changed")
            break
        movers = set(range(n_attackers) if team == "attackers" else range(n_attackers, len(after)))
        if len(set(after)) != len(after):
            problems.append(f"{where}: two agents share a cell")
        was_at = {c: i for i, c in enumerate(before)}
        for i, (was, now) in enumerate(zip(before, after)):
            if was == now:
                continue
            if i not in movers:
                problems.append(f"{where}: agent {i} moved outside its phase")
                continue
            if i in frozen:
                problems.append(f"{where}: captured attacker {i} left its target")
            if abs(was[0] - now[0]) + abs(was[1] - now[1]) != 1:
                problems.append(f"{where}: agent {i} jumped from {was} to {now}")
            elif not grid.passable(now):
                problems.append(f"{where}: agent {i} entered blocked cell {now}")
            j = was_at.get(now)
            if j is None:
                continue
            if after[j] == now:
                problems.append(f"{where}: agent {i} entered {now} whose occupant {j} stayed")
            elif after[j] == was:
                problems.append(f"{where}: agents {i} and {j} swapped cells")
        if team == "attackers":
            frozen.update(i for i in range(n_attackers) if after[i] == targets[i])
        before = after
        if len(problems) > 20:
            break
    return problems


def objectives(
    grid: Grid,
    n_attackers: int,
    targets: list[Cell],
    time_limit: int,
    phases: list[tuple[int, str, tuple[Cell, ...]]],
) -> tuple[int, int, int, int]:
    """(captured, uncaptured, sum_target_distance, time_at_targets) of a trace.

    phases carries the round number of each entry. An attacker is captured
    in the first round after whose attacker phase it stands on its target;
    an uncaptured attacker adds its bare-map distance to the target, or the
    passable-cell count when the target is out of reach.
    """
    arrival: dict[int, int] = {}
    for round_no, team, positions in phases:
        if team != "attackers":
            continue
        for i in range(n_attackers):
            if i not in arrival and positions[i] == targets[i]:
                arrival[i] = round_no
    final = phases[-1][2]
    sum_dist = 0
    for i in range(n_attackers):
        if i in arrival:
            continue
        dist = grid.distances(targets[i]).get(final[i])
        sum_dist += grid.passable_count if dist is None else dist
    time_at = sum(time_limit - t + 1 for t in arrival.values())
    return len(arrival), n_attackers - len(arrival), sum_dist, time_at


def check_bench_row(
    captured: int,
    uncaptured: int,
    sum_dist: int,
    time_at: int,
    attackers: int,
    passable: int,
    time_limit: int,
) -> list[str]:
    """Invariants every runs.csv row must satisfy."""
    problems = []
    if captured + uncaptured != attackers:
        problems.append(f"captured {captured} + uncaptured {uncaptured} != {attackers} attackers")
    if not uncaptured <= sum_dist <= uncaptured * passable:
        problems.append(f"sum_target_distance {sum_dist} outside [{uncaptured}, {uncaptured * passable}]")
    if not captured <= time_at <= captured * time_limit:
        problems.append(f"time_at_targets {time_at} outside [{captured}, {captured * time_limit}]")
    return problems


# -------- allocation --------


def distance_table(grid: Grid, defenders: list[Cell], targets: list[Cell]) -> list[list[int | None]]:
    """Bare-map distance from every defender start to every target (None = unreachable)."""
    rows = []
    for start in defenders:
        dist = grid.distances(start)
        rows.append([dist.get(t) for t in targets])
    return rows


def greedy_oracle(table: list[list[int | None]]) -> dict[int, int]:
    """Defenders in index order take the nearest free target, ties by target index."""
    taken: set[int] = set()
    out: dict[int, int] = {}
    for d, row in enumerate(table):
        ranked = sorted((dist, t) for t, dist in enumerate(row) if dist is not None)
        for _, t in ranked:
            if t not in taken:
                taken.add(t)
                out[d] = t
                break
    return out


def strict_greedy_oracle(table: list[list[int | None]]) -> dict[int, int]:
    """Sort every (distance, defender, target) triple once and sweep."""
    triples = sorted(
        (dist, d, t) for d, row in enumerate(table) for t, dist in enumerate(row) if dist is not None
    )
    used_d: set[int] = set()
    used_t: set[int] = set()
    out: dict[int, int] = {}
    for _, d, t in triples:
        if d in used_d or t in used_t:
            continue
        out[d] = t
        used_d.add(d)
        used_t.add(t)
    return out


def check_allocation(grid: Grid, n_defenders: int, allocation: dict[int, Cell]) -> list[str]:
    """Injective, keyed by real defender indices, and only on passable cells."""
    problems = []
    bad_keys = sorted(d for d in allocation if not (isinstance(d, int) and 0 <= d < n_defenders))
    if bad_keys:
        problems.append(f"defender indices out of range: {bad_keys[:5]}")
    cells = list(allocation.values())
    if len(set(cells)) != len(cells):
        problems.append("two defenders share an allocated cell")
    blocked = [c for c in cells if not grid.passable(c)]
    if blocked:
        problems.append(f"allocated cells not passable: {blocked[:5]}")
    return problems


def door_cells(grid: Grid) -> list[Cell]:
    """Passable cells of interior columns that hold exactly one passable cell."""
    doors = []
    for x in range(1, grid.width - 1):
        column = [(x, y) for y in range(grid.height) if grid.passable((x, y))]
        if len(column) == 1:
            doors.append(column[0])
    return doors


# -------- QBF and games --------


def qbf_truth(prefix: list[tuple[str, int]], clauses: list[tuple[int, ...]]) -> bool:
    """Evaluate a prenex CNF formula by brute force over its prefix."""

    def value(i: int, assignment: dict[int, bool]) -> bool:
        if i == len(prefix):
            return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)
        quantifier, var = prefix[i]
        branches = (value(i + 1, {**assignment, var: b}) for b in (False, True))
        return any(branches) if quantifier == "e" else all(branches)

    return value(0, {})


def parse_qdimacs_plain(text: str) -> tuple[list[tuple[str, int]], list[tuple[int, ...]]]:
    """Minimal QDIMACS reader for the formulas the benchmark writes itself."""
    prefix: list[tuple[str, int]] = []
    clauses: list[tuple[int, ...]] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] in ("c", "p"):
            continue
        if parts[0] in ("e", "a"):
            prefix.extend((parts[0], int(v)) for v in parts[1:-1])
        else:
            clauses.append(tuple(int(v) for v in parts[:-1]))
    return prefix, clauses


def mirror_cell(cell: Cell, width: int) -> Cell:
    return (width - 1 - cell[0], cell[1])


def check_mirror(original: tuple[str, int], mirrored: tuple[str, int]) -> list[str]:
    """A left-right mirrored game must give the same winner and state count."""
    problems = []
    if original[0] != mirrored[0]:
        problems.append(f"mirror changes the winner: {original[0]} vs {mirrored[0]}")
    if original[1] != mirrored[1]:
        problems.append(f"mirror changes the state count: {original[1]} vs {mirrored[1]}")
    return problems

