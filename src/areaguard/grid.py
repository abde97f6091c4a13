"""Grid maps and 4-connected search primitives.

Maps follow the movingAI .map layout: a four-line header (type / height /
width / map) followed by one character per cell, row by row. Coordinates
are (x, y) tuples with x as the column and y as the row; (0, 0) is the
top-left corner and y grows downward. All searches expand neighbors in the
fixed order N, S, W, E so tie-breaking is deterministic everywhere.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

Cell = tuple[int, int]

PASSABLE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTW")


class MapFormatError(ValueError):
    """Raised when .map text does not follow the expected layout."""


class GridMap:
    """Immutable rectangular grid with a set of blocked cells.

    A flat neighbor table is precomputed per instance so breadth-first
    searches run on integer indices. Treat all attributes as read-only.
    """

    __slots__ = ("width", "height", "blocked", "_nbr", "_passable")

    def __init__(self, width: int, height: int, blocked: Iterable[Cell] = ()):
        if width < 1 or height < 1:
            raise ValueError(f"map dimensions must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self.blocked = frozenset(blocked)
        for x, y in self.blocked:
            if not (0 <= x < width and 0 <= y < height):
                raise ValueError(f"blocked cell ({x}, {y}) outside {width}x{height} map")
        n = width * height
        passable = bytearray([1]) * n
        for x, y in self.blocked:
            passable[x + y * width] = 0
        # Per-cell passable neighbor indices, N/S/W/E order.
        nbr: list[tuple[int, ...]] = []
        for i in range(n):
            if not passable[i]:
                nbr.append(())
                continue
            x = i % width
            y = i // width
            out = []
            if y > 0 and passable[i - width]:
                out.append(i - width)
            if y < height - 1 and passable[i + width]:
                out.append(i + width)
            if x > 0 and passable[i - 1]:
                out.append(i - 1)
            if x < width - 1 and passable[i + 1]:
                out.append(i + 1)
            nbr.append(tuple(out))
        self._nbr = nbr
        self._passable = passable

    def in_bounds(self, c: Cell) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def is_passable(self, c: Cell) -> bool:
        x, y = c
        return 0 <= x < self.width and 0 <= y < self.height and bool(self._passable[x + y * self.width])

    def index(self, c: Cell) -> int:
        return c[0] + c[1] * self.width

    def cell(self, i: int) -> Cell:
        return (i % self.width, i // self.width)

    def neighbors(self, c: Cell) -> list[Cell]:
        """Passable 4-neighbors of c in N, S, W, E order."""
        w = self.width
        return [(i % w, i // w) for i in self._nbr[c[0] + c[1] * w]]

    def passable_cells(self) -> Iterator[Cell]:
        """All passable cells in row-major (y, then x) order."""
        w = self.width
        p = self._passable
        for i in range(w * self.height):
            if p[i]:
                yield (i % w, i // w)

    def nodes(self) -> Iterator[Cell]:
        return self.passable_cells()

    @property
    def passable_count(self) -> int:
        return sum(self._passable)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridMap):
            return NotImplemented
        return (self.width, self.height, self.blocked) == (other.width, other.height, other.blocked)

    def __hash__(self) -> int:
        return hash((self.width, self.height, self.blocked))

    def __repr__(self) -> str:
        return f"GridMap({self.width}x{self.height}, {len(self.blocked)} blocked)"


def parse_map(text: str) -> GridMap:
    """Parse movingAI .map text into a GridMap.

    Expected layout: "type octile" / "height H" / "width W" / "map" and then
    exactly H rows of exactly W characters. Passable characters are . and G;
    blocked are @, O, T and W. Anything else raises MapFormatError naming the
    offending line (and column for cell characters).
    """
    lines = text.split("\n")
    lines = [ln.rstrip("\r") for ln in lines]
    # Drop trailing blank lines so files ending in a newline are fine.
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4:
        raise MapFormatError("map text ends before the 4-line header is complete")

    def header(idx: int, key: str) -> str:
        parts = lines[idx].split()
        if len(parts) != 2 or parts[0] != key:
            raise MapFormatError(f"line {idx + 1}: expected '{key} <value>', got {lines[idx]!r}")
        return parts[1]

    map_type = header(0, "type")
    if map_type != "octile":
        raise MapFormatError(f"line 1: unsupported map type {map_type!r}")
    try:
        height = int(header(1, "height"))
        width = int(header(2, "width"))
    except ValueError as exc:
        raise MapFormatError(f"non-integer map dimension: {exc}") from None
    if height < 1 or width < 1:
        raise MapFormatError(f"map dimensions must be positive, got {width}x{height}")
    if lines[3].strip() != "map":
        raise MapFormatError(f"line 4: expected 'map', got {lines[3]!r}")
    rows = lines[4:]
    if len(rows) != height:
        raise MapFormatError(f"expected {height} map rows, found {len(rows)}")
    blocked: list[Cell] = []
    for y, row in enumerate(rows):
        if len(row) != width:
            raise MapFormatError(f"line {y + 5}: row has {len(row)} characters, expected {width}")
        for x, ch in enumerate(row):
            if ch in BLOCKED_CHARS:
                blocked.append((x, y))
            elif ch not in PASSABLE_CHARS:
                raise MapFormatError(f"line {y + 5}, column {x + 1}: unknown terrain character {ch!r}")
    return GridMap(width, height, blocked)


def load_map(path: str) -> GridMap:
    with open(path, "r", encoding="ascii") as fh:
        return parse_map(fh.read())


def dump_map(grid: GridMap) -> str:
    """Render a GridMap back to movingAI .map text ('.' and '@' cells)."""
    out = [f"type octile", f"height {grid.height}", f"width {grid.width}", "map"]
    blocked = grid.blocked
    for y in range(grid.height):
        out.append("".join("@" if (x, y) in blocked else "." for x in range(grid.width)))
    return "\n".join(out) + "\n"


def shortest_path(
    grid: GridMap, src: Cell, dst: Cell, forbidden: Iterable[Cell] = ()
) -> list[Cell] | None:
    """Shortest 4-connected path from src to dst, or None if unreachable.

    The returned path includes both endpoints. Cells in forbidden are
    excluded from the search, except src itself (a cell is never an obstacle
    to its own occupant). Ties between equal-length paths resolve by the
    N, S, W, E expansion order of the underlying breadth-first search.
    """
    return find_path(grid, src, dst, forbidden)[0]


def find_path(
    grid: GridMap, src: Cell, dst: Cell, forbidden: Iterable[Cell] = ()
) -> tuple[list[Cell] | None, set[int] | None]:
    """shortest_path variant that reports the searched region on failure.

    Returns (path, None) when a route exists. When the search exhausts
    without reaching dst it returns (None, region) where region is the set
    of cell indices reachable from src with forbidden treated as blocked;
    src is included. When dst itself is forbidden no search runs and the
    result is (None, None).
    """
    if not grid.is_passable(src):
        raise ValueError(f"path source {src} is not passable")
    if not grid.is_passable(dst):
        raise ValueError(f"path target {dst} is not passable")
    if src == dst:
        return [src], None
    if not isinstance(forbidden, (set, frozenset)):
        forbidden = tuple(forbidden)
    if dst in forbidden:
        return None, None
    w = grid.width
    h = grid.height
    si = src[0] + src[1] * w
    di = dst[0] + dst[1] * w
    # parent values: -3 forbidden, -2 unvisited, -1 search root, >=0 parent index.
    parent = [-2] * (w * h)
    for x, y in forbidden:
        if 0 <= x < w and 0 <= y < h:
            parent[x + y * w] = -3
    parent[si] = -1
    queue = [si]
    nbr = grid._nbr
    push = queue.append
    # Iterating the list while appending to it visits cells in FIFO order.
    for u in queue:
        for v in nbr[u]:
            if parent[v] != -2:
                continue
            parent[v] = u
            if v == di:
                path = []
                cur = v
                while cur != -1:
                    path.append((cur % w, cur // w))
                    cur = parent[cur]
                path.reverse()
                return path, None
            push(v)
    # The queue holds exactly the claimed cells, src first.
    return None, set(queue)


def bfs_distance_table(grid: GridMap, src: Cell, forbidden: Iterable[Cell] = ()) -> list[int]:
    """BFS distances from src as a flat list indexed like grid.index.

    Unreachable, blocked and forbidden cells all hold -1. Cheaper than
    bfs_distances when only a few cells are probed afterwards.
    """
    if not grid.is_passable(src):
        raise ValueError(f"distance source {src} is not passable")
    w = grid.width
    h = grid.height
    si = src[0] + src[1] * w
    # dist values: -2 forbidden, -1 unvisited, >=0 distance from src.
    dist = [-1] * (w * h)
    marked = False
    for x, y in forbidden:
        if 0 <= x < w and 0 <= y < h:
            dist[x + y * w] = -2
            marked = True
    dist[si] = 0
    queue = [si]
    nbr = grid._nbr
    push = queue.append
    for u in queue:
        du = dist[u] + 1
        for v in nbr[u]:
            if dist[v] == -1:
                dist[v] = du
                push(v)
    if marked:
        return [-1 if d == -2 else d for d in dist]
    return dist


def bfs_distances(grid: GridMap, src: Cell, forbidden: Iterable[Cell] = ()) -> dict[Cell, int]:
    """Map of every reachable cell to its BFS distance from src.

    Unreachable cells are absent. forbidden cells (except src) are treated
    as blocked.
    """
    w = grid.width
    table = bfs_distance_table(grid, src, forbidden)
    return {(i % w, i // w): d for i, d in enumerate(table) if d >= 0}


_OFFSETS8 = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (1, -1), (-1, 1), (1, 1))


def obstacle_components(cells: Iterable[Cell]) -> list[set[Cell]]:
    """Partition cells into 8-connected components.

    Two cells belong to the same component when they touch at an edge or a
    corner. Input cells may lie anywhere, including outside any map (used
    for implicit border obstacles). Components come back ordered by their
    smallest member in (y, x) order.
    """
    remaining = set(cells)
    out: list[set[Cell]] = []
    for seed in sorted(remaining, key=lambda c: (c[1], c[0])):
        if seed not in remaining:
            continue
        comp = {seed}
        remaining.discard(seed)
        queue = deque((seed,))
        while queue:
            cx, cy = queue.popleft()
            for dx, dy in _OFFSETS8:
                nxt = (cx + dx, cy + dy)
                if nxt in remaining:
                    remaining.discard(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        out.append(comp)
    return out
