"""Grid maps and 4-connected search primitives.

Maps follow the movingAI .map layout: a four-line header (type / height /
width / map) followed by one character per cell, row by row. Coordinates
are (x, y) tuples with x as the column and y as the row; (0, 0) is the
top-left corner and y grows downward. All searches expand neighbors in the
fixed order N, S, W, E so tie-breaking is deterministic everywhere.

The distance searches also run on a model.AdjacencyGraph, which offers the
same integer interface: index(node), cell(i) and the neighbor-index table.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

if TYPE_CHECKING:
    from areaguard.model import World

Cell = tuple[int, int]

PASSABLE_CHARS = frozenset(".G")
BLOCKED_CHARS = frozenset("@OTW")

# Bits of search layers one find_path call may hold, 64 KiB; find_path says why.
BIT_BUDGET = 1 << 19

_BYTE_TO_DIGIT = bytes.maketrans(b"\0\1", b"01")


def _pack(flags: bytes | bytearray) -> int:
    """Bitmask with bit i set where flags[i] is 1 (flags holds only 0s and 1s)."""
    return int(flags[::-1].translate(_BYTE_TO_DIGIT), 2)


class MapFormatError(ValueError):
    """Raised when .map text does not follow the expected layout."""


class GridMap:
    """Immutable rectangular grid with a set of blocked cells.

    A flat neighbor table is precomputed per instance so breadth-first
    searches run on integer indices, and so are three cell bitmasks for
    find_path, bit i standing for cell i: the passable cells, the ones a
    west step may land on (not in the last column, which a one-bit shift
    would wrap into) and the ones an east step may land on (not in the
    first column). Nothing is cached on the grid after construction; treat
    all attributes as read-only.
    """

    __slots__ = ("width", "height", "blocked", "_nbr", "_passable", "_bits", "_west", "_east")

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
        west = bytearray(passable)
        west[width - 1 :: width] = bytes(height)
        east = bytearray(passable)
        east[::width] = bytes(height)
        self._bits = _pack(passable)
        self._west = _pack(west)
        self._east = _pack(east)

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
    return parse_rows(rows, width, first_line=5)


def parse_rows(rows: list[str], width: int = 0, first_line: int = 0) -> GridMap:
    """GridMap from map rows without a header, one character per cell.

    width defaults to the first row's length. Errors name row y as file
    line first_line + y when first_line is given, else as map row y + 1.
    """
    width = width or (len(rows[0]) if rows else 0)
    if width < 1:
        raise MapFormatError(f"map dimensions must be positive, got {width}x{len(rows)}")
    blocked: list[Cell] = []
    for y, row in enumerate(rows):
        where = f"line {first_line + y}" if first_line else f"map row {y + 1}"
        if len(row) != width:
            raise MapFormatError(f"{where}: row has {len(row)} characters, expected {width}")
        for x, ch in enumerate(row):
            if ch in BLOCKED_CHARS:
                blocked.append((x, y))
            elif ch not in PASSABLE_CHARS:
                raise MapFormatError(f"{where}, column {x + 1}: unknown terrain character {ch!r}")
    return GridMap(width, len(rows), blocked)


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
    grid: GridMap,
    src: Cell,
    dst: Cell,
    forbidden: Iterable[Cell] = (),
    free: int | None = None,
) -> tuple[list[Cell] | None, list[int] | None]:
    """shortest_path variant that reports the searched region on failure.

    Returns (path, None) when a route exists. When the search exhausts
    without reaching dst it returns (None, region) where region lists the
    indices of the cells reachable from src with forbidden treated as
    blocked, each once, src first. When dst itself is forbidden no search
    runs and the result is (None, None). free, if given, must be
    free_mask(grid, forbidden); callers that search many times against one
    forbidden set pack it once and pass it in.

    The search first grows the cells 1, 2, 3, ... steps from dst as
    bitmasks, one int bit per cell: layer k+1 is the free 4-neighbors of
    layer k that no earlier layer holds (in an undirected graph, those
    outside layers k and k-1), and a neighbor set is four shifts, a row
    north or south and a bit west or east. Once src touches the newest
    layer, the path steps from src to its first N, S, W, E neighbor in each
    earlier layer in turn. That is the first shortest path in N<S<W<E move
    order, the one the list breadth-first search from src returns.

    The walk needs every layer, and each is an int as wide as the map, so a
    search grows at most BIT_BUDGET // (width*height) layers: 270 on a
    44x44 map, 128 on 64x64, 2 on 512x512, none past 2**19 cells. A search
    that reaches that bound, or whose layers run out because dst's side
    holds no route, hands over to the list breadth-first search from src,
    which also yields the failed region, and the bitmasks are dropped
    before it starts. When src and dst are more steps apart on the bare
    grid (Manhattan distance) than that bound, the layers are skipped. So
    the kept layers never exceed 64 KiB, and the time they take is bounded
    on any map. The budget is that size because nearly every replan on
    the paper's 44-64 cell wide maps fits in it, while it stays below the
    list search's own parent table, 8 bytes a cell, on any map of more
    than 8,192 cells.
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
    max_layers = BIT_BUDGET // len(grid._nbr)
    # No route is shorter than the Manhattan distance.
    if abs(src[0] - dst[0]) + abs(src[1] - dst[1]) <= max_layers:
        # A mask packed here is dropped before any flood.
        if free is None:
            free = free_mask(grid, forbidden)
        path = _layered_path(grid, src, dst, free, max_layers)
        del free
        if path is not None:
            return path, None
    return _flood(grid, src, dst, forbidden)


def free_mask(grid: GridMap, forbidden: Iterable[Cell]) -> int:
    """Bitmask of grid's passable cells not in forbidden (bit i is cell i)."""
    if not forbidden:
        return grid._bits
    w, h = grid.width, grid.height
    marks = bytearray((w * h + 7) >> 3)
    for x, y in forbidden:
        if 0 <= x < w and 0 <= y < h:
            i = x + y * w
            marks[i >> 3] |= 1 << (i & 7)
    return grid._bits & ~int.from_bytes(marks, "little")


def _layered_path(grid: GridMap, src: Cell, dst: Cell, free: int, max_layers: int) -> list[Cell] | None:
    """find_path's bitmask search: the path, or None past max_layers or without a route."""
    w = grid.width
    west = grid._west
    east = grid._east
    src_bit = 1 << (src[0] + src[1] * w)
    layer = 1 << (dst[0] + dst[1] * w)
    unseen = free & ~layer
    layers = []
    for _ in range(max_layers):
        layers.append(layer)
        near = (layer >> w) | (layer << w) | (layer >> 1 & west) | (layer << 1 & east)
        if near & src_bit:
            nbr = grid._nbr
            path = [src]
            here = src[0] + src[1] * w
            for layer in reversed(layers):
                for here in nbr[here]:
                    if layer >> here & 1:
                        break
                path.append((here % w, here // w))
            return path
        layer = near & unseen
        if not layer:
            return None
        unseen ^= layer
    return None


def _flood(
    grid: GridMap, src: Cell, dst: Cell, forbidden: Iterable[Cell]
) -> tuple[list[Cell] | None, list[int] | None]:
    """find_path's list breadth-first search from src; takes the same checked arguments."""
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
    return None, queue


def bfs_distance_table(world: World, src, forbidden: Iterable = ()) -> list[int]:
    """BFS distances from src as a flat list indexed like world.index.

    world is a GridMap or a model.AdjacencyGraph. Unreachable, blocked and
    forbidden nodes all hold -1; src itself is never forbidden. Cheaper
    than bfs_distances when only a few nodes are probed afterwards.
    """
    if not world.is_passable(src):
        raise ValueError(f"distance source {src} is not passable")
    nbr = world._nbr
    index = world.index
    # dist values: -2 forbidden, -1 unvisited, >=0 distance from src.
    dist = [-1] * len(nbr)
    marked = False
    for node in forbidden:
        if world.is_passable(node):
            dist[index(node)] = -2
            marked = True
    si = index(src)
    dist[si] = 0
    queue = [si]
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


def bfs_distances(world: World, src, forbidden: Iterable = ()) -> dict:
    """Map of every node reachable from src to its BFS distance.

    world is a GridMap or a model.AdjacencyGraph. Unreachable nodes are
    absent; forbidden nodes (except src) are treated as blocked.
    """
    node = world.cell
    table = bfs_distance_table(world, src, forbidden)
    return {node(i): d for i, d in enumerate(table) if d >= 0}


def nearest_target_path(
    sources: Iterable[Cell],
    allowed: Callable[[Cell], bool],
    is_target: Callable[[Cell], bool],
) -> list[Cell] | None:
    """Shortest 4-connected path, source first, from any source to a target.

    A multi-source breadth-first search over coordinates, not over a map:
    sources queue in the given order, a cell is entered only when allowed,
    and neighbors expand N, S, W, E, so ties go to the first path found.
    The first source that is a target is a one-cell path; None when no
    target is reachable.
    """
    parent: dict[Cell, Cell | None] = {}
    for s in sources:
        if is_target(s):
            return [s]
        parent[s] = None
    queue = list(parent)
    # Iterating the list while appending to it visits cells in FIFO order.
    for here in queue:
        x, y = here
        for nxt in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
            if nxt in parent or not allowed(nxt):
                continue
            parent[nxt] = here
            if is_target(nxt):
                path = [nxt]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nxt)
    return None


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
