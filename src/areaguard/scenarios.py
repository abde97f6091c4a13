"""Instance generation: map construction and seeded agent placement.

Maps come in four kinds: empty, rooms (a grid of rooms joined by one door
per shared wall segment), ruins (a rooms layout with walls shifted in
chunks and partially knocked down, re-connected if the damage cuts the map
apart), and file (a map loaded from disk). Agents are placed uniformly at
random inside per-group rectangles; the defaults put attackers in the left
band and targets in the right band, with defenders sharing the attacker
band ("overlapped") or holding the middle band ("separated").
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from areaguard.grid import Cell, GridMap, load_map
from areaguard.model import Instance

PLACEMENTS = ("overlapped", "separated")
MAP_KINDS = ("empty", "rooms", "ruins", "file")
RUIN_CHUNK_LENGTH = 4


class GenerationError(ValueError):
    """A scenario spec that cannot produce a valid instance."""


@dataclass(frozen=True)
class Rect:
    x: int
    y: int
    width: int
    height: int

    def cells(self) -> Iterator[Cell]:
        for y in range(self.y, self.y + self.height):
            for x in range(self.x, self.x + self.width):
                yield (x, y)

    def contains(self, cell: Cell) -> bool:
        return self.x <= cell[0] < self.x + self.width and self.y <= cell[1] < self.y + self.height


@dataclass(frozen=True)
class MapSpec:
    kind: str
    width: int = 0
    height: int = 0
    rooms_x: int = 1
    rooms_y: int = 1
    door_width: int = 1
    damage_rate: float = 0.0
    jitter: int = 0
    path: str | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    map: MapSpec
    n_attackers: int
    n_defenders: int
    time_limit: int
    placement: str = "overlapped"
    attacker_rect: Rect | None = None
    defender_rect: Rect | None = None
    target_rect: Rect | None = None


def _wall_lines(size: int, rooms: int) -> list[int]:
    return [i * size // rooms for i in range(1, rooms)]


def _runs(length: int, cuts: set[int]) -> list[list[int]]:
    """Maximal runs of 0..length-1 that avoid the cut positions."""
    runs: list[list[int]] = []
    current: list[int] = []
    for i in range(length):
        if i in cuts:
            if current:
                runs.append(current)
                current = []
        else:
            current.append(i)
    if current:
        runs.append(current)
    return runs


def _rooms_blocked(
    width: int,
    height: int,
    rooms_x: int,
    rooms_y: int,
    door_width: int,
    rng: random.Random,
) -> set[Cell]:
    """Wall cells of a rooms layout; consumes one rng draw per door.

    Doors are carved column walls first (left to right, segments top to
    bottom), then row walls (top to bottom, segments left to right), so
    the rng stream is reproducible across map kinds.
    """
    if rooms_x < 1 or rooms_y < 1:
        raise GenerationError("room counts must be at least 1")
    if door_width < 1:
        raise GenerationError("door width must be at least 1")
    vxs = _wall_lines(width, rooms_x)
    hys = _wall_lines(height, rooms_y)
    blocked: set[Cell] = set()
    for vx in vxs:
        blocked.update((vx, y) for y in range(height))
    for hy in hys:
        blocked.update((x, hy) for x in range(width))
    for vx in vxs:
        for seg in _runs(height, set(hys)):
            if door_width >= len(seg):
                raise GenerationError(
                    f"door width {door_width} does not fit a wall segment of {len(seg)} cells"
                )
            start = rng.randrange(len(seg) - door_width + 1)
            for y in seg[start : start + door_width]:
                blocked.discard((vx, y))
    for hy in hys:
        for seg in _runs(width, set(vxs)):
            if door_width >= len(seg):
                raise GenerationError(
                    f"door width {door_width} does not fit a wall segment of {len(seg)} cells"
                )
            start = rng.randrange(len(seg) - door_width + 1)
            for x in seg[start : start + door_width]:
                blocked.discard((x, hy))
    return blocked


def _passable_components(width: int, height: int, blocked: set[Cell]) -> list[set[Cell]]:
    seen: set[Cell] = set()
    components: list[set[Cell]] = []
    for y in range(height):
        for x in range(width):
            cell = (x, y)
            if cell in blocked or cell in seen:
                continue
            comp = {cell}
            queue = deque((cell,))
            while queue:
                cx, cy = queue.popleft()
                for nxt in ((cx, cy - 1), (cx, cy + 1), (cx - 1, cy), (cx + 1, cy)):
                    nx, ny = nxt
                    if 0 <= nx < width and 0 <= ny < height and nxt not in blocked and nxt not in comp:
                        comp.add(nxt)
                        queue.append(nxt)
            seen |= comp
            components.append(comp)
    return components


def _repair_connectivity(width: int, height: int, blocked: set[Cell]) -> set[Cell]:
    """Carve shortest corridors through walls until one passable component.

    Each pass runs a breadth-first search from the first component across
    every in-bounds cell and knocks down the wall cells on the first path
    that reaches a different component.
    """
    while True:
        components = _passable_components(width, height, blocked)
        if len(components) <= 1:
            return blocked
        home = components[0]
        foreign = {c: i for i, comp in enumerate(components[1:], 1) for c in comp}
        parent: dict[Cell, Cell | None] = {}
        queue: deque[Cell] = deque()
        for cell in sorted(home, key=lambda c: (c[1], c[0])):
            parent[cell] = None
            queue.append(cell)
        hit: Cell | None = None
        while queue and hit is None:
            cx, cy = queue.popleft()
            for nxt in ((cx, cy - 1), (cx, cy + 1), (cx - 1, cy), (cx + 1, cy)):
                nx, ny = nxt
                if not (0 <= nx < width and 0 <= ny < height) or nxt in parent:
                    continue
                parent[nxt] = (cx, cy)
                if nxt in foreign:
                    hit = nxt
                    break
                queue.append(nxt)
        assert hit is not None, "disconnected map with no wall path between components"
        step: Cell | None = hit
        while step is not None:
            blocked.discard(step)
            step = parent[step]


def generate_rooms_map(
    width: int,
    height: int,
    rooms_x: int = 1,
    rooms_y: int = 1,
    door_width: int = 1,
    seed: int = 0,
) -> GridMap:
    rng = random.Random(seed)
    blocked = _rooms_blocked(width, height, rooms_x, rooms_y, door_width, rng)
    if len(_passable_components(width, height, blocked)) != 1:
        raise GenerationError("rooms layout came out disconnected")
    return GridMap(width, height, blocked)


def generate_ruins_map(
    width: int,
    height: int,
    rooms_x: int = 1,
    rooms_y: int = 1,
    door_width: int = 1,
    damage_rate: float = 0.0,
    jitter: int = 0,
    seed: int = 0,
) -> GridMap:
    """A rooms layout degraded into ruins.

    The door layout consumes the same rng stream as generate_rooms_map, so
    damage_rate=0 with jitter=0 reproduces that map exactly. Wall chunks
    are then shifted perpendicular to their wall, individual cells are
    knocked out at damage_rate, and any resulting disconnection is repaired
    by carving shortest corridors.
    """
    if not 0.0 <= damage_rate <= 1.0:
        raise GenerationError(f"damage rate must be within [0, 1], got {damage_rate}")
    if jitter < 0:
        raise GenerationError(f"jitter must be non-negative, got {jitter}")
    layout_rng = random.Random(seed)
    blocked = _rooms_blocked(width, height, rooms_x, rooms_y, door_width, layout_rng)
    if damage_rate == 0.0 and jitter == 0:
        if len(_passable_components(width, height, blocked)) != 1:
            raise GenerationError("rooms layout came out disconnected")
        return GridMap(width, height, blocked)

    ruin_rng = random.Random(f"{seed}:ruin")
    vxs = set(_wall_lines(width, rooms_x))
    hys = set(_wall_lines(height, rooms_y))
    if jitter:
        shifted: set[Cell] = set()
        # A cell on a column wall belongs to that column even at a wall
        # crossing, so each cell is shifted exactly once.
        for vx in sorted(vxs):
            ys = sorted(y for (x, y) in blocked if x == vx)
            for run in _consecutive_runs(ys):
                for chunk_start in range(0, len(run), RUIN_CHUNK_LENGTH):
                    chunk = run[chunk_start : chunk_start + RUIN_CHUNK_LENGTH]
                    d = ruin_rng.randint(-jitter, jitter)
                    for y in chunk:
                        if 0 <= vx + d < width:
                            shifted.add((vx + d, y))
        for hy in sorted(hys):
            xs = sorted(x for (x, y) in blocked if y == hy and x not in vxs)
            for run in _consecutive_runs(xs):
                for chunk_start in range(0, len(run), RUIN_CHUNK_LENGTH):
                    chunk = run[chunk_start : chunk_start + RUIN_CHUNK_LENGTH]
                    d = ruin_rng.randint(-jitter, jitter)
                    for x in chunk:
                        if 0 <= hy + d < height:
                            shifted.add((x, hy + d))
        blocked = shifted
    if damage_rate:
        blocked = {
            cell
            for cell in sorted(blocked, key=lambda c: (c[1], c[0]))
            if ruin_rng.random() >= damage_rate
        }
    blocked = _repair_connectivity(width, height, blocked)
    return GridMap(width, height, blocked)


def _consecutive_runs(values: list[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for v in values:
        if runs and runs[-1][-1] == v - 1:
            runs[-1].append(v)
        else:
            runs.append([v])
    return runs


def build_map(spec: MapSpec, seed: int = 0, base_dir: str | Path = ".") -> GridMap:
    if spec.kind == "empty":
        return GridMap(spec.width, spec.height)
    if spec.kind == "rooms":
        return generate_rooms_map(
            spec.width, spec.height, spec.rooms_x, spec.rooms_y, spec.door_width, seed
        )
    if spec.kind == "ruins":
        return generate_ruins_map(
            spec.width,
            spec.height,
            spec.rooms_x,
            spec.rooms_y,
            spec.door_width,
            spec.damage_rate,
            spec.jitter,
            seed,
        )
    if spec.kind == "file":
        if not spec.path:
            raise GenerationError("file map spec needs a path")
        return load_map(Path(base_dir) / spec.path)
    raise GenerationError(f"unknown map kind {spec.kind!r}")


def default_rects(grid: GridMap, placement: str) -> tuple[Rect, Rect, Rect]:
    """Default placement bands: attackers left, targets right.

    Overlapped defenders share the attacker band; separated defenders hold
    the central band between the two.
    """
    band = max(1, grid.width // 4)
    attackers = Rect(0, 0, band, grid.height)
    targets = Rect(grid.width - band, 0, band, grid.height)
    if placement == "overlapped":
        defenders = attackers
    elif placement == "separated":
        defenders = Rect((grid.width - band) // 2, 0, band, grid.height)
    else:
        raise GenerationError(f"unknown placement {placement!r}")
    return attackers, defenders, targets


def _sample_cells(
    rng: random.Random, grid: GridMap, rect: Rect, count: int, used: set[Cell], group: str
) -> list[Cell]:
    pool = [c for c in rect.cells() if grid.in_bounds(c) and grid.is_passable(c) and c not in used]
    if count > len(pool):
        raise GenerationError(
            f"cannot place {count} {group} in a band with {len(pool)} free cells"
        )
    picked = rng.sample(pool, count)
    used.update(picked)
    return picked


def generate_instance(spec: ScenarioSpec, seed: int, base_dir: str | Path = ".") -> Instance:
    """Build the map and place agents; deterministic in (spec, seed)."""
    if spec.n_attackers < 1:
        raise GenerationError("need at least one attacker")
    if spec.n_defenders < 0 or spec.time_limit < 1:
        raise GenerationError("defender count and time limit must be sensible")
    grid = build_map(spec.map, seed, base_dir)
    a_rect, d_rect, t_rect = default_rects(grid, spec.placement)
    a_rect = spec.attacker_rect or a_rect
    d_rect = spec.defender_rect or d_rect
    t_rect = spec.target_rect or t_rect
    rng = random.Random(seed)
    used: set[Cell] = set()
    attacker_starts = _sample_cells(rng, grid, a_rect, spec.n_attackers, used, "attackers")
    defender_starts = _sample_cells(rng, grid, d_rect, spec.n_defenders, used, "defenders")
    targets = _sample_cells(rng, grid, t_rect, spec.n_attackers, used, "targets")
    return Instance(
        world=grid,
        attacker_starts=tuple(attacker_starts),
        attacker_targets=tuple(targets),
        defender_starts=tuple(defender_starts),
        time_limit=spec.time_limit,
        metadata={"map_kind": spec.map.kind, "placement": spec.placement, "seed": seed},
    )


def _rect_to_json(rect: Rect | None) -> list[int] | None:
    return None if rect is None else [rect.x, rect.y, rect.width, rect.height]


def _rect_from_json(doc) -> Rect | None:
    if doc is None:
        return None
    x, y, w, h = doc
    return Rect(int(x), int(y), int(w), int(h))


def spec_to_json(spec: ScenarioSpec) -> dict:
    m = spec.map
    map_doc: dict = {"kind": m.kind}
    if m.kind == "file":
        map_doc["path"] = m.path
    else:
        map_doc["width"] = m.width
        map_doc["height"] = m.height
    if m.kind in ("rooms", "ruins"):
        map_doc["rooms_x"] = m.rooms_x
        map_doc["rooms_y"] = m.rooms_y
        map_doc["door_width"] = m.door_width
    if m.kind == "ruins":
        map_doc["damage_rate"] = m.damage_rate
        map_doc["jitter"] = m.jitter
    doc = {
        "map": map_doc,
        "attackers": spec.n_attackers,
        "defenders": spec.n_defenders,
        "time_limit": spec.time_limit,
        "placement": spec.placement,
    }
    for key, rect in (
        ("attacker_rect", spec.attacker_rect),
        ("defender_rect", spec.defender_rect),
        ("target_rect", spec.target_rect),
    ):
        if rect is not None:
            doc[key] = _rect_to_json(rect)
    return doc


def map_spec_from_json(m: dict) -> MapSpec:
    kind = m["kind"]
    if kind not in MAP_KINDS:
        raise GenerationError(f"unknown map kind {kind!r}")
    return MapSpec(
        kind=kind,
        width=int(m.get("width", 0)),
        height=int(m.get("height", 0)),
        rooms_x=int(m.get("rooms_x", 1)),
        rooms_y=int(m.get("rooms_y", 1)),
        door_width=int(m.get("door_width", 1)),
        damage_rate=float(m.get("damage_rate", 0.0)),
        jitter=int(m.get("jitter", 0)),
        path=m.get("path"),
    )


def spec_from_json(doc: dict) -> ScenarioSpec:
    map_spec = map_spec_from_json(doc["map"])
    placement = doc.get("placement", "overlapped")
    if placement not in PLACEMENTS:
        raise GenerationError(f"unknown placement {placement!r}")
    return ScenarioSpec(
        map=map_spec,
        n_attackers=int(doc["attackers"]),
        n_defenders=int(doc["defenders"]),
        time_limit=int(doc["time_limit"]),
        placement=placement,
        attacker_rect=_rect_from_json(doc.get("attacker_rect")),
        defender_rect=_rect_from_json(doc.get("defender_rect")),
        target_rect=_rect_from_json(doc.get("target_rect")),
    )
