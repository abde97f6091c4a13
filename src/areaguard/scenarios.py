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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from areaguard.grid import Cell, GridMap, bfs_distance_table, load_map, nearest_target_path
from areaguard.model import REQUIRED, Instance, read_json_object

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
    if width < 1 or height < 1:
        raise GenerationError(f"map dimensions must be positive, got {width}x{height}")
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
    # Wall segments run between crossings and borders.
    col_segs = _consecutive_runs([y for y in range(height) if y not in hys])
    row_segs = _consecutive_runs([x for x in range(width) if x not in vxs])
    walls = [[(vx, y) for y in seg] for vx in vxs for seg in col_segs]
    walls += [[(x, hy) for x in seg] for hy in hys for seg in row_segs]
    for wall in walls:
        if door_width >= len(wall):
            raise GenerationError(
                f"door width {door_width} does not fit a wall segment of {len(wall)} cells"
            )
        start = rng.randrange(len(wall) - door_width + 1)
        blocked.difference_update(wall[start : start + door_width])
    return blocked


def _home_component(grid: GridMap) -> list[int] | None:
    """Distances from the first passable cell (row-major), -1 outside its
    component; None when that flood reaches every passable cell or there is
    no passable cell."""
    first = next(grid.passable_cells(), None)
    if first is None:
        return None
    table = bfs_distance_table(grid, first)
    if len(table) - table.count(-1) == grid.passable_count:
        return None
    return table


def _repair_connectivity(width: int, height: int, blocked: set[Cell]) -> GridMap:
    """Carve shortest corridors through walls until one passable component.

    Each pass searches from the home component (the first passable cell's)
    across every in-bounds cell and removes from blocked the wall cells on
    the first path that reaches a passable cell outside it.
    """
    while True:
        grid = GridMap(width, height, blocked)
        home = _home_component(grid)
        if home is None:
            return grid
        path = nearest_target_path(
            [grid.cell(i) for i, d in enumerate(home) if d >= 0],
            grid.in_bounds,
            lambda c: grid.is_passable(c) and home[grid.index(c)] < 0,
        )
        assert path is not None, "disconnected map with no wall path between components"
        blocked.difference_update(path)


def generate_rooms_map(
    width: int,
    height: int,
    rooms_x: int = 1,
    rooms_y: int = 1,
    door_width: int = 1,
    seed: int = 0,
) -> GridMap:
    """A rooms layout: generate_ruins_map without damage or jitter."""
    return generate_ruins_map(width, height, rooms_x, rooms_y, door_width, seed=seed)


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

    With damage_rate=0 and jitter=0 this is the plain rooms layout, which
    must come out connected. Otherwise wall chunks are shifted
    perpendicular to their wall, individual cells are knocked out at
    damage_rate, and any resulting disconnection is repaired by carving
    shortest corridors.
    """
    if not 0.0 <= damage_rate <= 1.0:
        raise GenerationError(f"damage rate must be within [0, 1], got {damage_rate}")
    if jitter < 0:
        raise GenerationError(f"jitter must be non-negative, got {jitter}")
    layout_rng = random.Random(seed)
    blocked = _rooms_blocked(width, height, rooms_x, rooms_y, door_width, layout_rng)
    if damage_rate == 0.0 and jitter == 0:
        grid = GridMap(width, height, blocked)
        if not grid.passable_count or _home_component(grid) is not None:
            raise GenerationError("rooms layout came out disconnected")
        return grid

    ruin_rng = random.Random(f"{seed}:ruin")
    vxs = set(_wall_lines(width, rooms_x))
    hys = set(_wall_lines(height, rooms_y))
    if jitter:
        # (wall line, is a column, positions along it). A cell on a column
        # wall belongs to that column even at a wall crossing, so each cell
        # is shifted exactly once.
        lines = [(vx, True, sorted(y for (x, y) in blocked if x == vx)) for vx in sorted(vxs)]
        lines += [
            (hy, False, sorted(x for (x, y) in blocked if y == hy and x not in vxs))
            for hy in sorted(hys)
        ]
        shifted: set[Cell] = set()
        for at, column, along in lines:
            for run in _consecutive_runs(along):
                for chunk_start in range(0, len(run), RUIN_CHUNK_LENGTH):
                    d = ruin_rng.randint(-jitter, jitter)
                    for i in run[chunk_start : chunk_start + RUIN_CHUNK_LENGTH]:
                        x, y = (at + d, i) if column else (i, at + d)
                        if 0 <= x < width and 0 <= y < height:
                            shifted.add((x, y))
        blocked = shifted
    if damage_rate:
        blocked = {
            cell
            for cell in sorted(blocked, key=lambda c: (c[1], c[0]))
            if ruin_rng.random() >= damage_rate
        }
    return _repair_connectivity(width, height, blocked)


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


def _rect(value: object, where: str) -> Rect | None:
    """A rect field: [x, y, width, height] as four integers, or null."""
    if value is None:
        return None
    if not (isinstance(value, list) and len(value) == 4 and all(type(v) is int for v in value)):
        raise ValueError(f"{where} must be a list of four integers, got {value!r}")
    return Rect(*value)


_MAP_SPEC_FIELDS = (
    ("kind", str, REQUIRED),
    ("width", int, 0),
    ("height", int, 0),
    ("rooms_x", int, 1),
    ("rooms_y", int, 1),
    ("door_width", int, 1),
    ("damage_rate", float, 0.0),
    ("jitter", int, 0),
    ("path", str, None),
)
RECT_FIELDS = (
    ("attacker_rect", _rect, None),
    ("defender_rect", _rect, None),
    ("target_rect", _rect, None),
)
_SPEC_FIELDS = (
    # Errors inside a scenario spec's map name the "map spec".
    ("map", lambda value, where: map_spec_from_json(value), REQUIRED),
    ("attackers", int, REQUIRED),
    ("defenders", int, REQUIRED),
    ("time_limit", int, REQUIRED),
    ("placement", str, "overlapped"),
    *RECT_FIELDS,
)


def map_spec_from_json(m: dict, where: str = "map spec") -> MapSpec:
    spec = MapSpec(**read_json_object(m, where, _MAP_SPEC_FIELDS))
    if spec.kind not in MAP_KINDS:
        raise GenerationError(f"unknown map kind {spec.kind!r}")
    return spec


def spec_from_json(doc: dict) -> ScenarioSpec:
    fields = read_json_object(doc, "scenario spec", _SPEC_FIELDS)
    if fields["placement"] not in PLACEMENTS:
        raise GenerationError(f"unknown placement {fields['placement']!r}")
    return ScenarioSpec(
        n_attackers=fields.pop("attackers"), n_defenders=fields.pop("defenders"), **fields
    )
