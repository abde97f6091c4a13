"""Paths, seeded input helpers and the round loop shared by the workloads."""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
STANDIN_SIZE = 48
# The two-room chokepoint of acceptance criterion 4, in bench-config form:
# one 1-cell door at x=22, attackers in the left room, targets in the right.
TWO_ROOM = {
    "map": {"kind": "rooms", "width": 44, "height": 12, "rooms_x": 2, "rooms_y": 1, "door_width": 1},
    "attacker_rect": [2, 1, 5, 10],
    "defender_rect": [23, 1, 2, 10],
    "target_rect": [32, 1, 10, 10],
}


def manifest() -> dict:
    """BENCHMARK.json at the root of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def require_checkout() -> None:
    """Put the package source on the path, or stop when it is missing."""
    if not (SRC / "areaguard" / "__init__.py").is_file():
        sys.stderr.write(f"error: no areaguard package under {SRC}; run from a full checkout\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive(seed: int, *parts: object) -> int:
    """A 32-bit seed that depends on the workload seed and a label."""
    text = "|".join(str(p) for p in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")


def _keep_largest_component(size: int, blocked: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Block every passable cell outside the largest component."""
    grid = checks.Grid(size, size, blocked)
    seen: set[tuple[int, int]] = set()
    components = []
    for y in range(size):
        for x in range(size):
            if (x, y) in seen or (x, y) in blocked:
                continue
            comp = set(grid.distances((x, y)))
            seen |= comp
            components.append(comp)
    largest = max(components, key=len)
    return {(x, y) for y in range(size) for x in range(size) if (x, y) not in largest}


def islands_map(layout: int = 101) -> str:
    """48x48 map with a dozen irregular obstacle islands (the islands stand-in recipe).

    The layout is fixed by default, like the committed stand-in: the
    workload seed draws the agents, not the map.
    """
    rng = random.Random(derive(layout, "islands"))
    size = STANDIN_SIZE
    blocked: set[tuple[int, int]] = set()
    for _ in range(12):
        cx, cy = rng.randrange(4, size - 4), rng.randrange(4, size - 4)
        rx, ry = rng.randint(2, 5), rng.randint(2, 5)
        for y in range(cy - ry, cy + ry + 1):
            for x in range(cx - rx, cx + rx + 1):
                if 0 <= x < size and 0 <= y < size:
                    dx, dy = (x - cx) / rx, (y - cy) / ry
                    if dx * dx + dy * dy <= 1.0 + rng.uniform(-0.2, 0.2):
                        blocked.add((x, y))
    return _map_text(size, _keep_largest_component(size, blocked))


def scatter_map(layout: int = 202) -> str:
    """48x48 map strewn with small debris blobs (the scatter stand-in recipe), fixed layout."""
    rng = random.Random(derive(layout, "scatter"))
    size = STANDIN_SIZE
    blocked: set[tuple[int, int]] = set()
    for _ in range(220):
        x, y = rng.randrange(size), rng.randrange(size)
        blocked.add((x, y))
        for _ in range(rng.randint(0, 2)):
            dx, dy = rng.choice(((0, 1), (0, -1), (1, 0), (-1, 0)))
            if 0 <= x + dx < size and 0 <= y + dy < size:
                x, y = x + dx, y + dy
                blocked.add((x, y))
    return _map_text(size, _keep_largest_component(size, blocked))


def _map_text(size: int, blocked: set[tuple[int, int]]) -> str:
    rows = ["".join("@" if (x, y) in blocked else "." for x in range(size)) for y in range(size)]
    return f"type octile\nheight {size}\nwidth {size}\nmap\n" + "\n".join(rows) + "\n"


def grid_of(instance) -> checks.Grid:
    world = instance.world
    return checks.Grid(world.width, world.height, world.blocked)


def run_rounds(one_round, seconds: float) -> None:
    """Run whole rounds (calls of one_round) until another would overrun the time; at least one."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


