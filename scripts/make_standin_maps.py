"""Generate the synthetic stand-in maps committed under maps/.

Both maps are 48x48 and connected. islands_standin.map carries a few
larger irregular obstacle islands; scatter_standin.map carries many small
debris blobs. Rerunning this script reproduces the committed files
byte for byte.
"""
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from areaguard.grid import GridMap, bfs_distance_table, dump_map
from areaguard.scenarios import _repair_connectivity

SIZE = 48


def islands(seed: int) -> GridMap:
    rng = random.Random(seed)
    blocked = set()
    for _ in range(12):
        cx, cy = rng.randrange(4, SIZE - 4), rng.randrange(4, SIZE - 4)
        rx, ry = rng.randint(2, 5), rng.randint(2, 5)
        for y in range(cy - ry, cy + ry + 1):
            for x in range(cx - rx, cx + rx + 1):
                if 0 <= x < SIZE and 0 <= y < SIZE:
                    dx, dy = (x - cx) / rx, (y - cy) / ry
                    if dx * dx + dy * dy <= 1.0 + rng.uniform(-0.2, 0.2):
                        blocked.add((x, y))
    return _repair_connectivity(SIZE, SIZE, blocked)


def scatter(seed: int) -> GridMap:
    rng = random.Random(seed)
    blocked = set()
    for _ in range(220):
        x, y = rng.randrange(SIZE), rng.randrange(SIZE)
        blocked.add((x, y))
        for _ in range(rng.randint(0, 2)):
            dx, dy = rng.choice([(0, 1), (0, -1), (1, 0), (-1, 0)])
            nx, ny = x + dx, y + dy
            if 0 <= nx < SIZE and 0 <= ny < SIZE:
                blocked.add((nx, ny))
                x, y = nx, ny
    return _repair_connectivity(SIZE, SIZE, blocked)


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "maps"
    out_dir.mkdir(exist_ok=True)
    for name, grid in (("islands_standin.map", islands(101)), ("scatter_standin.map", scatter(202))):
        reached = bfs_distance_table(grid, next(grid.passable_cells()))
        assert sum(d >= 0 for d in reached) == grid.passable_count
        free = grid.passable_count / (SIZE * SIZE)
        (out_dir / name).write_text(dump_map(grid), encoding="ascii")
        print(f"{name}: {grid.passable_count} passable ({free:.0%})")


if __name__ == "__main__":
    main()
