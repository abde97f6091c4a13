"""allocate: defender allocation alone, no simulation.

Instances: 64x64 rooms (3x3 rooms, doors of width 2), 64x64 ruins of the
same layout, and the 48x48 scatter and islands stand-ins, each with 100
attackers against 100, 50 and 10 defenders under both placements (24
instances), plus the two-room chokepoint instance. Maps, attackers and
targets form a fixed corpus; the workload seed draws where the defenders
stand and the random strategy's seed. One round allocates every instance
with each strategy through allocate_for, three times over, and each
allocation counts at its fastest time; one operation is one allocation.
The passes are spread over the run rather than repeated back to back, so
that the fastest time of each allocation comes from a quiet moment of a
shared machine whose speed drifts over seconds.

Why the corpus is fixed: the bottleneck strategy's cost depends on how
many chokepoints it confirms, which swings from 70 ms to 2.4 s between
instances when the map, the attackers or its own seed change, so a run
over seed-drawn instances measures which instances were drawn rather than
the allocator. Defender positions only move its tie-breaks.

Why scatter is not allocated by bottleneck: on scatter maps two chained
bottlenecks can share a cell, and the strategy then posts two defenders on
it (a defect noted in CHANGES.md); whether it happens depends on the draw.
"""
from __future__ import annotations

import dataclasses
import random
import sys
import time
import traceback

import checks
from areaguard import allocate, scenarios
from common import OUT, TWO_ROOM, derive, grid_of, islands_map, scatter_map

STRATEGIES = ("random", "greedy", "strict-greedy", "bottleneck")
DEFENDER_COUNTS = (100, 50, 10)
PLACEMENTS = ("overlapped", "separated")
CORPUS_SEED = 2017
PASSES = 3
LEFT_OUT = {("scatter", "bottleneck")}


def _with_defenders(instance, rect, rng: random.Random):
    """The instance with its defenders redrawn inside rect, clear of every other start and target."""
    grid = instance.world
    used = set(instance.attacker_starts) | set(instance.attacker_targets)
    pool = [c for c in rect.cells() if grid.in_bounds(c) and grid.is_passable(c) and c not in used]
    return dataclasses.replace(instance, defender_starts=tuple(rng.sample(pool, instance.n_defenders)))


def _instances(seed: int, map_dir) -> list[tuple[str, str, object]]:
    """(label, map name, instance) for the whole corpus."""
    S = scenarios
    rooms = S.MapSpec(kind="rooms", width=64, height=64, rooms_x=3, rooms_y=3, door_width=2)
    maps = {
        "rooms64": rooms,
        "ruins64": dataclasses.replace(rooms, kind="ruins", damage_rate=0.15, jitter=1),
        "scatter": S.MapSpec(kind="file", path="scatter.map"),
        "islands": S.MapSpec(kind="file", path="islands.map"),
    }
    rng = random.Random(derive(seed, "defenders"))
    out = []
    for name, map_spec in maps.items():
        for defenders in DEFENDER_COUNTS:
            for placement in PLACEMENTS:
                spec = S.ScenarioSpec(
                    map=map_spec, n_attackers=100, n_defenders=defenders, time_limit=150, placement=placement
                )
                label = f"{name}/{defenders}/{placement}"
                base = S.generate_instance(spec, derive(CORPUS_SEED, label), map_dir)
                rect = S.default_rects(base.world, placement)[1]
                out.append((label, name, _with_defenders(base, rect, rng)))
    two_room = S.spec_from_json(
        {**TWO_ROOM, "attackers": 50, "defenders": 5, "time_limit": 150, "placement": "separated"}
    )
    base = S.generate_instance(two_room, derive(CORPUS_SEED, "tworoom"), map_dir)
    out.append(("tworoom", "tworoom", _with_defenders(base, two_room.defender_rect, rng)))
    return out


class Workload:
    def __init__(self, seed: int):
        self.dir = OUT / f"allocate-{seed}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        (self.dir / "scatter.map").write_text(scatter_map(), encoding="ascii")
        (self.dir / "islands.map").write_text(islands_map(), encoding="ascii")
        self.instances = _instances(seed, self.dir)
        self.ops = [
            (label, instance, strategy, derive(seed if strategy == "random" else CORPUS_SEED, strategy, label))
            for label, map_name, instance in self.instances
            for strategy in STRATEGIES
            if (map_name, strategy) not in LEFT_OUT
        ]
        self.best: dict[tuple[str, str], float] = {}
        self.results: list[dict[tuple[str, str], dict]] = []
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> None:
        """PASSES passes over every allocation, so each is timed PASSES times per run."""
        clock = time.perf_counter
        for _ in range(PASSES):
            results = {}
            for label, instance, strategy, seed in self.ops:
                self.attempted += 1
                start = clock()
                try:
                    allocation = allocate.allocate_for(instance, strategy, seed)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.failed += 1
                    continue
                elapsed = clock() - start
                key = (label, strategy)
                self.best[key] = min(elapsed, self.best.get(key, elapsed))
                results[key] = allocation
            self.results.append(results)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Each allocation counts at its fastest time over the passes."""
        return {"ops_per_s": (len(self.best) / sum(self.best.values()), "1/s")}

    def traced_extras(self) -> tuple[float, dict]:
        start = time.perf_counter()
        self.run_round()
        return time.perf_counter() - start, {}

    def check(self) -> list[str]:
        problems = []
        first = self.results[0]
        for later in self.results[1:]:
            if later != first:
                problems.append("allocations differ between passes")
        for label, _, instance in self.instances:
            grid = grid_of(instance)
            targets = list(instance.attacker_targets)
            table = checks.distance_table(grid, list(instance.defender_starts), targets)
            oracles = {
                "greedy": checks.greedy_oracle(table),
                "strict-greedy": checks.strict_greedy_oracle(table),
            }
            for strategy in STRATEGIES:
                allocation = first.get((label, strategy))
                if allocation is None:
                    continue
                where = f"{label} {strategy}"
                problems += [f"{where}: {p}" for p in checks.check_allocation(grid, instance.n_defenders, allocation)]
                if strategy in oracles:
                    expected = {d: targets[t] for d, t in oracles[strategy].items()}
                    if allocation != expected:
                        problems.append(f"{where}: differs from the sorted-table oracle")
                if strategy == "random":
                    if len(allocation) != min(instance.n_defenders, instance.n_attackers) or not set(
                        allocation.values()
                    ) <= set(targets):
                        problems.append(f"{where}: not a draw of distinct attacker targets")
                if strategy == "bottleneck":
                    if instance.n_defenders <= instance.n_attackers and set(allocation) != set(
                        range(instance.n_defenders)
                    ):
                        problems.append(f"{where}: leaves defenders unassigned")
                    if label == "tworoom":
                        missing = [c for c in checks.door_cells(grid) if c not in allocation.values()]
                        if missing or not checks.door_cells(grid):
                            problems.append(f"{where}: door cells {missing} are not held")
        return problems
