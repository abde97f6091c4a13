"""solve: the QBF reduction and the exact decision-game solver.

Set-up reduces the false formula "forall x1. (x1)" to a graph game
(23 nodes) and generates a 5x3 two-versus-two grid game from the seed,
plus its left-right mirror image and the eight hand-solved micro games.
One round solves every game twice, in two passes, and each game counts
at its faster solve, which filters the bursts of contention of a shared
machine; one operation is one solve. A round takes 30 to 45 s on two
cores, so a run of 45 s does one round, and every run takes the minimum
over the same number of solves.
"""
from __future__ import annotations

import sys
import time
import traceback

import checks
from areaguard import grid as ag_grid
from areaguard import model, qbf, scenarios, solver
from common import derive

FORMULA = "p cnf 1 1\na 1 0\n1 0\n"
PASSES = 2

# (name, rows, attacker starts, targets, defender starts, winner), solved by hand.
MICRO_GAMES = [
    ("unopposed corridor", ["...."], [(0, 0)], [(3, 0)], [], "attackers"),
    ("defender parked on target", ["...."], [(0, 0)], [(3, 0)], [(3, 0)], "defenders"),
    ("corridor sealed midway", ["......"], [(0, 0)], [(5, 0)], [(3, 0)], "defenders"),
    ("defender trails behind", ["...."], [(1, 0)], [(3, 0)], [(0, 0)], "attackers"),
    ("attacker starts on target", ["..."], [(0, 0)], [(0, 0)], [(2, 0)], "attackers"),
    ("defender reaches target first", ["..", ".."], [(0, 0)], [(1, 1)], [(1, 0)], "defenders"),
    ("attacker wins the race by phase order", ["......."], [(0, 0)], [(3, 0)], [(6, 0)], "attackers"),
    ("defenders wall the corridor", ["...", "..."], [(0, 0)], [(2, 0)], [(1, 0), (1, 1)], "defenders"),
]


def _grid_game(seed: int):
    spec = scenarios.ScenarioSpec(
        map=scenarios.MapSpec(kind="empty", width=5, height=3),
        n_attackers=2,
        n_defenders=2,
        time_limit=1,
        attacker_rect=scenarios.Rect(0, 0, 1, 3),
        defender_rect=scenarios.Rect(2, 0, 1, 3),
        target_rect=scenarios.Rect(4, 0, 1, 3),
    )
    return scenarios.generate_instance(spec, derive(seed, "grid-game"))


def _mirror(instance):
    width = instance.world.width
    flip = lambda cells: tuple(checks.mirror_cell(c, width) for c in cells)
    world = ag_grid.GridMap(width, instance.world.height, flip(instance.world.blocked))
    return model.Instance(
        world=world,
        attacker_starts=flip(instance.attacker_starts),
        attacker_targets=flip(instance.attacker_targets),
        defender_starts=flip(instance.defender_starts),
        time_limit=instance.time_limit,
    )


def _micro(rows, attackers, targets, defenders):
    grid = checks.Grid.from_rows(rows)
    return model.Instance(
        world=ag_grid.GridMap(grid.width, grid.height, grid.blocked),
        attacker_starts=tuple(attackers),
        attacker_targets=tuple(targets),
        defender_starts=tuple(defenders),
        time_limit=1,
    )


class Workload:
    def __init__(self, seed: int):
        game = _grid_game(seed)
        self.games = [
            ("qbf", qbf.reduce_to_instance(qbf.parse_qdimacs(FORMULA))),
            ("grid", game),
            ("grid-mirror", _mirror(game)),
        ] + [(name, _micro(rows, a, t, d)) for name, rows, a, t, d, _ in MICRO_GAMES]
        self.results: list[dict[str, tuple[str, int]]] = []
        self.best: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def run_round(self) -> None:
        """PASSES passes over every game, so each is solved PASSES times per run."""
        clock = time.perf_counter
        for _ in range(PASSES):
            results = {}
            for name, instance in self.games:
                self.attempted += 1
                start = clock()
                try:
                    result = solver.solve_decision_game(instance)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    self.failed += 1
                    continue
                elapsed = clock() - start
                self.best[name] = min(elapsed, self.best.get(name, elapsed))
                results[name] = (result.winner.name.lower(), result.states)
            self.results.append(results)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Each game counts at its fastest solve over the passes."""
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
                problems.append("solver results differ between passes")
        prefix, clauses = checks.parse_qdimacs_plain(FORMULA)
        truth = checks.qbf_truth(prefix, clauses)
        expected = "attackers" if truth else "defenders"
        if "qbf" in first and first["qbf"][0] != expected:
            problems.append(f"reduced game won by {first['qbf'][0]}, formula is {truth}")
        if "grid" in first and "grid-mirror" in first:
            problems += checks.check_mirror(first["grid"], first["grid-mirror"])
        for name, *_, winner in MICRO_GAMES:
            if name in first and first[name][0] != winner:
                problems.append(f"micro game {name!r}: solver says {first[name][0]}, hand-solved {winner}")
        return problems
