"""Acceptance gate: one test per release criterion, each printing a verdict line.

The ten checks exercise the toolkit end to end: movement-rule audits over a
thousand mixed simulations, oracle equivalence for the matching strategies,
chokepoint behavior on a synthetic two-room map, capture trends across
defender ratios, exact-solver agreement with hand-solved games, structural
audit of the formula reduction, benchmark determinism, and runtime budgets.
Every tolerance and budget is pinned inline; the expensive corpora are built
once per module and shared.
"""
import time
from itertools import product

import pytest

from areaguard.allocate import STRATEGIES, strict_greedy_pairs
from areaguard.bench import config_from_json, derive_allocation_seed, run_bench
from areaguard.engine import run_simulation
from areaguard.grid import bfs_distances
from areaguard.model import Instance, Team, defender, validate_instance
from areaguard.qbf import parse_qdimacs, reduce_to_instance
from areaguard.scenarios import MapSpec, Rect, ScenarioSpec, generate_instance
from areaguard.solver import solve_decision_game
from helpers import grid_from_rows
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

AUDIT_RUNS = 1000
AUDIT_BUDGET_S = 120.0
ORACLE_INSTANCES = 200
TWO_ROOM_SEEDS = 10
TWO_ROOM_BUDGET_S = 60.0
TREND_BUDGET_S = 600.0
SOLVER_BUDGET_S = 10.0
SINGLE_RUN_BUDGET_S = 1.0
MATRIX_BUDGET_S = 900.0


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# -------- shared corpora --------

AUDIT_MAPS = [
    MapSpec(kind="empty", width=14, height=10),
    MapSpec(kind="rooms", width=20, height=16, rooms_x=2, rooms_y=2, door_width=2),
    MapSpec(
        kind="ruins",
        width=20,
        height=16,
        rooms_x=2,
        rooms_y=2,
        door_width=2,
        damage_rate=0.15,
        jitter=1,
    ),
]


@pytest.fixture(scope="module")
def audit_corpus():
    """1000 audited runs cycling map kinds, strategies and placements."""
    results = []
    start = time.perf_counter()
    for i in range(AUDIT_RUNS):
        spec = ScenarioSpec(
            map=AUDIT_MAPS[i % len(AUDIT_MAPS)],
            n_attackers=6,
            n_defenders=2 + i % 5,
            time_limit=30,
            placement=("overlapped", "separated")[i % 2],
        )
        instance = generate_instance(spec, 9000 + i)
        result = run_simulation(
            instance, STRATEGIES[i % len(STRATEGIES)], seed=40000 + i, audit=True
        )
        results.append((instance, result))
    return results, time.perf_counter() - start


TREND_CONFIG = config_from_json(
    {
        "master_seed": 101,
        "attackers": 100,
        "time_limit": 150,
        "runs": 10,
        "ratios": ["1:1", "1:2", "1:10"],
        "placements": ["overlapped", "separated"],
        "strategies": ["random", "greedy", "strict-greedy", "bottleneck"],
        "maps": [
            {
                "name": "rooms3",
                "map": {
                    "kind": "rooms",
                    "width": 44,
                    "height": 44,
                    "rooms_x": 3,
                    "rooms_y": 3,
                    "door_width": 1,
                },
            }
        ],
    }
)

MATRIX_CONFIG = config_from_json(
    {
        "master_seed": 977,
        "attackers": 100,
        "time_limit": 150,
        "runs": 10,
        "ratios": ["1:1", "1:2", "1:10"],
        "placements": ["overlapped", "separated"],
        "strategies": ["random", "greedy", "strict-greedy", "bottleneck"],
        "maps": [
            {
                "name": "rooms3",
                "map": {
                    "kind": "rooms",
                    "width": 44,
                    "height": 44,
                    "rooms_x": 3,
                    "rooms_y": 3,
                    "door_width": 1,
                },
            },
            {
                "name": "ruins3",
                "map": {
                    "kind": "ruins",
                    "width": 44,
                    "height": 44,
                    "rooms_x": 3,
                    "rooms_y": 3,
                    "door_width": 1,
                    "damage_rate": 0.15,
                    "jitter": 1,
                },
            },
            {
                "name": "islands",
                "map": {"kind": "file", "path": "maps/islands_standin.map"},
            },
        ],
    }
)


def _mean_table(output) -> dict[tuple[str, str, str, str], float]:
    return {
        (row[0], row[1], row[2], row[3]): float(row[5]) for row in output.aggregate_rows
    }


@pytest.fixture(scope="module")
def trend_bench():
    start = time.perf_counter()
    output = run_bench(TREND_CONFIG, base_dir=ROOT)
    return output, time.perf_counter() - start


@pytest.fixture(scope="module")
def matrix_bench():
    start = time.perf_counter()
    output = run_bench(MATRIX_CONFIG, base_dir=ROOT)
    return output, time.perf_counter() - start


# -------- criteria --------


def test_criterion_01_movement_rule_audit(audit_corpus):
    # audit=True re-checks every phase against the movement rules (no edge
    # swaps, no shared destination, occupancy stays injective) and raises on
    # the first breach, so reaching this point means zero violations.
    results, elapsed = audit_corpus
    ok = len(results) == AUDIT_RUNS and elapsed < AUDIT_BUDGET_S
    _check(
        1,
        "movement-rule audit",
        ok,
        f"{len(results)} runs in {elapsed:.1f}s (budget {AUDIT_BUDGET_S:.0f}s)",
    )


def test_criterion_02_defended_target_soundness(audit_corpus):
    # A defender that reached an attacker's target strictly before the
    # attacker makes that cell permanently occupied, so such a capture
    # would be an engine contradiction.
    results, _ = audit_corpus
    violations = []
    for instance, result in results:
        for agent, arrival in result.captured.items():
            target = instance.target_of(agent)
            for d_index, cell in result.allocation.items():
                if cell != target:
                    continue
                d_arrival = result.defender_arrivals.get(defender(d_index))
                if d_arrival is not None and d_arrival < arrival:
                    violations.append((agent.label, arrival, d_index, d_arrival))
    _check(2, "defended-target soundness", not violations, f"{violations[:3]}")


def _oracle_pairs(instance: Instance) -> list[tuple[int, int]]:
    # Independent matching oracle: materialize the full distance table,
    # sort it once by (distance, defender, target) and sweep, skipping
    # already-used rows and columns.
    grid = instance.world
    triples = []
    for d, start in enumerate(instance.defender_starts):
        dist = bfs_distances(grid, start)
        for t, cell in enumerate(instance.attacker_targets):
            if cell in dist:
                triples.append((dist[cell], d, t))
    triples.sort()
    used_d: set[int] = set()
    used_t: set[int] = set()
    pairs = []
    for _, d, t in triples:
        if d in used_d or t in used_t:
            continue
        pairs.append((d, t))
        used_d.add(d)
        used_t.add(t)
    return pairs


def test_criterion_03_matching_oracle_equivalence():
    import random

    rng = random.Random(33)
    mismatches = 0
    for i in range(ORACLE_INSTANCES):
        if i % 2 == 0:
            map_spec = MapSpec(kind="empty", width=8, height=8)
        else:
            map_spec = MapSpec(
                kind="rooms", width=12, height=10, rooms_x=2, rooms_y=2, door_width=2
            )
        spec = ScenarioSpec(
            map=map_spec,
            n_attackers=rng.randint(1, 5),
            n_defenders=rng.randint(1, 5),
            time_limit=10,
            placement=("overlapped", "separated")[i % 2],
        )
        instance = generate_instance(spec, rng.getrandbits(32))
        if strict_greedy_pairs(instance) != _oracle_pairs(instance):
            mismatches += 1
    _check(
        3,
        "matching oracle equivalence",
        mismatches == 0,
        f"{mismatches}/{ORACLE_INSTANCES} mismatched",
    )


TWO_ROOM_SPEC = ScenarioSpec(
    # Two rooms joined by a single one-cell door in the wall at x=22.
    # Attackers mass in the left room, defenders and all targets sit in the
    # right one, so the door is the only way to score.
    map=MapSpec(kind="rooms", width=44, height=12, rooms_x=2, rooms_y=1, door_width=1),
    n_attackers=50,
    n_defenders=5,
    time_limit=150,
    placement="separated",
    attacker_rect=Rect(2, 1, 5, 10),
    defender_rect=Rect(23, 1, 2, 10),
    target_rect=Rect(32, 1, 10, 10),
)


def test_criterion_04_two_room_chokepoint():
    start = time.perf_counter()
    means = {}
    for strategy in ("bottleneck", "random", "greedy"):
        total = 0
        for s in range(TWO_ROOM_SEEDS):
            instance = generate_instance(TWO_ROOM_SPEC, 1000 + s)
            total += run_simulation(instance, strategy, 2000 + s).metrics.captured
        means[strategy] = total / TWO_ROOM_SEEDS
    elapsed = time.perf_counter() - start
    ok = (
        means["bottleneck"] == 0.0
        and means["random"] >= 10.0
        and means["greedy"] >= 10.0
        and elapsed < TWO_ROOM_BUDGET_S
    )
    _check(4, "two-room chokepoint blocking", ok, f"means={means} in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_05_bottleneck_leads_on_rooms(trend_bench):
    output, elapsed = trend_bench
    means = _mean_table(output)
    losing_cells = []
    for ratio, placement in product(TREND_CONFIG.ratios, TREND_CONFIG.placements):
        sim = means[("rooms3", ratio, placement, "bottleneck")]
        if not (
            sim < means[("rooms3", ratio, placement, "random")]
            and sim < means[("rooms3", ratio, placement, "greedy")]
        ):
            losing_cells.append((ratio, placement))
    ok = not losing_cells and elapsed < TREND_BUDGET_S
    _check(
        5,
        "bottleneck leads in every rooms cell",
        ok,
        f"losing cells {losing_cells}, {elapsed:.1f}s (budget {TREND_BUDGET_S:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_06_scarcity_degrades_defense(matrix_bench):
    output, _ = matrix_bench
    means = _mean_table(output)
    breaks = []
    for map_name, placement, strategy in product(
        ("rooms3", "ruins3"), MATRIX_CONFIG.placements, ("random", "greedy")
    ):
        series = [means[(map_name, r, placement, strategy)] for r in ("1:1", "1:2", "1:10")]
        if not (series[0] <= series[1] <= series[2]):
            breaks.append((map_name, placement, strategy, series))
    _check(6, "captures grow with defender scarcity", not breaks, f"{breaks}")


MICRO_GAMES = [
    # (name, rows, attackers, targets, defenders, winner, reachable states)
    ("unopposed corridor", ["...."], [(0, 0)], [(3, 0)], [], Team.ATTACKERS, 7),
    # A parked defender owns the target cell forever.
    ("defender parked on target", ["...."], [(0, 0)], [(3, 0)], [(3, 0)], Team.DEFENDERS, 12),
    # One-wide corridor: the defender in the middle can simply never move.
    ("corridor sealed midway", ["......"], [(0, 0)], [(5, 0)], [(3, 0)], Team.DEFENDERS, 30),
    # The defender sits behind the attacker and cannot overtake in one lane.
    ("defender trails behind", ["...."], [(1, 0)], [(3, 0)], [(0, 0)], Team.ATTACKERS, 8),
    # Starting on the target is an immediate win.
    ("attacker starts on target", ["..."], [(0, 0)], [(0, 0)], [(2, 0)], Team.ATTACKERS, 1),
    # 2x2: the attacker needs two moves, the defender one; defenders move
    # second, so the target is occupied before the attacker's second step.
    ("defender reaches target first", ["..", ".."], [(0, 0)], [(1, 1)], [(1, 0)], Team.DEFENDERS, 21),
    # 1x7: both need the same cell on round three, but attackers move first.
    ("attacker wins the race by phase order", ["......."], [(0, 0)], [(3, 0)], [(6, 0)], Team.ATTACKERS, 33),
    # Two defenders wall off the middle column without touching the target.
    ("defenders wall the corridor", ["...", "..."], [(0, 0)], [(2, 0)], [(1, 0), (1, 1)], Team.DEFENDERS, 218),
]


def test_criterion_07_solver_matches_hand_solved_games():
    start = time.perf_counter()
    wrong = []
    for name, rows, attackers, targets, defenders, expected, states in MICRO_GAMES:
        instance = Instance(
            world=grid_from_rows(rows),
            attacker_starts=tuple(attackers),
            attacker_targets=tuple(targets),
            defender_starts=tuple(defenders),
            time_limit=1,
        )
        result = solve_decision_game(instance)
        if result.winner is not expected or result.states != states:
            wrong.append((name, result.winner.name, result.states))
    elapsed = time.perf_counter() - start
    ok = not wrong and elapsed < SOLVER_BUDGET_S
    _check(7, "exact solver matches hand-solved games", ok, f"{wrong} in {elapsed:.1f}s")


SIX_VAR_QDIMACS = """p cnf 6 4
e 1 0
a 2 0
e 3 0
a 4 0
e 5 0
a 6 0
4 6 1 0
-2 -4 3 0
2 -1 5 0
-6 -3 -5 0
"""


def _graph_distance(graph, a: str, b: str) -> int:
    frontier = [a]
    seen = {a}
    dist = 0
    while frontier:
        if b in frontier:
            return dist
        nxt = []
        for node in frontier:
            for nb in graph.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
        dist += 1
    raise AssertionError(f"{a} and {b} are disconnected")


def test_criterion_08_reduction_structural_audit():
    instance = reduce_to_instance(parse_qdimacs(SIX_VAR_QDIMACS))
    graph = instance.world
    nodes = set(graph.nodes())
    problems = []
    for v in range(1, 7):
        # Both parallel branches of each diamond must be six edges long.
        if _graph_distance(graph, f"x{v}.lj", f"x{v}.rj") != 6:
            problems.append(f"x{v} branch length")
        if f"x{v}.up5" not in nodes or f"x{v}.up6" in nodes:
            problems.append(f"x{v} branch vertex count")
    for j in range(1, 5):
        # The clause guard chain is floor(6/2)+1 = 4 edges from the hub.
        if f"C{j}.d4" not in nodes or f"C{j}.d5" in nodes:
            problems.append(f"C{j} chain vertex count")
        elif _graph_distance(graph, f"C{j}.hub", f"C{j}.d4") != 4:
            problems.append(f"C{j} chain length")
    if len(instance.attacker_starts) != 16:
        problems.append(f"attackers {len(instance.attacker_starts)}")
    if len(instance.defender_starts) != 13:
        problems.append(f"defenders {len(instance.defender_starts)}")
    problems.extend(validate_instance(instance))
    _check(8, "reduction structural audit", not problems, f"{problems}")


@pytest.mark.slow
def test_criterion_09_benchmark_determinism(trend_bench):
    output, _ = trend_bench
    rerun = run_bench(TREND_CONFIG, base_dir=ROOT, jobs=2)
    ok = rerun.aggregate_csv() == output.aggregate_csv()
    _check(9, "benchmark rerun in worker processes is byte-identical", ok)


@pytest.mark.slow
def test_criterion_10_scale_and_runtime(matrix_bench):
    single_spec = ScenarioSpec(
        map=MapSpec(kind="rooms", width=64, height=64, rooms_x=3, rooms_y=3, door_width=2),
        n_attackers=100,
        n_defenders=100,
        time_limit=150,
        placement="separated",
    )
    instance = generate_instance(single_spec, 42)
    best = min(
        _timed(lambda: run_simulation(instance, "greedy", derive_allocation_seed(42, "greedy")))
        for _ in range(3)
    )
    _, matrix_elapsed = matrix_bench
    ok = best < SINGLE_RUN_BUDGET_S and matrix_elapsed < MATRIX_BUDGET_S
    _check(
        10,
        "scale and runtime budget",
        ok,
        f"single {best:.3f}s (budget {SINGLE_RUN_BUDGET_S:.1f}s), "
        f"matrix {matrix_elapsed:.1f}s (budget {MATRIX_BUDGET_S:.0f}s)",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
