"""Tests for the benchmark's independent checkers: each one passes a correct
output and catches a planted fault.

    python3 -m pytest perfbench
"""
import pytest

import checks

# Four cells in a row with a wall below the middle: "...." over ".@@.".
GRID = checks.Grid.from_rows(["....", ".@@."])


def _trace(*steps):
    return [("initial", steps[0])] + [(team, pos) for team, pos in zip(("attackers", "defenders") * 4, steps[1:])]


# One attacker (index 0) heading east to (3, 0), one defender (index 1).
CLEAN = _trace(
    ((0, 0), (3, 1)),
    ((1, 0), (3, 1)),
    ((1, 0), (3, 1)),
    ((2, 0), (3, 1)),
    ((2, 0), (3, 1)),
    ((3, 0), (3, 1)),
    ((3, 0), (3, 1)),
)


def test_rule_checker_accepts_a_legal_trace():
    assert checks.check_phases(GRID, 1, [(3, 0)], CLEAN) == []


@pytest.mark.parametrize(
    "steps, fault",
    [
        ([((0, 0), (3, 1)), ((0, 0), (3, 0))], "moved outside its phase"),
        ([((0, 0), (3, 1)), ((2, 0), (3, 1))], "jumped"),
        ([((1, 0), (3, 1)), ((1, 1), (3, 1))], "blocked cell"),
        ([((0, 0), (1, 0), (3, 1)), ((1, 0), (1, 0), (3, 1))], "share a cell"),
        ([((0, 0), (1, 0), (3, 1)), ((1, 0), (0, 0), (3, 1))], "swapped"),
        ([((0, 0), (1, 0), (3, 1)), ((1, 0), (1, 0), (3, 1))], "whose occupant"),
    ],
)
def test_rule_checker_catches_planted_faults(steps, fault):
    n_attackers = len(steps[0]) - 1
    targets = [(3, 0)] * n_attackers
    problems = checks.check_phases(GRID, n_attackers, targets, _trace(*steps))
    assert any(fault in p for p in problems), problems


def test_rule_checker_keeps_captured_attackers_frozen():
    steps = [((2, 0), (0, 1)), ((3, 0), (0, 1)), ((3, 0), (0, 1)), ((2, 0), (0, 1))]
    problems = checks.check_phases(GRID, 1, [(3, 0)], _trace(*steps))
    assert any("left its target" in p for p in problems), problems


def test_rule_checker_rejects_a_trace_without_initial_state():
    assert checks.check_phases(GRID, 1, [(3, 0)], CLEAN[1:])


def _rounds(trace):
    return [(0 if team == "initial" else (i + 1) // 2, team, pos) for i, (team, pos) in enumerate(trace)]


def test_objectives_recomputes_capture_and_distance():
    # Captured in round 3 of a 5-round game: 5 - 3 + 1 = 3 rounds on target.
    assert checks.objectives(GRID, 1, [(3, 0)], 5, _rounds(CLEAN)) == (1, 0, 0, 3)
    # Stopped short after round 2: one uncaptured attacker one cell away.
    assert checks.objectives(GRID, 1, [(3, 0)], 5, _rounds(CLEAN[:5])) == (0, 1, 1, 0)


def test_objectives_charges_passable_count_for_unreachable_targets():
    walled = checks.Grid.from_rows([".@."])
    trace = [(0, "initial", ((0, 0),)), (1, "attackers", ((0, 0),))]
    assert checks.objectives(walled, 1, [(2, 0)], 1, trace) == (0, 1, 2, 0)


def test_objectives_differ_from_a_planted_wrong_report():
    program_report = (1, 0, 0, 4)  # time_at_targets off by one
    assert checks.objectives(GRID, 1, [(3, 0)], 5, _rounds(CLEAN)) != program_report


def test_bench_row_invariants():
    assert checks.check_bench_row(3, 7, 20, 30, 10, 100, 150) == []
    assert checks.check_bench_row(3, 6, 20, 30, 10, 100, 150)  # counts do not add up
    assert checks.check_bench_row(3, 7, 6, 30, 10, 100, 150)  # distance below uncaptured
    assert checks.check_bench_row(3, 7, 701, 30, 10, 100, 150)  # distance above the cap
    assert checks.check_bench_row(3, 7, 20, 2, 10, 100, 150)  # time below captured
    assert checks.check_bench_row(3, 7, 20, 451, 10, 100, 150)  # time above the cap


TABLE = [
    [2, 1, None],
    [1, 5, 3],
]


def test_greedy_oracle_takes_nearest_in_defender_order():
    assert checks.greedy_oracle(TABLE) == {0: 1, 1: 0}
    assert checks.greedy_oracle([[1, 1], [1, 1]]) == {0: 0, 1: 1}


def test_strict_greedy_oracle_commits_global_minimum_first():
    # Both (0, 1) and (1, 0) have distance 1; defender 0 wins the tie.
    assert checks.strict_greedy_oracle(TABLE) == {0: 1, 1: 0}
    assert checks.strict_greedy_oracle([[3, 4], [1, 9]]) == {1: 0, 0: 1}
    assert checks.greedy_oracle([[3, 4], [1, 9]]) == {0: 0, 1: 1}


def test_oracles_catch_a_planted_swap():
    planted = {0: 0, 1: 1}
    assert planted != checks.strict_greedy_oracle([[3, 4], [1, 9]])


def test_distance_table_marks_unreachable_targets():
    walled = checks.Grid.from_rows([".@."])
    assert checks.distance_table(walled, [(0, 0)], [(0, 0), (2, 0)]) == [[0, None]]


def test_allocation_checker_catches_planted_faults():
    assert checks.check_allocation(GRID, 2, {0: (0, 0), 1: (3, 0)}) == []
    assert checks.check_allocation(GRID, 2, {0: (0, 0), 1: (0, 0)})
    assert checks.check_allocation(GRID, 2, {2: (0, 0)})
    assert checks.check_allocation(GRID, 2, {0: (1, 1)})


def test_door_cells_finds_the_single_gap():
    two_rooms = checks.Grid.from_rows(["..@..", ".....", "..@.."])
    assert checks.door_cells(two_rooms) == [(2, 1)]
    assert checks.door_cells(checks.Grid.from_rows(["...", "..."])) == []


@pytest.mark.parametrize(
    "text, truth",
    [
        ("p cnf 1 1\na 1 0\n1 0\n", False),
        ("p cnf 1 1\ne 1 0\n1 0\n", True),
        ("p cnf 1 1\na 1 0\n1 -1 0\n", True),
        ("p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n", True),
        ("p cnf 2 2\ne 2 0\na 1 0\n1 2 0\n-1 -2 0\n", False),
    ],
)
def test_qbf_truth_by_brute_force(text, truth):
    assert checks.qbf_truth(*checks.parse_qdimacs_plain(text)) is truth


def test_mirror_check_catches_asymmetry():
    assert checks.mirror_cell((0, 2), 5) == (4, 2)
    assert checks.check_mirror(("defenders", 10), ("defenders", 10)) == []
    assert checks.check_mirror(("defenders", 10), ("attackers", 10))
    assert checks.check_mirror(("defenders", 10), ("defenders", 11))
