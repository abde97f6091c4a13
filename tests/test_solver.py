"""Exact decision-game solver tests on hand-solved micro fixtures."""
import random
from collections import deque

import pytest

import areaguard.solver
from areaguard.model import (
    AdjacencyGraph,
    Configuration,
    Instance,
    Team,
    TeamMove,
    apply_team_move,
    attacker,
    defender,
)
from areaguard.qbf import parse_qdimacs, reduce_to_instance
from areaguard.solver import (
    BudgetExceeded,
    enumerate_team_moves,
    solve_decision_game,
    state_space_bound,
)
from helpers import grid_from_rows, random_grid


def grid_instance(rows, attackers, targets, defenders):
    return Instance(
        world=grid_from_rows(rows),
        attacker_starts=tuple(attackers),
        attacker_targets=tuple(targets),
        defender_starts=tuple(defenders),
        time_limit=1,
    )


def branch_instance(defender_at: str) -> Instance:
    # A five-vertex corridor with a four-vertex stem hanging off the far
    # end. The attacker needs four moves; a defender k steps up the stem
    # seals the corridor end with its k-th move.
    nodes = ["v0", "v1", "v2", "v3", "v4", "b1", "b2", "b3", "b4"]
    edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"),
             ("v4", "b1"), ("b1", "b2"), ("b2", "b3"), ("b3", "b4")]
    return Instance(
        world=AdjacencyGraph.from_edges(nodes, edges),
        attacker_starts=("v0",),
        attacker_targets=("v4",),
        defender_starts=(defender_at,),
        time_limit=1,
    )


def test_unopposed_attacker_wins():
    inst = grid_instance(["..."], [(0, 0)], [(2, 0)], [])
    assert solve_decision_game(inst).winner is Team.ATTACKERS


def test_defender_on_target_wins():
    inst = grid_instance(["..."], [(0, 0)], [(2, 0)], [(2, 0)])
    assert solve_decision_game(inst).winner is Team.DEFENDERS


def test_defender_two_hops_up_the_stem_wins():
    assert solve_decision_game(branch_instance("b2")).winner is Team.DEFENDERS


def test_defender_four_hops_up_the_stem_loses():
    # The attacker's fourth move lands before the defender's fourth.
    assert solve_decision_game(branch_instance("b4")).winner is Team.ATTACKERS


def test_defender_parked_mid_corridor_wins():
    inst = grid_instance(["..."], [(0, 0)], [(2, 0)], [(1, 0)])
    assert solve_decision_game(inst).winner is Team.DEFENDERS


def test_adjacent_attacker_captures_before_any_defense():
    inst = grid_instance(["..."], [(0, 0)], [(1, 0)], [(2, 0)])
    assert solve_decision_game(inst).winner is Team.ATTACKERS


def test_one_defender_cannot_cover_two_targets():
    inst = grid_instance(
        ["...", "...", "..."],
        [(0, 0), (0, 2)],
        [(2, 0), (2, 2)],
        [(2, 1)],
    )
    assert solve_decision_game(inst).winner is Team.ATTACKERS


def test_two_defenders_cover_both_targets():
    inst = grid_instance(
        ["...", "...", "..."],
        [(0, 0), (0, 2)],
        [(2, 0), (2, 2)],
        [(2, 0), (2, 2)],
    )
    assert solve_decision_game(inst).winner is Team.DEFENDERS


def test_attacker_starting_on_target_wins_immediately():
    inst = grid_instance(["..", ".."], [(0, 0)], [(0, 0)], [(1, 1)])
    result = solve_decision_game(inst)
    assert result.winner is Team.ATTACKERS
    assert result.states == 1


def test_budget_refusal():
    rows = ["." * 10] * 10
    inst = grid_instance(rows, [(0, 0), (1, 0)], [(9, 9), (8, 9)], [(0, 9), (9, 0)])
    assert state_space_bound(inst) == 2 * 100 * 99 * 98 * 97
    with pytest.raises(BudgetExceeded):
        solve_decision_game(inst)


def test_reduced_formula_is_politely_refused():
    inst = reduce_to_instance(
        parse_qdimacs("p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n")
    )
    with pytest.raises(BudgetExceeded):
        solve_decision_game(inst)


def test_solver_deterministic():
    inst = branch_instance("b3")
    a = solve_decision_game(inst)
    b = solve_decision_game(inst)
    assert a == b
    assert a.winner is Team.DEFENDERS


def test_enumerated_moves_match_movement_kernel():
    # Every joint move the solver enumerates must be granted verbatim by
    # the shared movement kernel, and every fully granted kernel outcome
    # must be in the enumerated set.
    rng = random.Random(991)
    for _ in range(60):
        while True:
            rows = [
                "".join("@" if rng.random() < 0.2 else "." for _ in range(4))
                for _ in range(3)
            ]
            grid = grid_from_rows(rows)
            cells = list(grid.passable_cells())
            if len(cells) >= 5:
                break
        spots = rng.sample(cells, 5)
        own = tuple(spots[:3])
        frozen = frozenset(spots[3:])
        config = Configuration(
            positions={
                **{attacker(i): c for i, c in enumerate(own)},
                **{defender(j): c for j, c in enumerate(spots[3:])},
            }
        )
        legal = set(enumerate_team_moves(grid, own, frozen))
        for joint in legal:
            move = TeamMove(Team.ATTACKERS, {attacker(i): joint[i] for i in range(3)})
            after = apply_team_move(grid, config, move)
            assert tuple(after.positions[attacker(i)] for i in range(3)) == joint
            for j, c in enumerate(spots[3:]):
                assert after.positions[defender(j)] == c
        for _ in range(20):
            desired = {}
            for i in range(3):
                options = [own[i]] + grid.neighbors(own[i])
                desired[attacker(i)] = rng.choice(options)
            after = apply_team_move(grid, config, TeamMove(Team.ATTACKERS, desired))
            got = tuple(after.positions[attacker(i)] for i in range(3))
            fully_granted = all(
                after.positions[a] == desired[a] for a in desired
            )
            if fully_granted:
                assert got in legal


def reference_solve(instance):
    """(winner, states) from the attractor over label-tuple states, one
    enumerate_team_moves call per expanded state."""
    na = instance.n_attackers
    targets = instance.attacker_targets
    initial = (tuple(instance.attacker_starts) + tuple(instance.defender_starts), 0)
    predecessors = {initial: []}
    attracted, pending = set(), {}
    frontier = deque((initial,))
    while frontier:
        state = frontier.popleft()
        positions, phase = state
        if any(positions[i] == targets[i] for i in range(na)):
            attracted.add(state)
            continue
        own, others = positions[:na], positions[na:]
        if phase == 1:
            own, others = others, own
        moves = list(enumerate_team_moves(instance.world, own, frozenset(others)))
        for joint in moves:
            nxt = (joint + others, 1) if phase == 0 else (others + joint, 0)
            if nxt not in predecessors:
                predecessors[nxt] = []
                frontier.append(nxt)
            predecessors[nxt].append(state)
        if phase == 1:
            pending[state] = len(moves)
    worklist = deque(attracted)
    while worklist:
        for prev in predecessors[worklist.popleft()]:
            if prev in attracted:
                continue
            if prev[1] == 1:
                pending[prev] -= 1
                if pending[prev]:
                    continue
            attracted.add(prev)
            worklist.append(prev)
    winner = Team.ATTACKERS if initial in attracted else Team.DEFENDERS
    return winner, len(predecessors)


def random_micro_game(rng):
    na, nd = rng.randint(1, 2), rng.randint(1, 2)
    while True:
        if rng.random() < 0.2:
            nodes = [f"n{i}" for i in range(rng.randint(5, 9))]
            edges = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :] if rng.random() < 0.35]
            world = AdjacencyGraph.from_edges(nodes, edges)
        else:
            world = random_grid(rng, rng.randint(2, 3), rng.randint(2, 4), 0.2)
        cells = list(world.nodes())
        if len(cells) >= 2 * na + nd:
            break
    # Targets avoid the attacker starts, so no game is won before a move.
    starts = rng.sample(cells, na + nd)
    targets = rng.sample([c for c in cells if c not in starts[:na]], na)
    return Instance(
        world=world,
        attacker_starts=tuple(starts[:na]),
        attacker_targets=tuple(targets),
        defender_starts=tuple(starts[na:]),
        time_limit=1,
    )


def test_solver_matches_the_label_tuple_reference():
    rng = random.Random(1414)
    winners = set()
    for _ in range(40):
        inst = random_micro_game(rng)
        result = solve_decision_game(inst)
        assert (result.winner, result.states) == reference_solve(inst), inst
        winners.add(result.winner)
    assert winners == {Team.ATTACKERS, Team.DEFENDERS}


def test_false_one_variable_formula_is_won_by_the_defenders():
    # The reduction of "forall x1. (x1)", the largest game any test solves.
    inst = reduce_to_instance(parse_qdimacs("p cnf 1 1\na 1 0\n1 0\n"))
    result = solve_decision_game(inst)
    assert result.winner is Team.DEFENDERS
    assert result.states == 369_262


def test_solver_calls_the_module_level_move_enumerator(monkeypatch):
    # Tracers wrap areaguard.solver.enumerate_team_moves by rebinding it,
    # so the solver must look the name up rather than hold the function.
    calls = []

    def counting(world, own, frozen):
        calls.append(own)
        return enumerate_team_moves(world, own, frozen)

    monkeypatch.setattr(areaguard.solver, "enumerate_team_moves", counting)
    inst = grid_instance(["...", "..."], [(0, 0)], [(2, 0)], [(1, 0), (1, 1)])
    result = solve_decision_game(inst)
    assert result.winner is Team.DEFENDERS
    assert result.states == 218
    assert len(calls) >= 1
