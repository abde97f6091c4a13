"""Exact solver for the decision variant on micro instances.

The decision game asks: with both teams playing perfectly, does some
attacker ever stand on its own target? Attackers move as one joint action,
then defenders, alternating forever. Reaching a target wins immediately
for the attackers; stalling forever wins for the defenders, which makes
this a reachability game decided by a backward attractor sweep over the
forward-reachable state space. The game is unbounded: Instance.time_limit
is ignored, so a verdict holds for play of any length.

State counts explode factorially in agents and vertices, so the solver
refuses anything whose upper bound exceeds its budget instead of running
for hours.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterator

from areaguard.model import Instance, Team, validate_instance

Node = Hashable


class BudgetExceeded(ValueError):
    """The instance's state-space bound is beyond the solver's budget."""


@dataclass(frozen=True)
class SolveResult:
    winner: Team
    states: int
    bound: int


def state_space_bound(instance: Instance) -> int:
    """Upper bound on reachable states: injective placements times phases."""
    nodes = sum(1 for _ in instance.world.nodes())
    agents = instance.n_attackers + instance.n_defenders
    bound = 2
    for i in range(agents):
        bound *= max(nodes - i, 0)
    return bound


def enumerate_team_moves(
    world, own: tuple[Node, ...], frozen: frozenset[Node]
) -> Iterator[tuple[Node, ...]]:
    """All legal joint moves for one team.

    Each agent stays or steps to an adjacent vertex not held by the other
    team; the joint result must keep agents on distinct vertices and no
    two teammates may trade places across one edge. Moving into a cell a
    teammate leaves this same step is legal, which the distinctness check
    already admits.
    """
    options = [
        [pos] + [n for n in world.neighbors(pos) if n not in frozen] for pos in own
    ]
    k = len(own)
    for joint in product(*options):
        if len(set(joint)) != k:
            continue
        swap = False
        for i in range(k):
            if joint[i] == own[i]:
                continue
            for j in range(i + 1, k):
                if joint[i] == own[j] and joint[j] == own[i]:
                    swap = True
                    break
            if swap:
                break
        if not swap:
            yield joint


def solve_decision_game(instance: Instance, state_budget: int = 5_000_000) -> SolveResult:
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    bound = state_space_bound(instance)
    if bound > state_budget:
        raise BudgetExceeded(
            f"state bound {bound} exceeds budget {state_budget}; "
            "the exact solver only handles micro instances"
        )
    world = instance.world
    index, cell, nbr = world.index, world.cell, world._nbr
    n = len(nbr)
    na, nd = instance.n_attackers, instance.n_defenders
    base = n**nd
    goals = [index(t) for t in instance.attacker_targets]

    # A state is the int (A * n**nd + D) * 2 + phase, where A and D code
    # each team's cell indices in radix n, first agent lowest. Each team
    # code gets one entry on first sight, the tuple (cells as node labels,
    # mask of the cells next to them (the halo), mask of the cells they
    # hold, whether an attacker stands on its target, moves), where moves
    # maps each set of other-team cells in the halo to the successor
    # offsets of the team's legal joint moves. The move rules themselves
    # live in enumerate_team_moves. No list is empty, since staying put is
    # always legal.
    def code_of(cells) -> int:
        return sum(index(c) * n**i for i, c in enumerate(cells))

    def entry(code: int, k: int, targets: list[int]) -> tuple:
        cells = []
        for _ in range(k):
            code, i = divmod(code, n)
            cells.append(i)
        halo = 0
        for i in cells:
            for j in nbr[i]:
                halo |= 1 << j
        won = any(i == t for i, t in zip(cells, targets))
        return tuple(map(cell, cells)), halo, sum(1 << i for i in cells), won, {}

    def offsets(own: tuple, others: tuple, code: int, scale: int, shift: int) -> list[int]:
        out = [
            (code_of(joint) - code) * scale + shift
            for joint in enumerate_team_moves(world, own[0], frozenset(others[0]))
        ]
        own[4][others[2] & own[1]] = out
        return out

    initial = (code_of(instance.attacker_starts) * base + code_of(instance.defender_starts)) * 2
    # The keys of predecessors double as the visited set. Captured states
    # seed the attractor as they are popped; pending counts the moves of
    # each defender-phase state that are not yet known to lose.
    predecessors: dict[int, list[int]] = {initial: []}
    attracted: set[int] = set()
    pending: dict[int, int] = {}
    frontier: deque[int] = deque((initial,))
    attackers: dict[int, tuple] = {}
    defenders: dict[int, tuple] = {}
    while frontier:
        state = frontier.popleft()
        a, d = divmod(state >> 1, base)
        att = attackers.get(a) or attackers.setdefault(a, entry(a, na, goals))
        if att[3]:
            attracted.add(state)
            continue
        dfd = defenders.get(d) or defenders.setdefault(d, entry(d, nd, []))
        if state & 1:
            moves = dfd[4].get(att[2] & dfd[1]) or offsets(dfd, att, d, 2, -1)
            pending[state] = len(moves)
        else:
            moves = att[4].get(dfd[2] & att[1]) or offsets(att, dfd, a, 2 * base, 1)
        for move in moves:
            nxt = state + move
            prevs = predecessors.get(nxt)
            if prevs is None:
                predecessors[nxt] = [state]
                frontier.append(nxt)
            else:
                prevs.append(state)

    worklist = deque(attracted)
    while worklist:
        state = worklist.popleft()
        for prev in predecessors[state]:
            if prev in attracted:
                continue
            if not prev & 1:
                attracted.add(prev)
                worklist.append(prev)
            else:
                pending[prev] -= 1
                if pending[prev] == 0:
                    attracted.add(prev)
                    worklist.append(prev)
    winner = Team.ATTACKERS if initial in attracted else Team.DEFENDERS
    return SolveResult(winner=winner, states=len(predecessors), bound=bound)
