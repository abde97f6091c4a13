"""Exact solver for the decision variant on micro instances.

The decision game asks: with both teams playing perfectly, does some
attacker ever stand on its own target? Attackers move as one joint action,
then defenders, alternating forever. Reaching a target wins immediately
for the attackers; stalling forever wins for the defenders, which makes
this a reachability game decided by a backward attractor sweep over the
forward-reachable state space.

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
State = tuple[tuple[Node, ...], int]


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
    na = instance.n_attackers
    targets = instance.attacker_targets

    def captured(positions: tuple[Node, ...]) -> bool:
        return any(positions[i] == targets[i] for i in range(na))

    initial: State = (tuple(instance.attacker_starts) + tuple(instance.defender_starts), 0)
    # The keys of predecessors double as the visited set. Captured states
    # seed the attractor as they are popped; pending counts the moves of
    # each defender-phase state that are not yet known to lose.
    predecessors: dict[State, list[State]] = {initial: []}
    attracted: set[State] = set()
    pending: dict[State, int] = {}
    frontier: deque[State] = deque((initial,))
    while frontier:
        state = frontier.popleft()
        positions, phase = state
        if captured(positions):
            attracted.add(state)
            continue
        if phase == 0:
            own, others = positions[:na], positions[na:]
        else:
            own, others = positions[na:], positions[:na]
        moves = 0
        for joint in enumerate_team_moves(world, own, frozenset(others)):
            nxt: State = (joint + others, 1) if phase == 0 else (others + joint, 0)
            moves += 1
            prevs = predecessors.get(nxt)
            if prevs is None:
                predecessors[nxt] = [state]
                frontier.append(nxt)
            else:
                prevs.append(state)
        if phase == 1:
            pending[state] = moves

    worklist = deque(attracted)
    while worklist:
        state = worklist.popleft()
        for prev in predecessors[state]:
            if prev in attracted:
                continue
            if prev[1] == 0:
                attracted.add(prev)
                worklist.append(prev)
            else:
                pending[prev] -= 1
                if pending[prev] == 0:
                    attracted.add(prev)
                    worklist.append(prev)
    winner = Team.ATTACKERS if initial in attracted else Team.DEFENDERS
    return SolveResult(winner=winner, states=len(predecessors), bound=bound)
