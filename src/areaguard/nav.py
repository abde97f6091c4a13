"""Per-agent route planning with local repair.

Each agent keeps a private shortest-path plan toward its goal and follows
it head-first. When the next planned cell is occupied the agent replans
immediately, treating every currently occupied cell (both teams) as
blocked; if no route exists it waits and keeps the stale plan in the hope
that the blocker leaves. Conflict-resolution denials are reported back via
observe_moves; after STALL_REPLAN_THRESHOLD consecutive stalls with a
live plan the agent throws the plan away and replans from scratch, which
bounds convoy livelocks. An agent whose goal is None (or already reached)
simply holds its cell.

The rules run on cell indices, one call per team phase: plan_moves
proposes and observe_moves folds the outcome back. next_move and
observe_result apply them to one agent's NavState, in cells.
"""
from __future__ import annotations

from dataclasses import dataclass

from areaguard.grid import Cell, CellIndices, GridMap, SnapshotMemo, route
# Unused here; perfbench/tracing.py rebinds these names (ROADMAP item 1).
from areaguard.grid import find_path, shortest_path  # noqa: F401
from areaguard.model import AgentId, Configuration

STALL_REPLAN_THRESHOLD = 3


def plan_moves(
    grid: GridMap, pos: list[int], lo: int, hi: int, goals: list[int], plans: list, stalls: list[int],
    occupied: set[int], memo: SnapshotMemo | None = None,
) -> list[int]:
    """The proposed cell indices of agents lo..hi-1; updates their plans and stalls.

    pos, goals (-1 for none), plans and stalls are indexed by agent; a plan
    lists its cells in reverse, next cell last. occupied is the set of
    occupied cells, own cells included (plan heads never are, and route
    ignores its source), and memo one SnapshotMemo for that set. Waits
    for lack of a route count as stalls here, denied moves in observe_moves.
    """
    moves = []
    for a in range(lo, hi):
        here = pos[a]
        goal = goals[a]
        if goal < 0 or here == goal:
            plans[a] = ()
            stalls[a] = 0
            moves.append(here)
            continue
        plan = plans[a]
        if plan and stalls[a] < STALL_REPLAN_THRESHOLD and plan[-1] not in occupied:
            moves.append(plan[-1])
            continue
        path = route(grid, here, goal, occupied, memo)[0]
        if path is None:
            # Keep whatever plan we had; the blocker may move next step.
            stalls[a] += 1
            moves.append(here)
        else:
            plans[a] = plan = path[:0:-1]
            stalls[a] = 0
            moves.append(plan[-1])
    return moves


def observe_moves(pos: list, lo: int, moves: list, granted: dict, plans: list, stalls: list[int]) -> None:
    """Fold one phase's outcome into the routing state of agents lo..lo+len(moves)-1.

    moves are their proposals and granted maps each agent that moved to its
    new cell; pos holds the agents that did not move where they stand.
    """
    for a, want in enumerate(moves, lo):
        now = granted.get(a)
        if now is not None:
            plan = plans[a]
            if plan and plan[-1] == now:
                plan.pop()
            else:
                # Desynchronized plan (should not happen): drop it and replan later.
                plans[a] = ()
            stalls[a] = 0
        elif want != pos[a]:
            # The move was denied by conflict resolution.
            stalls[a] += 1


@dataclass(frozen=True)
class NavState:
    """Routing memory of one agent between steps, in cells (plan head first)."""

    agent: AgentId
    goal: Cell | None
    plan: tuple[Cell, ...] = ()
    stalls: int = 0


def next_move(
    nav: NavState,
    config: Configuration,
    grid: GridMap,
    occupied: set[Cell] | None = None,
    memo: SnapshotMemo | None = None,
) -> tuple[Cell, NavState]:
    """plan_moves for one agent in cells; occupied defaults to every agent's cell."""
    if nav.goal is not None and not grid.is_passable(nav.goal):
        raise ValueError(f"path target {nav.goal} is not passable")
    index, cell = grid.index, grid.cell
    plans, stalls = [[index(c) for c in reversed(nav.plan)]], [nav.stalls]
    goal = -1 if nav.goal is None else index(nav.goal)
    blocked = CellIndices(set(config.positions.values()) if occupied is None else occupied, grid)
    (want,) = plan_moves(grid, [index(config.positions[nav.agent])], 0, 1, [goal], plans, stalls, blocked, memo)
    return cell(want), NavState(nav.agent, nav.goal, tuple(map(cell, reversed(plans[0]))), stalls[0])


def observe_result(nav: NavState, proposed: Cell, before: Cell, after: Cell) -> NavState:
    """observe_moves for one agent that stood on before, proposed a cell and ended on after."""
    plans, stalls = [list(reversed(nav.plan))], [nav.stalls]
    observe_moves([before], 0, [proposed], {0: after} if after != before else {}, plans, stalls)
    return NavState(nav.agent, nav.goal, tuple(reversed(plans[0])), stalls[0])
