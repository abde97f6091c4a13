"""Per-agent route planning with local repair.

Each agent keeps a private shortest-path plan toward its goal and follows
it head-first. When the next planned cell is occupied the agent replans
immediately, treating every currently occupied cell (both teams) as
blocked; if no route exists it waits and keeps the stale plan in the hope
that the blocker leaves. Conflict-resolution denials are reported back via
observe_result; after STALL_REPLAN_THRESHOLD consecutive stalls with a
live plan the agent throws the plan away and replans from scratch, which
bounds convoy livelocks. An agent whose goal is None (or already reached)
simply holds its cell.
"""
from __future__ import annotations

from dataclasses import dataclass

from areaguard.grid import Cell, GridMap, SnapshotMemo, find_path, shortest_path
from areaguard.model import AgentId, Configuration

STALL_REPLAN_THRESHOLD = 3


@dataclass(frozen=True)
class NavState:
    """Routing memory of one agent between steps."""

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
    """Propose the agent's next cell and return its updated state.

    The proposal is always legal in isolation: the current cell, or an
    adjacent passable cell that was unoccupied when proposed. Voluntary
    waits (no goal, at goal, no route) are counted in the returned state's
    stall counter; denied moves are counted later by observe_result.

    Callers stepping a whole team may pass the phase's occupied-cell set to
    avoid rebuilding it per agent; it is read, never mutated. The agent's
    own cell may stay in it: plan heads are never the current cell and the
    path search ignores its source as an obstacle. Such callers may also
    pass memo, one grid.SnapshotMemo shared by all calls made against one
    occupied snapshot, so that its replans share what find_path learns
    about the snapshot and hopeless ones in a crowded phase are answered
    without a search.
    """
    here = config.positions[nav.agent]
    if nav.goal is None or here == nav.goal:
        if nav.plan or nav.stalls:
            nav = NavState(nav.agent, nav.goal)
        return here, nav

    plan = nav.plan
    forced = plan and nav.stalls >= STALL_REPLAN_THRESHOLD
    if forced:
        plan = ()

    if occupied is None:
        occupied = config.occupied_cells()
        occupied.discard(here)
    if plan and plan[0] not in occupied:
        if forced is False and plan is nav.plan:
            return plan[0], nav
        return plan[0], NavState(nav.agent, nav.goal, plan, nav.stalls)

    if memo is None:
        path = shortest_path(grid, here, nav.goal, forbidden=occupied)
    else:
        path = find_path(grid, here, nav.goal, occupied, memo)[0]
    if path is None:
        # Keep whatever plan we had; the blocker may move next step.
        return here, NavState(nav.agent, nav.goal, nav.plan, nav.stalls + 1)
    new_plan = tuple(path[1:])
    return new_plan[0], NavState(nav.agent, nav.goal, new_plan)


def observe_result(nav: NavState, proposed: Cell, before: Cell, after: Cell) -> NavState:
    """Fold the outcome of a team phase back into the agent's state."""
    if after != before:
        if nav.plan and nav.plan[0] == after:
            return NavState(nav.agent, nav.goal, nav.plan[1:])
        # Desynchronized plan (should not happen): drop it and replan later.
        return NavState(nav.agent, nav.goal)
    if proposed != before:
        # The move was denied by conflict resolution.
        return NavState(nav.agent, nav.goal, nav.plan, nav.stalls + 1)
    return nav
