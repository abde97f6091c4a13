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

from areaguard.grid import BIT_BUDGET, Cell, GridMap, find_path, free_mask, shortest_path
from areaguard.model import AgentId, Configuration

STALL_REPLAN_THRESHOLD = 3


@dataclass(frozen=True)
class NavState:
    """Routing memory of one agent between steps."""

    agent: AgentId
    goal: Cell | None
    plan: tuple[Cell, ...] = ()
    stalls: int = 0


class SnapshotMemo:
    """What the replans against one occupied snapshot share.

    free is the snapshot's free-cell mask for grid.find_path, packed by the
    first search that needs it; cuts holds the cuts that failed searches
    report (see _search_with_memo), bitmasks of whole free components, at
    most BIT_BUDGET bits of them in all.
    """

    __slots__ = ("free", "cuts")

    def __init__(self) -> None:
        self.free: int | None = None
        self.cuts: list[int] = []


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
    pass memo, one SnapshotMemo shared by all calls made against one
    occupied snapshot: the snapshot's free-cell mask is packed once for all
    its searches, and failed searches leave cuts that answer hopeless
    replans in a crowded phase without a search.
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
        path = _search_with_memo(grid, here, nav.goal, occupied, memo)
    if path is None:
        # Keep whatever plan we had; the blocker may move next step.
        return here, NavState(nav.agent, nav.goal, nav.plan, nav.stalls + 1)
    new_plan = tuple(path[1:])
    return new_plan[0], NavState(nav.agent, nav.goal, new_plan)


def _search_with_memo(
    grid: GridMap,
    src: Cell,
    dst: Cell,
    occupied: set[Cell],
    memo: SnapshotMemo,
) -> list[Cell] | None:
    """Path search (src != dst) that skips searches its cuts prove futile.

    An occupied dst, or a src with no free neighbor, has no route and is
    answered at once. memo.cuts holds the cuts that failed find_path calls
    against one occupied snapshot reported: each is a union of whole free
    components. A route leaves src through a free neighbor in dst's
    component, and that component lies wholly inside or wholly outside
    each cut. So when dst is inside a cut that holds no free neighbor of
    src, or outside a cut that holds all of them, the search is skipped.
    The answer is exactly what the full search would return, just cheaper.
    Once the cuts fill BIT_BUDGET bits, failed searches add no more.
    """
    if dst in occupied:
        return None
    w = grid.width
    near = 0
    for ni in grid._nbr[src[0] + src[1] * w]:
        if (ni % w, ni // w) not in occupied:
            near |= 1 << ni
    if not near:
        return None
    target = 1 << (dst[0] + dst[1] * w)
    cuts = memo.cuts
    for cut in cuts:
        if cut & target:
            if not cut & near:
                return None
        elif cut & near == near:
            return None
    if memo.free is None:
        memo.free = free_mask(grid, occupied)
    keep_cut = cuts.append if len(cuts) < BIT_BUDGET // len(grid._nbr) else None
    return find_path(grid, src, dst, occupied, memo.free, keep_cut)[0]


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
