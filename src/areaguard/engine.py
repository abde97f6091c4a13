"""Two-phase simulation of one area-protection run.

Every round, all attackers move, then all defenders. Attackers steer
toward their own targets; a defender steers toward its allocated cell (or
holds its start when unassigned) and stays there once arrived. An attacker
that reaches its target is captured: it freezes on the spot and stops
counting as active. The run ends after the configured number of rounds or
as soon as every attacker is captured.

The round loop runs on cell indices: one list of positions (attackers
first) with an occupant table, and plain lists of goals, plans and stall
counts. Each phase is one nav.plan_moves, one model.resolve_moves and one
nav.observe_moves call. AgentId labels and Configurations appear only in
the result, its trace and the audit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from areaguard.allocate import Allocation, allocate_for
from areaguard.grid import GridMap, SnapshotMemo, shortest_path
from areaguard.model import (
    AgentId,
    Configuration,
    Instance,
    RuleViolation,
    Team,
    audit_team_step,
    resolve_moves,
    validate_instance,
)
from areaguard.nav import observe_moves, plan_moves
# Unused here; perfbench/tracing.py rebinds these names (ROADMAP item 1).
from areaguard.model import apply_team_move  # noqa: F401
from areaguard.nav import next_move  # noqa: F401


@dataclass(frozen=True)
class Metrics:
    """Outcome measures of one run (lower is better for the defenders).

    captured            number of attackers that reached their target
    uncaptured          attackers still short of their target at the end
    sum_target_distance total bare-map BFS distance from each uncaptured
                        attacker's final cell to its target (an unreachable
                        target contributes the map's passable-cell count)
    time_at_targets     sum over captured attackers of
                        (time_limit - arrival_round + 1)
    """

    captured: int
    uncaptured: int
    sum_target_distance: int
    time_at_targets: int


@dataclass
class SimResult:
    strategy: str
    seed: int
    allocation: Allocation
    captured: dict[AgentId, int]
    defender_arrivals: dict[AgentId, int]
    final: Configuration
    rounds: int
    metrics: Metrics
    trace: list[tuple[int, str, Configuration]] | None = None


def compute_metrics(
    instance: Instance, final: Configuration, captured: dict[AgentId, int]
) -> Metrics:
    grid = instance.world
    assert isinstance(grid, GridMap)
    sentinel = grid.passable_count
    sum_dist = 0
    for agent in instance.attackers:
        if agent in captured:
            continue
        path = shortest_path(grid, final.positions[agent], instance.target_of(agent))
        sum_dist += len(path) - 1 if path is not None else sentinel
    time_at = sum(instance.time_limit - t + 1 for t in captured.values())
    return Metrics(
        captured=len(captured),
        uncaptured=instance.n_attackers - len(captured),
        sum_target_distance=sum_dist,
        time_at_targets=time_at,
    )


def run_simulation(
    instance: Instance,
    strategy: str = "random",
    seed: int = 0,
    allocation: Allocation | None = None,
    keep_trace: bool = False,
    audit: bool = False,
) -> SimResult:
    """Simulate one run and return its outcome.

    The seed drives the seeded strategies; routing itself is deterministic,
    so the whole result is a pure function of the arguments. Passing an
    explicit allocation skips the strategy computation. With audit=True
    every phase transition is re-checked against the movement rules and a
    RuleViolation is raised on any breach (a self-test hook; the engine is
    expected to never trip it).
    """
    grid = instance.world
    if not isinstance(grid, GridMap):
        raise ValueError("the simulator only runs grid instances")
    problems = validate_instance(instance)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    if allocation is None:
        allocation = allocate_for(instance, strategy, seed)
    na, nd = instance.n_attackers, instance.n_defenders
    for i, goal in allocation.items():
        if 0 <= i < nd and not grid.is_passable(goal):
            raise ValueError(f"allocation sends d{i} to {goal!r}, which is not passable")

    index = grid.index
    pos = [index(c) for c in instance.attacker_starts + instance.defender_starts]
    occupant = [-1] * len(grid._nbr)
    for a, c in enumerate(pos):
        occupant[c] = a
    goals = [index(c) for c in instance.attacker_targets]
    goals += [index(allocation[i]) if i in allocation else -1 for i in range(nd)]
    plans: list = [()] * len(pos)
    stalls = [0] * len(pos)
    agents = instance.attackers + instance.defenders
    # The round each agent first stands on its goal; 0 until then.
    arrival = [0] * len(pos)

    def configuration() -> Configuration:
        return Configuration({agent: grid.cell(c) for agent, c in zip(agents, pos)})

    config = configuration() if keep_trace or audit else None
    trace = [(0, "initial", config)] if keep_trace else None

    # What one phase's searches learn about the occupied cells stays valid
    # as long as nobody moves, which is the norm once the field gridlocks;
    # carrying the memo across such phases answers the replans of fully
    # stuck agents without a search.
    occupied = set(pos)
    memo = SnapshotMemo()

    def phase(lo: int, hi: int, team: Team, round_no: int) -> None:
        nonlocal config, occupied, memo
        moves = plan_moves(grid, pos, lo, hi, goals, plans, stalls, occupied, memo)
        granted = resolve_moves(pos, occupant, lo, hi, moves)
        observe_moves(pos, lo, moves, granted, plans, stalls)
        for a in range(lo, hi):
            if not arrival[a] and pos[a] == goals[a]:
                arrival[a] = round_no
        if granted:
            occupied = set(pos)
            memo = SnapshotMemo()
        if config is not None:
            after = configuration()
            if audit:
                violations = audit_team_step(grid, config, after, team)
                if violations:
                    raise RuleViolation(f"round {round_no} {team.name}: " + "; ".join(violations))
            if trace is not None:
                trace.append((round_no, team.name.lower(), after))
            config = after

    rounds = 0
    for t in range(1, instance.time_limit + 1):
        rounds = t
        phase(0, na, Team.ATTACKERS, t)
        phase(na, na + nd, Team.DEFENDERS, t)
        if 0 not in arrival[:na]:
            break

    final = config or configuration()
    captured = {agents[a]: arrival[a] for a in range(na) if arrival[a]}
    return SimResult(
        strategy=strategy,
        seed=seed,
        allocation=allocation,
        captured=captured,
        defender_arrivals={agents[a]: arrival[a] for a in range(na, na + nd) if arrival[a]},
        final=final,
        rounds=rounds,
        metrics=compute_metrics(instance, final, captured),
        trace=trace,
    )


def timed_run(instance: Instance, strategy: str, seed: int) -> tuple[SimResult, float]:
    """run_simulation plus wall-clock milliseconds (for benchmark rows)."""
    t0 = time.perf_counter()
    result = run_simulation(instance, strategy, seed)
    return result, (time.perf_counter() - t0) * 1000.0


def result_to_json(result: SimResult) -> dict:
    return {
        "strategy": result.strategy,
        "seed": result.seed,
        "rounds": result.rounds,
        "allocation": {f"d{i}": list(c) for i, c in sorted(result.allocation.items())},
        "captured": {a.label: t for a, t in sorted(result.captured.items())},
        "defender_arrivals": {a.label: t for a, t in sorted(result.defender_arrivals.items())},
        "metrics": {
            "captured": result.metrics.captured,
            "uncaptured": result.metrics.uncaptured,
            "sum_target_distance": result.metrics.sum_target_distance,
            "time_at_targets": result.metrics.time_at_targets,
        },
    }
