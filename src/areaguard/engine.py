"""Two-phase simulation of one area-protection run.

Every round, all attackers move, then all defenders. Attackers steer
toward their own targets; a defender steers toward its allocated cell (or
holds its start when unassigned) and stays there once arrived. An attacker
that reaches its target is captured: it freezes on the spot and stops
counting as active. The run ends after the configured number of rounds or
as soon as every attacker is captured.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from areaguard.allocate import Allocation, allocate_for
from areaguard.grid import Cell, GridMap, SnapshotMemo, shortest_path
from areaguard.model import (
    AgentId,
    Configuration,
    Instance,
    RuleViolation,
    Team,
    TeamMove,
    apply_team_move,
    audit_team_step,
    validate_instance,
)
from areaguard.nav import NavState, next_move, observe_result


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

    attackers = instance.attackers
    defenders = instance.defenders
    navs: dict[AgentId, NavState] = {}
    for agent in attackers:
        navs[agent] = NavState(agent, goal=instance.target_of(agent))
    for agent in defenders:
        navs[agent] = NavState(agent, goal=allocation.get(agent.index))

    config = instance.initial_configuration()
    captured: dict[AgentId, int] = {}
    defender_arrivals: dict[AgentId, int] = {}
    trace: list[tuple[int, str, Configuration]] | None = None
    if keep_trace:
        trace = [(0, "initial", config)]

    # What one phase's searches learn about the occupied cells stays valid
    # as long as nobody moves, which is the norm once the field gridlocks;
    # carrying the memo across identical phases answers the replans of
    # fully stuck agents without a search.
    last_occupied: set[Cell] = set()
    last_memo = SnapshotMemo()

    def phase(team_agents: list[AgentId], team: Team, round_no: int) -> Configuration:
        nonlocal config, last_occupied, last_memo
        occupied = set(config.positions.values())
        memo = last_memo if occupied == last_occupied else SnapshotMemo()
        last_occupied, last_memo = occupied, memo
        proposals: dict[AgentId, Cell] = {}
        for agent in team_agents:
            if agent in captured:
                proposals[agent] = config.positions[agent]
                continue
            desired, navs[agent] = next_move(
                navs[agent], config, grid, occupied=occupied, memo=memo
            )
            proposals[agent] = desired
        after = apply_team_move(grid, config, TeamMove(team, proposals))
        if audit:
            violations = audit_team_step(grid, config, after, team)
            if violations:
                raise RuleViolation(f"round {round_no} {team.name}: " + "; ".join(violations))
        for agent in team_agents:
            if agent in captured:
                continue
            navs[agent] = observe_result(
                navs[agent], proposals[agent], config.positions[agent], after.positions[agent]
            )
        if trace is not None:
            trace.append((round_no, team.name.lower(), after))
        return after

    rounds = 0
    for t in range(1, instance.time_limit + 1):
        rounds = t
        config = phase(attackers, Team.ATTACKERS, t)
        for agent in attackers:
            if agent not in captured and config.positions[agent] == instance.target_of(agent):
                captured[agent] = t
        config = phase(defenders, Team.DEFENDERS, t)
        for agent in defenders:
            goal = allocation.get(agent.index)
            if goal is not None and agent not in defender_arrivals and config.positions[agent] == goal:
                defender_arrivals[agent] = t
        if len(captured) == instance.n_attackers:
            break

    return SimResult(
        strategy=strategy,
        seed=seed,
        allocation=allocation,
        captured=captured,
        defender_arrivals=defender_arrivals,
        final=config,
        rounds=rounds,
        metrics=compute_metrics(instance, config, captured),
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
