"""Simulation engine tests with hand-stepped round traces."""
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from areaguard import grid as grid_module
from areaguard.allocate import STRATEGIES
from areaguard.engine import compute_metrics, result_to_json, run_simulation, timed_run
from areaguard.grid import shortest_path
from areaguard.model import AdjacencyGraph, Instance, attacker, defender
from areaguard.scenarios import MapSpec, ScenarioSpec, generate_instance
from helpers import grid_from_rows, random_grid


def make_instance(rows, attackers, targets, defenders, limit):
    return Instance(
        world=grid_from_rows(rows),
        attacker_starts=tuple(attackers),
        attacker_targets=tuple(targets),
        defender_starts=tuple(defenders),
        time_limit=limit,
    )


def test_unopposed_attacker_walks_home():
    inst = make_instance(["...."], [(0, 0)], [(3, 0)], [], limit=10)
    res = run_simulation(inst, "random", seed=1, audit=True)
    # Three moves down the corridor, arriving on round 3.
    assert res.captured == {attacker(0): 3}
    assert res.rounds == 3
    assert res.final.positions[attacker(0)] == (3, 0)
    assert res.metrics.captured == 1
    assert res.metrics.uncaptured == 0
    assert res.metrics.sum_target_distance == 0
    assert res.metrics.time_at_targets == 10 - 3 + 1


def test_attacker_starting_on_target_is_captured_round_one():
    inst = make_instance([".."], [(0, 0)], [(0, 0)], [], limit=5)
    res = run_simulation(inst, "random", seed=0, audit=True)
    assert res.captured == {attacker(0): 1}
    assert res.metrics.time_at_targets == 5


def test_defender_seals_target_before_attacker():
    # Defender starts beside the goal cell and claims it on round 1; the
    # attacker advances to the adjacent cell and is stuck there.
    inst = make_instance(
        [".....", "....."], [(0, 0)], [(4, 0)], [(3, 1)], limit=10
    )
    res = run_simulation(inst, allocation={0: (4, 0)}, audit=True)
    assert res.captured == {}
    assert res.defender_arrivals == {defender(0): 2}
    assert res.final.positions[attacker(0)] == (3, 0)
    assert res.final.positions[defender(0)] == (4, 0)
    assert res.rounds == 10
    assert res.metrics.uncaptured == 1
    assert res.metrics.sum_target_distance == 1
    assert res.metrics.time_at_targets == 0


def test_attacker_phase_runs_first_and_wins_the_race():
    # Both sides are one step from the target cell; attackers move first,
    # so the attacker takes it and the capture freezes the cell.
    inst = make_instance(
        [".....", "....."], [(3, 0)], [(4, 0)], [(4, 1)], limit=7
    )
    res = run_simulation(inst, allocation={0: (4, 0)}, audit=True)
    assert res.captured == {attacker(0): 1}
    assert res.defender_arrivals == {}
    assert res.rounds == 1
    assert res.metrics.time_at_targets == 7


def test_shared_cell_conflict_lower_index_first():
    # Both attackers want (1,1) on round 1. Attacker 0 wins the claim;
    # attacker 1 is denied, then routes around the west side.
    inst = make_instance(
        ["...", "...", "..."], [(0, 1), (1, 0)], [(2, 1), (1, 2)], [], limit=8
    )
    res = run_simulation(inst, "random", seed=0, audit=True, keep_trace=True)
    assert res.captured == {attacker(0): 2, attacker(1): 5}
    assert res.rounds == 5
    assert res.final.positions[attacker(0)] == (2, 1)
    assert res.final.positions[attacker(1)] == (1, 2)
    assert res.metrics.time_at_targets == (8 - 2 + 1) + (8 - 5 + 1)
    # Round 1 attacker phase: agent 0 moved, agent 1 was denied.
    _, phase_name, after = res.trace[1]
    assert phase_name == "attackers"
    assert after.positions[attacker(0)] == (1, 1)
    assert after.positions[attacker(1)] == (1, 0)


def test_convoy_stop_and_go():
    # The rear attacker cannot plan through the leader and follows one
    # round behind once the corridor opens up.
    inst = make_instance(["...."], [(1, 0), (0, 0)], [(3, 0), (2, 0)], [], limit=6)
    res = run_simulation(inst, "random", seed=0, audit=True)
    assert res.captured == {attacker(0): 2, attacker(1): 4}
    assert res.metrics.time_at_targets == (6 - 2 + 1) + (6 - 4 + 1)


def test_mutual_target_occupation_deadlocks():
    # Each attacker sits on the other's target in a 1-wide corridor, so
    # neither can ever plan a route and nobody moves.
    inst = make_instance(["..."], [(0, 0), (2, 0)], [(2, 0), (0, 0)], [], limit=6)
    res = run_simulation(inst, "random", seed=0, audit=True)
    assert res.captured == {}
    assert res.final.positions[attacker(0)] == (0, 0)
    assert res.final.positions[attacker(1)] == (2, 0)
    assert res.metrics.sum_target_distance == 4


def test_unreachable_target_counts_passable_cells():
    inst = make_instance(["..@.."], [(0, 0)], [(3, 0)], [], limit=3)
    res = run_simulation(inst, "random", seed=0, audit=True)
    assert res.captured == {}
    assert res.rounds == 3
    assert res.metrics.sum_target_distance == 4


def test_unassigned_defender_holds_start():
    # One target, two defenders: the random strategy assigns only one.
    inst = make_instance(
        ["....."], [(0, 0)], [(4, 0)], [(3, 0), (2, 0)], limit=4
    )
    res = run_simulation(inst, "random", seed=9, audit=True)
    assert res.allocation == {0: (4, 0)}
    assert res.final.positions[defender(1)] == (2, 0)
    assert res.defender_arrivals == {defender(0): 1}
    assert res.captured == {}


def test_trace_layout():
    inst = make_instance(["...."], [(0, 0)], [(3, 0)], [], limit=10)
    res = run_simulation(inst, "random", seed=1, keep_trace=True)
    assert res.trace[0][:2] == (0, "initial")
    assert len(res.trace) == 1 + 2 * res.rounds
    phases = [entry[1] for entry in res.trace[1:]]
    assert phases == ["attackers", "defenders"] * res.rounds
    assert res.trace[-1][2].positions == res.final.positions


def test_rejects_graph_worlds():
    graph = AdjacencyGraph.from_edges(["u", "v"], [("u", "v")])
    inst = Instance(
        world=graph,
        attacker_starts=("u",),
        attacker_targets=("v",),
        defender_starts=(),
        time_limit=3,
    )
    with pytest.raises(ValueError):
        run_simulation(inst, "random", seed=0)


def test_rejects_invalid_instance():
    inst = make_instance(["..."], [(0, 0)], [(2, 0)], [], limit=0)
    with pytest.raises(ValueError):
        run_simulation(inst, "random", seed=0)


def test_explicit_allocation_cells_are_checked_up_front():
    # A blocked or off-map cell fails before the first round, naming the cell.
    inst = make_instance(["...", "..@", "..."], [(0, 0)], [(2, 2)], [(0, 2)], limit=5)
    for cell in ((2, 1), (9, 9)):
        with pytest.raises(ValueError, match=re.escape(f"d0 to {cell!r}, which is not passable")):
            run_simulation(inst, allocation={0: cell})


def build_random_instance(rng, k):
    while True:
        grid = random_grid(rng, 8, 8, wall_rate=0.2)
        cells = list(grid.passable_cells())
        if len(cells) >= 3 * k:
            picked = rng.sample(cells, 3 * k)
            return Instance(
                world=grid,
                attacker_starts=tuple(picked[:k]),
                attacker_targets=tuple(picked[k : 2 * k]),
                defender_starts=tuple(picked[2 * k :]),
                time_limit=40,
            )


def test_random_runs_audit_clean_and_deterministic():
    rng = random.Random(20240311)
    strategies = ["random", "greedy", "strict-greedy", "bottleneck"]
    for trial in range(40):
        inst = build_random_instance(rng, k=rng.randrange(1, 5))
        strategy = strategies[trial % 4]
        first = run_simulation(inst, strategy, seed=trial, audit=True)
        again = run_simulation(inst, strategy, seed=trial, audit=True)
        assert first.captured == again.captured
        assert first.metrics == again.metrics
        assert first.final.positions == again.final.positions
        assert first.allocation == again.allocation

        n = inst.n_attackers
        assert first.metrics.captured == len(first.captured)
        assert first.metrics.captured + first.metrics.uncaptured == n
        for agent, t in first.captured.items():
            assert 1 <= t <= first.rounds
            assert first.final.positions[agent] == inst.target_of(agent)
        for agent in inst.attackers:
            if agent not in first.captured:
                assert first.final.positions[agent] != inst.target_of(agent)
        for agent, t in first.defender_arrivals.items():
            assert 1 <= t <= first.rounds
            assert first.final.positions[agent] == first.allocation[agent.index]


def test_compute_metrics_matches_manual_sum():
    inst = make_instance(
        [".....", ".@@@.", "....."],
        [(0, 0), (4, 0)],
        [(4, 2), (0, 2)],
        [],
        limit=2,
    )
    res = run_simulation(inst, "random", seed=0)
    metrics = compute_metrics(inst, res.final, res.captured)
    expected = 0
    for agent in inst.attackers:
        if agent in res.captured:
            continue
        path = shortest_path(inst.world, res.final.positions[agent], inst.target_of(agent))
        expected += len(path) - 1
    assert metrics.sum_target_distance == expected
    assert metrics == res.metrics


def test_timed_run_and_json_shape():
    inst = make_instance(["...."], [(0, 0)], [(3, 0)], [(1, 0)], limit=10)
    res, wall_ms = timed_run(inst, "greedy", seed=0)
    assert wall_ms >= 0.0
    doc = result_to_json(res)
    parsed = json.loads(json.dumps(doc))
    assert parsed["strategy"] == "greedy"
    assert set(parsed["metrics"]) == {
        "captured",
        "uncaptured",
        "sum_target_distance",
        "time_at_targets",
    }
    assert parsed["allocation"] == {"d0": [3, 0]}


def _two_room_outputs_digest() -> tuple[str, int]:
    """Hash of result_to_json plus every phase's positions over 8 runs."""
    spec = ScenarioSpec(MapSpec("rooms", 24, 12, 2, 1, 1), 30, 3, 60, "separated")
    digest = hashlib.sha256()
    runs = 0
    for seed in (1, 2):
        inst = generate_instance(spec, seed)
        for strategy in STRATEGIES:
            res = run_simulation(inst, strategy, seed, keep_trace=True)
            trace = [
                [step, phase, sorted((a.label, list(c)) for a, c in cfg.positions.items())]
                for step, phase, cfg in res.trace
            ]
            digest.update(json.dumps([result_to_json(res), trace], sort_keys=True).encode())
            runs += 1
    return digest.hexdigest(), runs


def test_crowded_two_room_outputs_are_pinned(monkeypatch):
    # 30 attackers crowd one door held by 3 defenders, so most replans fail
    # and go through the engine's failed-search memo. The digest pins every
    # phase of all four strategies on two seeds. Every search on this 24x12
    # map fits the layers' budget, so none may fall back to the list flood.
    floods = []
    flood = grid_module._flood

    def counted_flood(*args):
        floods.append(args)
        return flood(*args)

    monkeypatch.setattr(grid_module, "_flood", counted_flood)
    digest, runs = _two_room_outputs_digest()
    assert runs == 8
    assert floods == []
    assert digest == "21886c38665881566b9bd17645a33fae08f4dd312562ad4ff276790407cb6c53"


MAPS = Path(__file__).resolve().parent.parent / "maps"


def test_acceptance_sized_outputs_are_pinned():
    # 100 attackers on the 44x44 rooms3 map and the islands stand-in, at
    # 1:1 and 1:10, where most replans succeed on long layered routes. The
    # digest pins result_to_json and every phase's positions (in agent
    # order, attackers first) of all four strategies, one seed per case.
    rooms3 = MapSpec("rooms", 44, 44, 3, 3, 1)
    islands = MapSpec("file", path="islands_standin.map")
    cases = [
        (ScenarioSpec(rooms3, 100, 100, 150, "separated"), 11),
        (ScenarioSpec(rooms3, 100, 10, 150, "overlapped"), 12),
        (ScenarioSpec(islands, 100, 100, 150, "overlapped"), 13),
        (ScenarioSpec(islands, 100, 10, 150, "separated"), 14),
    ]
    digest = hashlib.sha256()
    runs = 0
    for spec, seed in cases:
        inst = generate_instance(spec, seed, MAPS)
        agents = inst.attackers + inst.defenders
        for strategy in STRATEGIES:
            res = run_simulation(inst, strategy, seed, keep_trace=True)
            trace = [[step, phase, [list(cfg.positions[a]) for a in agents]] for step, phase, cfg in res.trace]
            digest.update(json.dumps([result_to_json(res), trace], sort_keys=True).encode())
            runs += 1
    assert runs == 16
    assert digest.hexdigest() == "5be440d8e2542b1c58741888a9952683c4875971134606d3a5d85922dcbfce7c"
