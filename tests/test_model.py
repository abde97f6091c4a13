"""Movement-rule kernel, instance schema, rule auditor."""
from __future__ import annotations

import random

import pytest

from areaguard.grid import GridMap
from areaguard.model import (
    AdjacencyGraph,
    Configuration,
    Instance,
    Team,
    TeamMove,
    apply_team_move,
    attacker,
    audit_team_step,
    capture_state,
    defender,
    instance_from_json,
    instance_to_json,
    load_instance,
    parse_agent_label,
    save_instance,
    validate_instance,
)
from helpers import grid_from_rows, random_grid


def att_move(cfg: Configuration, **by_index) -> TeamMove:
    desired = {a: cfg.positions[a] for a in cfg.team_agents(Team.ATTACKERS)}
    for idx, cell in by_index.items():
        desired[attacker(int(idx[1:]))] = cell
    return TeamMove(Team.ATTACKERS, desired)


def test_agent_labels():
    assert attacker(3).label == "a3"
    assert defender(0).label == "d0"
    assert parse_agent_label("a12") == attacker(12)
    assert parse_agent_label("d4") == defender(4)
    with pytest.raises(ValueError):
        parse_agent_label("x1")


def test_swap_is_refused_both_stay():
    grid = grid_from_rows([".."])
    cfg = Configuration({attacker(0): (0, 0), attacker(1): (1, 0)})
    mv = att_move(cfg, a0=(1, 0), a1=(0, 0))
    out = apply_team_move(grid, cfg, mv)
    assert out.positions == cfg.positions


def test_chain_into_vacated_cell_moves_both():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (1, 0), attacker(1): (0, 0)})
    out = apply_team_move(grid, cfg, att_move(cfg, a0=(2, 0), a1=(1, 0)))
    assert out.positions[attacker(0)] == (2, 0)
    assert out.positions[attacker(1)] == (1, 0)


def test_chain_behind_stationary_agent_waits():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (1, 0), attacker(1): (0, 0)})
    out = apply_team_move(grid, cfg, att_move(cfg, a1=(1, 0)))
    assert out.positions == cfg.positions


def test_rotation_of_four_on_grid_executes():
    # Hand-checked: every entered cell is vacated in the same phase and no
    # pair swaps, so the whole ring turns.
    grid = grid_from_rows(["..", ".."])
    ring = [(0, 0), (1, 0), (1, 1), (0, 1)]
    cfg = Configuration({attacker(i): ring[i] for i in range(4)})
    mv = att_move(cfg, a0=(1, 0), a1=(1, 1), a2=(0, 1), a3=(0, 0))
    out = apply_team_move(grid, cfg, mv)
    assert out.positions == {
        attacker(0): (1, 0),
        attacker(1): (1, 1),
        attacker(2): (0, 1),
        attacker(3): (0, 0),
    }


def test_rotation_of_three_on_triangle_graph():
    graph = AdjacencyGraph.from_edges(list("pqr"), [("p", "q"), ("q", "r"), ("r", "p")])
    cfg = Configuration({attacker(0): "p", attacker(1): "q", attacker(2): "r"})
    out = apply_team_move(graph, cfg, att_move(cfg, a0="q", a1="r", a2="p"))
    assert out.positions == {attacker(0): "q", attacker(1): "r", attacker(2): "p"}


def test_other_team_is_a_frozen_obstacle():
    grid = grid_from_rows([".."])
    cfg = Configuration({attacker(0): (0, 0), defender(0): (1, 0)})
    out = apply_team_move(grid, cfg, att_move(cfg, a0=(1, 0)))
    assert out.positions[attacker(0)] == (0, 0)
    assert out.positions[defender(0)] == (1, 0)


def test_same_cell_conflict_lower_index_wins():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (0, 0), attacker(1): (2, 0)})
    out = apply_team_move(grid, cfg, att_move(cfg, a0=(1, 0), a1=(1, 0)))
    assert out.positions[attacker(0)] == (1, 0)
    assert out.positions[attacker(1)] == (2, 0)


def test_conflict_loser_waits_even_if_winner_fails():
    # a0 claims the contested cell but its move is blocked by a stationary
    # teammate; a1 lost the claim and must wait too.
    grid = grid_from_rows(["...", "..."])
    cfg = Configuration({attacker(0): (0, 0), attacker(1): (2, 0), attacker(2): (1, 0)})
    out = apply_team_move(grid, cfg, att_move(cfg, a0=(1, 0), a1=(1, 0)))
    assert out.positions == cfg.positions


def test_move_proposal_contract_errors():
    grid = grid_from_rows(["..#"])
    cfg = Configuration({attacker(0): (0, 0), attacker(1): (1, 0)})
    with pytest.raises(ValueError):
        apply_team_move(grid, cfg, TeamMove(Team.ATTACKERS, {attacker(0): (0, 0)}))
    with pytest.raises(ValueError):
        apply_team_move(grid, cfg, att_move(cfg, a1=(2, 0)))  # impassable
    with pytest.raises(ValueError):
        apply_team_move(grid, cfg, att_move(cfg, a0=(0, 1)))  # out of bounds
    diag = Configuration({attacker(0): (0, 0)})
    grid2 = grid_from_rows(["..", ".."])
    with pytest.raises(ValueError, match=r"a0 proposes non-adjacent cell \(1, 1\) from \(0, 0\)"):
        apply_team_move(grid2, diag, TeamMove(Team.ATTACKERS, {attacker(0): (1, 1)}))
    graph = AdjacencyGraph.from_edges(list("uvw"), [("u", "v"), ("v", "w")])
    on_u = Configuration({attacker(0): "u"})
    with pytest.raises(ValueError, match="a0 proposes non-adjacent cell 'w' from 'u'"):
        apply_team_move(graph, on_u, TeamMove(Team.ATTACKERS, {attacker(0): "w"}))
    moved = apply_team_move(graph, on_u, TeamMove(Team.ATTACKERS, {attacker(0): "v"}))
    assert moved.positions == {attacker(0): "v"}


def test_defender_phase_moves_only_defenders():
    grid = grid_from_rows(["..."])
    cfg = Configuration({attacker(0): (0, 0), defender(0): (1, 0)})
    mv = TeamMove(Team.DEFENDERS, {defender(0): (2, 0)})
    out = apply_team_move(grid, cfg, mv)
    assert out.positions[defender(0)] == (2, 0)
    assert out.positions[attacker(0)] == (0, 0)


def test_resolution_is_deterministic_and_rule_clean():
    rng = random.Random(1234)
    for _ in range(200):
        grid = random_grid(rng, 7, 5, wall_rate=0.2)
        cells = list(grid.passable_cells())
        if len(cells) < 8:
            continue
        spots = rng.sample(cells, 8)
        positions = {attacker(i): spots[i] for i in range(5)}
        positions.update({defender(i): spots[5 + i] for i in range(3)})
        cfg = Configuration(positions)
        team = rng.choice([Team.ATTACKERS, Team.DEFENDERS])
        desired = {}
        for agent in cfg.team_agents(team):
            options = [cfg.positions[agent]] + grid.neighbors(cfg.positions[agent])
            desired[agent] = rng.choice(options)
        mv = TeamMove(team, desired)
        out = apply_team_move(grid, cfg, mv)
        again = apply_team_move(grid, cfg, TeamMove(team, dict(desired)))
        assert out.positions == again.positions
        assert audit_team_step(grid, cfg, out, team) == []
        # Whoever moved, moved exactly where it asked to.
        for agent, cell in out.positions.items():
            if cell != cfg.positions[agent]:
                assert cell == desired[agent]


def test_capture_state():
    grid = grid_from_rows(["...."])
    inst = Instance(
        world=grid,
        attacker_starts=((0, 0), (1, 0)),
        attacker_targets=((3, 0), (2, 0)),
        defender_starts=(),
        time_limit=5,
    )
    cfg = Configuration({attacker(0): (2, 0), attacker(1): (1, 0)})
    assert capture_state(cfg, inst) == frozenset()
    cfg2 = Configuration({attacker(0): (3, 0), attacker(1): (2, 0)})
    assert capture_state(cfg2, inst) == frozenset({attacker(0), attacker(1)})


def test_validate_instance_diagnostics():
    grid = grid_from_rows(["..#", "..."])
    good = Instance(grid, ((0, 0),), ((2, 1),), ((1, 0),), 10)
    assert validate_instance(good) == []

    bad = Instance(grid, ((0, 0), (0, 0)), ((2, 1), (2, 1)), ((0, 0),), 0)
    problems = "\n".join(validate_instance(bad))
    assert "time limit" in problems
    assert "not pairwise distinct" in problems
    assert "targets are not pairwise distinct" in problems

    impassable = Instance(grid, ((2, 0),), ((1, 1),), (), 5)
    assert any("not passable" in p for p in validate_instance(impassable))

    empty = Instance(grid, (), (), (), 5)
    assert any("no attackers" in p for p in validate_instance(empty))


def test_auditor_flags_bad_transitions():
    grid = grid_from_rows(["...", "..."])
    cfg = Configuration({attacker(0): (0, 0), attacker(1): (1, 0), defender(0): (2, 1)})

    teleport = Configuration({**cfg.positions, attacker(0): (2, 0)})
    assert any("jumped" in p for p in audit_team_step(grid, cfg, teleport, Team.ATTACKERS))

    swap = Configuration({**cfg.positions, attacker(0): (1, 0), attacker(1): (0, 0)})
    assert any("swapped" in p for p in audit_team_step(grid, cfg, swap, Team.ATTACKERS))

    pile = Configuration({**cfg.positions, attacker(0): (1, 0)})
    assert any("share a cell" in p for p in audit_team_step(grid, cfg, pile, Team.ATTACKERS))

    off_phase = Configuration({**cfg.positions, defender(0): (2, 0)})
    assert any(
        "outside its phase" in p for p in audit_team_step(grid, cfg, off_phase, Team.ATTACKERS)
    )

    legal = Configuration({**cfg.positions, attacker(0): (0, 1)})
    assert audit_team_step(grid, cfg, legal, Team.ATTACKERS) == []


def test_adjacency_graph_validation():
    with pytest.raises(ValueError):
        AdjacencyGraph.from_edges(["a"], [("a", "b")])
    with pytest.raises(ValueError):
        AdjacencyGraph.from_edges(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        AdjacencyGraph({"a": ["b"], "b": []})
    g = AdjacencyGraph.from_edges(["c", "a", "b"], [("a", "b"), ("b", "c")])
    assert list(g.nodes()) == ["a", "b", "c"]
    assert g.neighbors("b") == ["a", "c"]
    assert g.edge_list() == [("a", "b"), ("b", "c")]


def test_instance_json_round_trip_grid(tmp_path):
    grid = grid_from_rows(["...", ".#."])
    inst = Instance(grid, ((0, 0), (1, 0)), ((2, 1), (2, 0)), ((0, 1),), 42)
    doc = instance_to_json(inst)
    assert doc["map"] == ["...", ".@."]
    back = instance_from_json(doc)
    assert back == inst

    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    assert load_instance(str(path)) == inst


def test_instance_json_round_trip_graph():
    g = AdjacencyGraph.from_edges(["u", "v", "w"], [("u", "v"), ("v", "w")])
    inst = Instance(g, ("u",), ("w",), ("v",), 9, metadata={"note": "tiny"})
    doc = instance_to_json(inst)
    assert "graph" in doc and "map" not in doc
    back = instance_from_json(doc)
    assert back.world == g
    assert back.attacker_starts == ("u",)
    assert back.metadata == {"note": "tiny"}


def test_instance_json_map_by_path(tmp_path):
    from areaguard.grid import dump_map

    grid = grid_from_rows(["....", "...."])
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / "m.map").write_text(dump_map(grid))
    doc = {
        "map": "maps/m.map",
        "time_limit": 3,
        "attackers": [{"start": [0, 0], "target": [3, 1]}],
        "defenders": [],
    }
    import json

    (tmp_path / "inst.json").write_text(json.dumps(doc))
    inst = load_instance(str(tmp_path / "inst.json"))
    assert inst.world == grid
    assert inst.attacker_targets == ((3, 1),)


def test_instance_json_needs_exactly_one_world():
    with pytest.raises(ValueError):
        instance_from_json({"time_limit": 1})
    with pytest.raises(ValueError):
        instance_from_json({"map": ["."], "graph": {"nodes": [], "edges": []}})


def test_inline_map_error_names_the_map_row():
    doc = {"time_limit": 1, "map": ["....", "..x."], "attackers": [], "defenders": []}
    with pytest.raises(ValueError) as err:
        instance_from_json(doc)
    assert str(err.value) == "map row 2, column 3: unknown terrain character 'x'"
    doc["map"] = ["....", "..."]
    with pytest.raises(ValueError) as err:
        instance_from_json(doc)
    assert str(err.value) == "map row 2: row has 3 characters, expected 4"


def test_instance_without_time_limit_is_rejected():
    doc = {"map": ["...."], "attackers": [{"start": [0, 0], "target": [3, 0]}]}
    with pytest.raises(ValueError) as err:
        instance_from_json(doc)
    assert str(err.value) == "instance has no 'time_limit'"
    doc["time_limit"] = None
    with pytest.raises(ValueError) as err:
        instance_from_json(doc)
    assert str(err.value) == "instance 'time_limit' must be an integer, got None"
