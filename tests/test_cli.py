"""End-to-end command line tests (in-process main calls)."""
import copy
import json
import random

import pytest

from areaguard import engine
from areaguard.bench import config_from_json
from areaguard.cli import main
from areaguard.model import instance_from_json, load_instance, validate_instance
from areaguard.scenarios import (
    MapSpec,
    Rect,
    ScenarioSpec,
    generate_instance,
    map_spec_from_json,
    spec_from_json,
)

SPEC_DOC = {
    "map": {"kind": "empty", "width": 12, "height": 6},
    "attackers": 3,
    "defenders": 2,
    "time_limit": 25,
    "placement": "overlapped",
}

BENCH_DOC = {
    "master_seed": 3,
    "attackers": 4,
    "time_limit": 20,
    "runs": 2,
    "ratios": ["1:2"],
    "placements": ["overlapped"],
    "strategies": ["random", "bottleneck"],
    "maps": [{"name": "open", "map": {"kind": "empty", "width": 10, "height": 6}}],
}

QDIMACS = "p cnf 2 1\ne 1 0\na 2 0\n1 -2 0\n"


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_gen_matches_library(tmp_path):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, SPEC_DOC)
    out = tmp_path / "inst.json"
    assert main(["gen", "--spec", str(spec_path), "--seed", "3", "-o", str(out)]) == 0
    inst = load_instance(str(out))
    expected = generate_instance(
        ScenarioSpec(
            map=MapSpec(kind="empty", width=12, height=6),
            n_attackers=3,
            n_defenders=2,
            time_limit=25,
        ),
        seed=3,
    )
    assert inst.attacker_starts == expected.attacker_starts
    assert inst.attacker_targets == expected.attacker_targets
    assert inst.defender_starts == expected.defender_starts
    assert inst.world == expected.world


def test_run_outputs_metrics(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, SPEC_DOC)
    inst_path = tmp_path / "inst.json"
    main(["gen", "--spec", str(spec_path), "--seed", "1", "-o", str(inst_path)])
    assert main(["run", "--instance", str(inst_path), "--strategy", "greedy",
                 "--seed", "5", "--audit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["strategy"] == "greedy"
    assert set(doc["metrics"]) == {
        "captured", "uncaptured", "sum_target_distance", "time_at_targets"
    }
    assert doc["metrics"]["captured"] + doc["metrics"]["uncaptured"] == 3


def test_run_with_an_impassable_allocation_exits_2(tmp_path, capsys, monkeypatch):
    # No strategy picks such a cell; the check behind this message guards
    # explicit allocations and must reach run's error path, not a traceback.
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, SPEC_DOC)
    inst_path = tmp_path / "inst.json"
    main(["gen", "--spec", str(spec_path), "--seed", "1", "-o", str(inst_path)])
    monkeypatch.setattr(engine, "allocate_for", lambda instance, strategy, seed: {0: (99, 0)})
    assert main(["run", "--instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: allocation sends d0 to (99, 0), which is not passable\n"


def test_run_trace_and_determinism(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, SPEC_DOC)
    inst_path = tmp_path / "inst.json"
    main(["gen", "--spec", str(spec_path), "--seed", "1", "-o", str(inst_path)])
    main(["run", "--instance", str(inst_path), "--strategy", "random", "--seed", "5",
          "--trace"])
    first = capsys.readouterr().out
    main(["run", "--instance", str(inst_path), "--strategy", "random", "--seed", "5",
          "--trace"])
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["trace"][0]["round"] == 0
    assert doc["trace"][0]["phase"] == "initial"
    assert doc["trace"][1]["phase"] == "attackers"
    labels = set(doc["trace"][0]["positions"])
    assert {"a0", "a1", "a2", "d0", "d1"} == labels


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, SPEC_DOC)
    inst_path = tmp_path / "inst.json"
    main(["gen", "--spec", str(spec_path), "--seed", "1", "-o", str(inst_path)])
    monkeypatch.setenv("APP_SEED", "9")
    main(["run", "--instance", str(inst_path), "--strategy", "random"])
    via_env = capsys.readouterr().out
    main(["run", "--instance", str(inst_path), "--strategy", "random", "--seed", "9"])
    assert capsys.readouterr().out == via_env
    assert json.loads(via_env)["seed"] == 9


def test_bench_writes_csv_pair(tmp_path, capsys):
    config_path = tmp_path / "bench.json"
    write_json(config_path, BENCH_DOC)
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config_path), "-o", str(out_dir)]) == 0
    capsys.readouterr()
    runs = (out_dir / "runs.csv").read_text().splitlines()
    agg = (out_dir / "aggregate.csv").read_text().splitlines()
    assert runs[0] == ("map,ratio,placement,strategy,seed,captured,obj2_uncaptured,"
                       "obj3_sum_dist,obj4_time_at_targets,wall_ms")
    assert agg[0] == "map,ratio,placement,strategy,runs,mean_captured,min,max,stddev"
    assert len(runs) == 1 + 2 * 2
    assert len(agg) == 1 + 2


def test_timeseries_stdout(tmp_path, capsys):
    config_path = tmp_path / "bench.json"
    write_json(config_path, BENCH_DOC)
    assert main(["timeseries", "--config", str(config_path), "--map", "open",
                 "--ratio", "1:2", "--placement", "overlapped"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step,random,bottleneck\n")
    assert len(out.strip().splitlines()) == 1 + 20


def test_qbf2app_round_trip(tmp_path):
    formula = tmp_path / "f.qdimacs"
    formula.write_text(QDIMACS, encoding="ascii")
    out = tmp_path / "reduced.json"
    assert main(["qbf2app", str(formula), "-o", str(out)]) == 0
    inst = load_instance(str(out))
    assert inst.n_attackers == 5
    assert inst.n_defenders == 4
    assert validate_instance(inst) == []
    assert inst.time_limit == 82


def test_solve_reports_winner(tmp_path, capsys):
    inst_doc = {
        "map": ["..."],
        "attackers": [{"start": [0, 0], "target": [2, 0]}],
        "defenders": [{"start": [2, 0]}],
        "time_limit": 1,
    }
    inst_path = tmp_path / "micro.json"
    write_json(inst_path, inst_doc)
    assert main(["solve", "--instance", str(inst_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["winner"] == "defenders"
    assert doc["states"] > 0


def test_solve_budget_refusal_exits_nonzero(tmp_path, capsys):
    inst_doc = {
        "map": ["." * 10] * 10,
        "attackers": [
            {"start": [0, 0], "target": [9, 9]},
            {"start": [1, 0], "target": [8, 9]},
        ],
        "defenders": [{"start": [0, 9]}, {"start": [9, 0]}],
        "time_limit": 1,
    }
    inst_path = tmp_path / "big.json"
    write_json(inst_path, inst_doc)
    assert main(["solve", "--instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert "budget" in err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_missing_agent_field_is_a_clean_error(tmp_path, capsys):
    inst_path = tmp_path / "no_target.json"
    write_json(
        inst_path,
        {"time_limit": 5, "map": ["...."], "attackers": [{"start": [0, 0]}], "defenders": []},
    )
    assert main(["run", "--instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: attacker 0 has no 'target'\n"


@pytest.mark.parametrize("start", [3, [0], [0, 0, 0], [0, "1"], [0, 1.5], None])
def test_run_malformed_agent_position_is_a_clean_error(tmp_path, capsys, start):
    inst_path = tmp_path / "bad_start.json"
    write_json(
        inst_path,
        {"time_limit": 5, "map": ["...."], "attackers": [{"start": start, "target": [0, 3]}]},
    )
    assert main(["run", "--instance", str(inst_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: attacker 0 'start' must be a pair of integers\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_rejects_jobs_below_one(tmp_path, capsys, jobs):
    config_path = tmp_path / "bench.json"
    write_json(config_path, BENCH_DOC)
    out_dir = tmp_path / "results"
    assert main(["bench", "--config", str(config_path), "-o", str(out_dir), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not out_dir.exists()


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


GRAPH_INSTANCE = {
    "time_limit": 3,
    "graph": {"nodes": ["u", "v"], "edges": [["u", "v"]]},
    "attackers": [{"start": "u", "target": "v"}],
}
GRID_INSTANCE = {"time_limit": 3, "map": ["...."], "attackers": [{"start": [0, 0], "target": [3, 0]}]}

# (subcommand, document, the error line after "error: "). A row's position
# is part of its test id, so new rows go at the end.
BAD_DOCUMENTS = [
    ("bench", _without(BENCH_DOC, "ratios"), "bench config has no 'ratios'"),
    ("bench", {**BENCH_DOC, "runs": None}, "bench config 'runs' must be an integer, got None"),
    ("bench", {**BENCH_DOC, "ratios": [2]}, "ratio must look like '1:k' with k >= 1, got 2"),
    (
        "bench",
        {**BENCH_DOC, "maps": [{**BENCH_DOC["maps"][0], "attacker_rect": 5}]},
        "bench config map 0 'attacker_rect' must be a list of four integers, got 5",
    ),
    ("bench", {**BENCH_DOC, "maps": [{"name": "open"}]}, "bench config map 0 has no 'map'"),
    ("gen", _without(SPEC_DOC, "attackers"), "scenario spec has no 'attackers'"),
    (
        "gen",
        {**SPEC_DOC, "attacker_rect": 5},
        "scenario spec 'attacker_rect' must be a list of four integers, got 5",
    ),
    ("gen", {**SPEC_DOC, "map": 5}, "map spec must be a JSON object, got 5"),
    ("gen", {**SPEC_DOC, "map": [1, 2]}, "map spec must be a JSON object, got [1, 2]"),
    ("gen", {**SPEC_DOC, "map": {"a": 1}}, "map spec has no 'kind'"),
    ("gen", [SPEC_DOC], f"scenario spec must be a JSON object, got {[SPEC_DOC]!r}"),
    (
        "run",
        {**GRAPH_INSTANCE, "graph": {"nodes": ["u", "v"]}},
        "instance 'graph' has no 'edges'",
    ),
    ("run", _without(GRID_INSTANCE, "time_limit"), "instance has no 'time_limit'"),
    ("run", {**GRID_INSTANCE, "attackers": [5]}, "attacker 0 must be a JSON object, got 5"),
    (
        "run",
        {**GRID_INSTANCE, "map": ["....", "..x."]},
        "map row 2, column 3: unknown terrain character 'x'",
    ),
] + [
    ("run", {**GRID_INSTANCE, "map": bad},
     "instance 'map' must be a .map file path or a list of row strings")
    for bad in (5, [1, 2], {"a": 1})
] + [
    (
        "gen",
        {**SPEC_DOC, "map": {"kind": "file", "path": 5}},
        "map spec 'path' must be a string, got 5",
    ),
    ("gen", {**SPEC_DOC, "typo": 1}, "scenario spec has unknown key 'typo'"),
    (
        "gen",
        {**SPEC_DOC, "map": {**SPEC_DOC["map"], "damage_rat": 0.5}},
        "map spec has unknown key 'damage_rat'",
    ),
    ("run", {**GRID_INSTANCE, "bogus": 1}, "instance has unknown key 'bogus'"),
    (
        "run",
        {**GRID_INSTANCE, "attackers": [{"start": [0, 0], "target": [3, 0], "extra": 1}]},
        "attacker 0 has unknown key 'extra'",
    ),
    (
        "run",
        {**GRID_INSTANCE, "defenders": [{"start": [1, 0], "target": [2, 0]}]},
        "defender 0 has unknown key 'target'",
    ),
    (
        "run",
        {**GRAPH_INSTANCE, "graph": {**GRAPH_INSTANCE["graph"], "weights": [1]}},
        "instance 'graph' has unknown key 'weights'",
    ),
    ("bench", {**BENCH_DOC, "run": 3}, "bench config has unknown key 'run'"),
    (
        "bench",
        {**BENCH_DOC, "maps": [{**BENCH_DOC["maps"][0], "rect": [0, 0, 1, 1]}]},
        "bench config map 0 has unknown key 'rect'",
    ),
    (
        "bench",
        {**BENCH_DOC, "maps": [{"name": "open", "map": {"kind": "empty", "width": 10, "hieght": 6}}]},
        "bench config map 0 'map' has unknown key 'hieght'",
    ),
    ("run", {**GRID_INSTANCE, "attackers": 5}, "instance 'attackers' must be a list, got 5"),
    ("run", {**GRID_INSTANCE, "defenders": None}, "instance 'defenders' must be a list, got None"),
    (
        "bench",
        {**BENCH_DOC, "maps": [{**BENCH_DOC["maps"][0], "name": 5}]},
        "bench config map 0 'name' must be a string, got 5",
    ),
    (
        "gen",
        {**SPEC_DOC, "map": {**SPEC_DOC["map"], "height": 6.9}},
        "map spec 'height' must be an integer, got 6.9",
    ),
    ("gen", {**SPEC_DOC, "attackers": 2.9}, "scenario spec 'attackers' must be an integer, got 2.9"),
    ("gen", {**SPEC_DOC, "defenders": "1"}, "scenario spec 'defenders' must be an integer, got '1'"),
    (
        "gen",
        {**SPEC_DOC, "time_limit": True},
        "scenario spec 'time_limit' must be an integer, got True",
    ),
    (
        "bench",
        {**BENCH_DOC, "strategies": "random"},
        "bench config 'strategies' must be a list, got 'random'",
    ),
    ("bench", {**BENCH_DOC, "ratios": "1:2"}, "bench config 'ratios' must be a list, got '1:2'"),
    (
        "bench",
        {**BENCH_DOC, "maps": [{**BENCH_DOC["maps"][0], "name": "a,b"}]},
        "bench config map 0 'name' must contain no comma or line break, got 'a,b'",
    ),
    (
        "bench",
        {**BENCH_DOC, "maps": BENCH_DOC["maps"] * 2},
        "bench config map 1 'name' 'open' is already taken by an earlier map",
    ),
    ("bench", {**BENCH_DOC, "placements": ["diagonal"]}, "unknown placement 'diagonal'"),
    ("bench", {**BENCH_DOC, "ratios": ["1:2", "1:3", "1:2"]}, "bench config 'ratios' repeats '1:2'"),
    (
        "bench",
        {**BENCH_DOC, "placements": ["overlapped", "overlapped"]},
        "bench config 'placements' repeats 'overlapped'",
    ),
    (
        "bench",
        {**BENCH_DOC, "strategies": ["greedy", "random", "greedy"]},
        "bench config 'strategies' repeats 'greedy'",
    ),
]


def test_documents_with_every_known_key_parse():
    # The keys that bench configs, scenario specs and instances may use,
    # each at least once, so rejecting unknown keys rejects none of these.
    rects = {"attacker_rect": [0, 0, 4, 6], "defender_rect": [4, 0, 2, 6], "target_rect": [6, 0, 4, 6]}
    ruins = {
        "kind": "ruins", "width": 20, "height": 12, "rooms_x": 2, "rooms_y": 1,
        "door_width": 1, "damage_rate": 0.1, "jitter": 1,
    }
    config = config_from_json({**BENCH_DOC, "maps": [{"name": "r", "map": ruins, **rects}]})
    assert config.maps[0].map_spec.damage_rate == 0.1 and config.maps[0].target_rect.x == 6
    spec = spec_from_json({**SPEC_DOC, "map": ruins, **rects})
    assert spec == ScenarioSpec(
        map=MapSpec(kind="ruins", width=20, height=12, rooms_x=2, rooms_y=1,
                    door_width=1, damage_rate=0.1, jitter=1),
        n_attackers=3,
        n_defenders=2,
        time_limit=25,
        attacker_rect=Rect(0, 0, 4, 6),
        defender_rect=Rect(4, 0, 2, 6),
        target_rect=Rect(6, 0, 4, 6),
    )
    assert map_spec_from_json({"kind": "file", "path": "x.map"}).path == "x.map"
    doc = {**GRID_INSTANCE, "defenders": [{"start": [1, 0]}], "metadata": {"seed": 1}}
    assert instance_from_json(doc).metadata == {"seed": 1}
    assert instance_from_json(GRAPH_INSTANCE).n_attackers == 1


@pytest.mark.parametrize("command, doc, message", BAD_DOCUMENTS)
def test_bad_document_is_a_one_line_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "doc.json"
    write_json(path, doc)
    flag = {"bench": "--config", "gen": "--spec", "run": "--instance"}[command]
    argv = [command, flag, str(path)]
    if command != "run":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -------- mutated documents --------

MUTANT_VALUES = (None, -1, 0, 1.5, "x", True, [], [1], {}, {"a": 1})
FUZZ_BENCH = {**BENCH_DOC, "runs": 1, "strategies": ["greedy"]}
FUZZ_DOCUMENTS = {
    "grid-instance": ("run", {**GRID_INSTANCE, "defenders": [{"start": [1, 0]}]}),
    "graph-instance": ("solve", GRAPH_INSTANCE),
    "scenario-spec": ("gen", SPEC_DOC),
    "bench-config": ("bench", FUZZ_BENCH),
}


def _object_paths(doc, path=()):
    """The path to every JSON object inside doc, doc itself included."""
    if isinstance(doc, dict):
        yield path
        for key, value in doc.items():
            yield from _object_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _object_paths(value, path + (i,))


def _with_value(doc, path, key, value):
    doc = copy.deepcopy(doc)
    obj = doc
    for step in path:
        obj = obj[step]
    obj[key] = value
    return doc


def _mutated_texts(doc, rng):
    """Each key of each object in doc set to each mutant value, a seeded
    sample of documents with three such changes at once, and every
    truncation of the document's text."""
    slots = []
    for path in _object_paths(doc):
        obj = doc
        for step in path:
            obj = obj[step]
        slots += [(path, key) for key in obj]
    mutants = [_with_value(doc, path, key, value) for path, key in slots for value in MUTANT_VALUES]
    for _ in range(40):
        mutant = doc
        for path, key in rng.sample(slots, 3):
            try:
                mutant = _with_value(mutant, path, key, rng.choice(MUTANT_VALUES))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier change removed the object this path leads to
        mutants.append(mutant)
    text = json.dumps(doc)
    return [json.dumps(m) for m in mutants] + [text[:n] for n in range(len(text))]


def _qdimacs_texts(rng):
    """Each token of QDIMACS replaced by each mutant value's JSON text, each
    line blanked, a seeded sample with three tokens replaced, and every
    truncation."""
    lines = [line.split() for line in QDIMACS.splitlines()]
    slots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
    words = [json.dumps(value) for value in MUTANT_VALUES]

    def text(changes):
        out = [list(line) for line in lines]
        for (i, j), word in changes:
            out[i][j] = word
        return "\n".join(" ".join(line) for line in out) + "\n"

    texts = [text([(slot, word)]) for slot in slots for word in words]
    texts += [text([((i, j), "") for j in range(len(lines[i]))]) for i in range(len(lines))]
    texts += [text([(slot, rng.choice(words)) for slot in rng.sample(slots, 3)]) for _ in range(40)]
    return texts + [QDIMACS[:n] for n in range(len(QDIMACS))]


def _assert_clean_exits(tmp_path, capsys, command, texts):
    flag = {"bench": "--config", "gen": "--spec", "run": "--instance", "solve": "--instance"}
    path = tmp_path / "doc"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)] if command == "qbf2app" else [command, flag[command], str(path)]
        if command in ("bench", "gen", "qbf2app"):
            argv += ["-o", str(tmp_path / "out")]
        if command == "bench":
            argv += ["--jobs", "1"]
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (
            code == 2 and err.startswith("error: ") and err.count("\n") == 1
        ), (text, code, err)


@pytest.mark.parametrize("name", FUZZ_DOCUMENTS)
def test_mutated_document_exits_cleanly(tmp_path, capsys, name):
    command, doc = FUZZ_DOCUMENTS[name]
    _assert_clean_exits(tmp_path, capsys, command, _mutated_texts(doc, random.Random(name)))


def test_mutated_qdimacs_exits_cleanly(tmp_path, capsys):
    _assert_clean_exits(tmp_path, capsys, "qbf2app", _qdimacs_texts(random.Random(12)))
