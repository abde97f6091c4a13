"""End-to-end command line tests (in-process main calls)."""
import json

from areaguard.cli import main
from areaguard.model import load_instance, validate_instance
from areaguard.scenarios import ScenarioSpec, MapSpec, generate_instance, spec_to_json

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
