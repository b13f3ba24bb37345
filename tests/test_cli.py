import json

import pytest

from tenseproof.cli import main
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import dump, load


@pytest.fixture
def g3_file(tmp_path):
    entry = corpus_entries("g3")[0]
    path = tmp_path / "g3.json"
    dump(entry.derivation, str(path))
    return str(path)


@pytest.fixture
def model_files(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"n": 2, "prec": [[0, 1]], "valuation": {"p": [1]}}))
    lam = tmp_path / "lam.json"
    lam.write_text(json.dumps({"x": 0}))
    return str(model), str(lam)


def test_check_verb(g3_file, capsys):
    assert main(["check", g3_file]) == 0
    out = capsys.readouterr().out
    assert "status: valid" in out
    assert "theorem: True" in out


def test_check_with_probe(g3_file, capsys):
    assert main(["check", g3_file, "--probe", "3"]) == 0
    assert "probe(3): PASS" in capsys.readouterr().out


def test_check_invalid_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "rule": "imp_e", "conclusion": "x : q",
        "premises": [
            {"rule": "assume", "conclusion": "x : p -> q"},
            {"rule": "assume", "conclusion": "x : r"},
        ]}))
    assert main(["check", str(bad)]) == 1


def test_check_profile_gating(tmp_path):
    d = tmp_path / "first.json"
    d.write_text(json.dumps({"rule": "first"}))
    assert main(["check", str(d)]) == 1
    assert main(["check", str(d), "--profile", "kl+first"]) == 0


def test_normalize_verb(tmp_path, capsys):
    detour = tmp_path / "detour.json"
    detour.write_text(json.dumps({
        "rule": "imp_e", "conclusion": "x : p",
        "premises": [
            {"rule": "imp_i", "conclusion": "x : q -> p", "discharges": [1],
             "premises": [{"rule": "raa_bot", "conclusion": "x : p",
                           "premises": [{"rule": "assume",
                                         "conclusion": "y : false"}]}]},
            {"rule": "assume", "conclusion": "x : q"},
        ]}))
    out_file = tmp_path / "nf.json"
    assert main(["normalize", str(detour), "--trace", "-o", str(out_file)]) == 0
    trace_lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert trace_lines and trace_lines[0]["kind"] == "MaximalFormula"
    nf = load(str(out_file))
    assert nf.node_count() == 2


def test_eval_verb(model_files, capsys):
    model, lam = model_files
    assert main(["eval", model, lam, "x : F p"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", model, lam, "x : p"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_valid_verb(capsys):
    assert main(["valid", "x : G p -> G G p", "--max-worlds", "4"]) == 0
    assert capsys.readouterr().out.strip() == "VALID(4)"
    assert main(["valid", "x : G p -> p", "--max-worlds", "2"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["failing"] == "x : G p -> p"


def test_valid_vacuous_profile(capsys):
    assert main(["valid", "x : p", "--max-worlds", "2",
                 "--profile", "kl+rser"]) == 4


def test_corpus_verb(capsys):
    assert main(["corpus", "g1"]) == 0
    out = capsys.readouterr().out
    assert "g1" in out and "PASS" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rule": "assume", "conclusion": "x : ->"}))
    assert main(["check", str(bad)]) == 4
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 4


def _nested_detours_file(tmp_path, k):
    """k identity detours on ``x : p``, nested through the minor premise."""
    tree = {"rule": "assume", "conclusion": "x : p"}
    for m in range(1, k + 1):
        tree = {"rule": "imp_e", "conclusion": "x : p", "premises": [
            {"rule": "imp_i", "conclusion": "x : p -> p", "discharges": [m],
             "premises": [{"rule": "assume", "conclusion": "x : p",
                           "marker": m}]},
            tree]}
    path = tmp_path / "detours.json"
    path.write_text(json.dumps(tree))
    return str(path)


def test_normalize_trace_streams_before_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TENSEPROOF_STEP_BOUND", "2")
    assert main(["normalize", _nested_detours_file(tmp_path, 4), "--trace"]) == 2
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["step"] for r in records] == [1, 2]


def test_normalize_trace_then_normal_form(tmp_path, capsys):
    assert main(["normalize", _nested_detours_file(tmp_path, 3), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(l)["step"] for l in lines[:3]] == [1, 2, 3]
    assert json.loads("\n".join(lines[3:])) == {"rule": "assume",
                                                "conclusion": "x : p"}


def _check_text(tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return main(["check", str(path)])


def test_top_level_array_is_an_input_error(tmp_path):
    assert _check_text(tmp_path, [{"rule": "assume", "conclusion": "x : p"}]) == 4


def test_discharges_must_be_a_list(tmp_path):
    assert _check_text(tmp_path, {
        "rule": "imp_i", "conclusion": "x : p -> p", "discharges": 5,
        "premises": [{"rule": "assume", "conclusion": "x : p", "marker": 5}]}) == 4


def test_discharged_markers_must_be_ints(tmp_path, capsys):
    assert _check_text(tmp_path, {
        "rule": "imp_i", "conclusion": "x : p -> p", "discharges": ["1"],
        "premises": [{"rule": "assume", "conclusion": "x : p", "marker": 1}]}) == 4
    assert "theorem" not in capsys.readouterr().out


def test_node_fields_must_have_their_types(tmp_path):
    leaf = {"rule": "assume", "conclusion": "x : p"}
    assert _check_text(tmp_path, {**leaf, "marker": "1"}) == 4
    assert _check_text(tmp_path, {**leaf, "marker": True}) == 4
    assert _check_text(tmp_path, {**leaf, "fresh": 3}) == 4
    assert _check_text(tmp_path, {**leaf, "position": 1.0}) == 4
    assert _check_text(tmp_path, {**leaf, "conclusion": 7}) == 4
    assert _check_text(tmp_path, {**leaf, "premises": {"rule": "assume"}}) == 4
    assert _check_text(tmp_path, {"rule": "imp_e", "conclusion": "x : p",
                                  "premises": [3, leaf]}) == 4


def test_world_bounds_must_be_positive(g3_file, capsys):
    assert main(["valid", "x : p -> p", "--max-worlds", "-3"]) == 4
    assert main(["valid", "x : p -> p", "--max-worlds", "0"]) == 4
    assert main(["corpus", "g1", "--max-worlds", "-2"]) == 4
    assert main(["check", g3_file, "--probe", "-2"]) == 4
    assert capsys.readouterr().out == ""
