import importlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import tenseproof
from helpers import DerivationGen
from tenseproof import semantics
from tenseproof.cli import main
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import (
    _text, assume, brief_repr, decode, dump, dumps, load, node, to_json,
)
from tenseproof.kernel import check
from tenseproof.parser import parse_lwff as pl
from tenseproof.rules import KL
from tenseproof.semantics import ProbeReport, find_countermodel
from tenseproof.syntax import ProofContext

# the module, which the package's function of the same name hides
normalize = importlib.import_module("tenseproof.normalize")


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


def test_normalize_of_a_derivation_that_fails_check(tmp_path, capsys):
    # the violations go to stderr, no normal form is printed, and the exit
    # code is the check failure's
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "rule": "imp_e", "conclusion": "x : q",
        "premises": [{"rule": "assume", "conclusion": "x : p -> q"}]}))
    assert main(["normalize", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("StructuralError at root: imp_e takes 2 premises, "
                            "got 1\n")


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
    assert capsys.readouterr().err == (
        "error: profile extras ['rser'] admit no useful finite frames\n")


def test_eval_unbound_label_is_one_error_line(model_files, capsys):
    model, lam = model_files
    assert main(["eval", model, lam, "y : p"]) == 4
    assert capsys.readouterr().err == "error: unbound label: y\n"


def test_corpus_verb(capsys):
    assert main(["corpus", "g1"]) == 0
    out = capsys.readouterr().out
    assert "g1" in out and "PASS" in out


def test_corpus_prefix_must_match_an_entry(capsys):
    assert main(["corpus", "zzz"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: no corpus entry id starts with 'zzz'"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rule": "assume", "conclusion": "x : ->"}))
    assert main(["check", str(bad)]) == 4
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 4
    capsys.readouterr()
    for text, error in (
            ("x : p $", "line 1, column 7: expected a token"),
            ("x : p q", "line 1, column 7: expected end of input"),
            ("x y", "line 1, column 3: expected '<', '=' or '<.'")):
        assert _check_text(tmp_path, {"rule": "assume", "conclusion": text}) == 4
        assert capsys.readouterr() == ("", f"error: {error}\n")
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"rule": "assume", "conclusion": "x : p"}))
    assert main(["check", str(good), "--profile", "foo"]) == 4
    assert capsys.readouterr() == ("", "error: unknown profile 'foo'\n")


def _nested_detours_file(tmp_path, k):
    """k identity detours on ``x : p``, nested through the minor premise
    (written as text: ``json.dumps`` cannot nest that deep)."""
    levels = []
    for m in range(k, 0, -1):
        intro = {"rule": "imp_i", "conclusion": "x : p -> p", "discharges": [m],
                 "premises": [{"rule": "assume", "conclusion": "x : p",
                               "marker": m}]}
        levels.append('{"rule": "imp_e", "conclusion": "x : p", "premises": ['
                      + json.dumps(intro) + ", ")
    leaf = json.dumps({"rule": "assume", "conclusion": "x : p"})
    path = tmp_path / "detours.json"
    path.write_text("".join(levels) + leaf + "]}" * k)
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


def test_normalize_writes_a_deep_normal_form(tmp_path, capsys):
    # 300 case splits, each in the second branch of the next: the normal
    # form nests 600 deep, too deep for ``json.dumps`` with an indent
    pa = pl("x : p")
    d = assume(pa, 1)
    for m in range(2, 302):
        d = node("or_e", pa, assume(pl("x : p | q")), assume(pa, m), d,
                 discharges={m})
    path, out_file = tmp_path / "or_chain.json", tmp_path / "nf.json"
    dump(d, str(path))
    assert main(["normalize", str(path)]) == 0
    printed = capsys.readouterr().out
    assert main(["normalize", str(path), "-o", str(out_file)]) == 0
    assert out_file.read_text() == printed
    nf = load(str(out_file))
    report = check(nf, KL)
    assert report.ok and report.is_theorem == check(d, KL).is_theorem
    assert nf.conclusion == d.conclusion


def test_derivation_text_is_the_json_encoders():
    trees = [e.derivation for e in corpus_entries()]
    gen = DerivationGen(random.Random(47))
    trees += [gen.derivation() for _ in range(150)]
    for d in trees:
        assert dumps(d) == json.dumps(to_json(d), indent=1)


def test_input_deeper_than_the_recursion_limit_is_read(tmp_path, capsys):
    # 700 nested detours: 2100 JSON levels, more than a recursive decoder
    # can read under the default recursion limit
    path = _nested_detours_file(tmp_path, 700)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.startswith("status: valid\n")
    assert main(["normalize", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"rule": "assume",
                                                   "conclusion": "x : p"}


def _random_json(rng, depth):
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randrange(-10 ** 6, 10 ** 6)
    if kind == 2:
        return rng.choice([0.5, -1e-3, 2.5e30, float("inf"), float("-inf")])
    if kind in (3, 4, 5):
        return "".join(rng.choice('ab"\\\u00e9\n\t/ ') for _ in range(rng.randrange(4)))
    if kind in (6, 7):
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {_random_json(rng, 0) if rng.random() < 0.1 else rng.choice("abc"):
            _random_json(rng, depth - 1) for _ in range(rng.randrange(4))}


def _outcome(read, text):
    try:
        return "value", json.dumps(read(text))
    except ValueError as exc:
        return type(exc).__name__, None


def test_reader_accepts_what_the_json_module_accepts():
    rng = random.Random(23)
    texts = ['[' * 3000 + ']' * 3000, "\ufeff[]", " 1 ", "NaN", "-Infinity"]
    for _ in range(1500):
        value = _random_json(rng, 5)
        indent = rng.choice([None, 0, 1, "\t"])
        seps = rng.choice([None, (",", ":"), (" ,\n", " : ")])
        texts.append(json.dumps(value, indent=indent, separators=seps))
    for text in texts[5:]:
        # delete, repeat or replace one character: mostly malformed text
        i = rng.randrange(len(text) + 1)
        pick = rng.choice('{}[],:" \\0e-.ntfaNI\x01')
        texts.append(rng.choice([text[:i] + text[i + 1:], text[:i] + pick + text[i:],
                                 text[:i] + pick + text[i + 1:]]))
    outcomes = {"value": 0, "JSONDecodeError": 0}
    for text in texts[1:]:
        got = _outcome(decode, text)
        assert got == _outcome(json.loads, text), text
        outcomes[got[0]] += 1
    assert min(outcomes.values()) > 500
    deep = decode(texts[0])
    for _ in range(2999):
        (deep,) = deep
    assert deep == []


def test_brief_repr_is_repr():
    rng = random.Random(29)
    for _ in range(500):
        value = _random_json(rng, 4)
        assert _text(value, repr, False) == repr(value)
        assert brief_repr(value) == f"{value!r:.40}"


def test_deep_malformed_input_is_an_input_error(tmp_path, capsys):
    # values nested deeper than a recursive repr can print, where the
    # error message names the value
    deep = "[" * 5000 + "]" * 5000
    node_text = '{"rule": "assume", "conclusion": "x : p", '
    derivations = [
        '{"rule": "imp_e", "conclusion": "x : p", "premises": [' + deep + "]}",
        node_text + '"marker": ' + deep + "}",
        node_text + '"discharges": [' + deep + "]}",
    ]
    for text in derivations:
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 4
    models = [('{"n": 2, "prec": ' + deep + "}", '{"x": 0}'),
              ('{"n": 2, "valuation": {"p": [' + deep + "]}}", '{"x": 0}'),
              ('{"n": 2}', "[" + deep + "]"), ('{"n": 2}', '{"x": ' + deep + "}")]
    for model, lam in models:
        (tmp_path / "model.json").write_text(model)
        (tmp_path / "lam.json").write_text(lam)
        assert main(["eval", str(tmp_path / "model.json"),
                     str(tmp_path / "lam.json"), "x : p"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == len(derivations) + len(models)
    assert all(line.startswith("error: ") and len(line) < 200 for line in lines)


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


def test_node_fields_must_have_their_types(tmp_path, capsys):
    for obj, error in (
            ({"conclusion": "x : p"}, "derivation node lacks a 'rule' string"),
            ({"rule": 5, "conclusion": "x : p"},
             "derivation node lacks a 'rule' string"),
            ({"rule": "imp_e", "premises": []},
             "node for rule 'imp_e' lacks a conclusion"),
            ({"rule": "assume", "conclusion": "x : p", "fresh_label": "y"},
             "derivation field 'fresh_label' is not known"),
            ({"rule": "imp_i", "conclusion": "x : p -> p", "discharge": [1],
              "premises": [{"rule": "assume", "conclusion": "x : p",
                            "marker": 1}]},
             "derivation field 'discharge' is not known")):
        assert _check_text(tmp_path, obj) == 4
        assert capsys.readouterr() == ("", f"error: {error}\n")
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


def _eval_text(tmp_path, model, lam):
    model_file, lam_file = tmp_path / "model.json", tmp_path / "lam.json"
    model_file.write_text(json.dumps(model))
    lam_file.write_text(json.dumps(lam))
    return main(["eval", str(model_file), str(lam_file), "x : p"])


def test_model_must_be_an_object(tmp_path, capsys):
    assert _eval_text(tmp_path, [{"n": 2}], {"x": 0}) == 4
    assert capsys.readouterr().out == ""


def test_model_valuation_must_be_an_object(tmp_path, capsys):
    assert _eval_text(tmp_path, {"n": 2, "valuation": [["p", 0]]}, {"x": 0}) == 4
    assert _eval_text(tmp_path, {"n": 2, "valuation": {"p": 1}}, {"x": 0}) == 4
    assert capsys.readouterr().out == ""


def test_model_size_must_be_a_positive_integer(tmp_path, capsys):
    for n in (-1, 0, "2", 1.5, True, None):
        assert _eval_text(tmp_path, {"n": n}, {"x": 0}) == 4, n
    assert _eval_text(tmp_path, {}, {"x": 0}) == 4
    assert capsys.readouterr().out == ""


def test_model_worlds_must_lie_in_the_model(tmp_path, capsys):
    assert _eval_text(tmp_path, {"n": 2, "prec": [[0, 5]]}, {"x": 0}) == 4
    assert _eval_text(tmp_path, {"n": 2, "prec": [[0, 1, 1]]}, {"x": 0}) == 4
    assert _eval_text(tmp_path, {"n": 2, "prec": [[-1, 1]]}, {"x": 0}) == 4
    assert _eval_text(tmp_path, {"n": 3, "valuation": {"p": [7]}}, {"x": 0}) == 4
    assert _eval_text(tmp_path, {"n": 3, "valuation": {"p": ["1"]}}, {"x": 0}) == 4
    assert capsys.readouterr().out == ""


def test_interpretation_must_be_an_object(tmp_path, capsys):
    assert _eval_text(tmp_path, {"n": 2}, [["x", 0]]) == 4
    assert _eval_text(tmp_path, {"n": 2}, 0) == 4
    assert capsys.readouterr().out == ""


def test_interpretation_worlds_must_lie_in_the_model(tmp_path, capsys):
    assert _eval_text(tmp_path, {"n": 2}, {"x": 9}) == 4
    assert _eval_text(tmp_path, {"n": 2}, {"x": "1"}) == 4
    assert _eval_text(tmp_path, {"n": 2}, {"x": 1.0}) == 4
    assert capsys.readouterr().out == ""
    assert _eval_text(tmp_path, {"n": 2, "valuation": {"p": [1]}}, {"x": 1}) == 0
    assert capsys.readouterr().out.strip() == "true"


# ---------------------------------------------------------------------------
# Formulas of any depth, and output that no hash order decides

def test_formulas_nested_deeper_than_the_recursion_limit(tmp_path, capsys,
                                                          model_files):
    deep = "F " * 10000 + "p"
    goal = f"x : {deep} -> {deep}"
    relational = "x < y => " * 10000 + "x < y"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "rule": "imp_i", "conclusion": goal, "discharges": [1],
        "premises": [{"rule": "assume", "conclusion": f"x : {deep}",
                      "marker": 1}]}))
    assert main(["check", str(path), "--probe", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: valid" in out and "probe(2): PASS" in out
    assert main(["normalize", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["conclusion"] == goal
    for formula in (goal, relational):
        assert main(["valid", formula, "--max-worlds", "2"]) == 0
        assert capsys.readouterr().out.strip() == "VALID(2)"
    model, lam = model_files
    assert main(["eval", model, lam, goal]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", model, lam, relational]) == 4      # y is unbound
    assert main(["eval", model, lam, "x : " + "(" * 10000 + "p"]) == 4
    assert "expected ')'" in capsys.readouterr().err


def _cli_in_subprocess(args, hash_seed: int) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(tenseproof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "tenseproof.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_output_is_the_same_under_any_hash_seed(tmp_path):
    runs = [["corpus"]]
    for entry_id in ("g4", "rdiscr", "first_point"):
        entry = corpus_entries(entry_id)[0]
        path = tmp_path / f"{entry_id}.json"
        dump(entry.derivation, str(path))
        profile = "+".join(["kl", *sorted(entry.profile.extras)])
        runs.append(["normalize", str(path), "--trace", "--profile", profile])
    for args in runs:
        first, second = (_cli_in_subprocess(args, seed) for seed in (0, 1))
        assert first.returncode == second.returncode == 0, first.stderr
        assert first.stdout and first.stdout == second.stdout


# ---------------------------------------------------------------------------
# Failure paths: each fault injected through a name a verb imports when it
# runs

def test_check_probe_that_finds_a_countermodel_exits_3(g3_file, capsys,
                                                        monkeypatch):
    cm = find_countermodel(ProofContext.make(), pl("x : p"), 1)
    monkeypatch.setattr(semantics, "soundness_probe",
                        lambda report, n, profile: ProbeReport("FAIL", n, cm))
    assert main(["check", g3_file, "--probe", "2"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["probe(2): FAIL", json.dumps(cm.to_json())]
    assert "status: valid" in out


def test_normalize_that_leaves_a_redex_exits_2(tmp_path, capsys, monkeypatch):
    detour = node("imp_e", pl("x : p"),
                  node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1),
                       discharges={1}),
                  assume(pl("x : p")))
    path = tmp_path / "detour.json"
    path.write_text(dumps(detour))
    # a normalizer that returns its input unchanged leaves the detour
    monkeypatch.setattr(normalize, "normalize", lambda d, trace=None: d)
    assert main(["normalize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == dumps(detour) + "\n"
    assert captured.err == ("normalization produced a non-normal or invalid "
                            "tree\n")
