"""What a fresh interpreter loads: the package resolves its names on first
use, and each command line verb imports only the modules it runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import tenseproof
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import dump

SRC = str(pathlib.Path(tenseproof.__file__).resolve().parents[1])
MODULES = ("cli", "corpus", "derivation", "kernel", "normalize", "parser",
           "rules", "semantics", "syntax", "tracks")


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _loaded_by(argv) -> tuple:
    """Exit code, the ``tenseproof`` modules loaded, and whether
    ``dataclasses`` is, after ``cli.main(argv)`` in a fresh interpreter."""
    return tuple(json.loads(_fresh(f"""
import contextlib, io, json, sys
from tenseproof.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "tenseproof"),
                  "dataclasses" in sys.modules]))
""")))


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    g3 = str(tmp_path / "g3.json")
    dump(corpus_entries("g3")[0].derivation, g3)
    model, lam = tmp_path / "model.json", tmp_path / "lam.json"
    model.write_text(json.dumps({"n": 2, "prec": [[0, 1]],
                                 "valuation": {"p": [1]}}))
    lam.write_text(json.dumps({"x": 0}))
    base = ["cli", "parser", "rules", "syntax"]
    checking = base + ["derivation", "kernel"]
    expected = {
        ("check", g3): checking,
        ("check", g3, "--probe", "2"): checking + ["semantics"],
        ("normalize", g3): checking + ["normalize"],
        ("eval", str(model), str(lam), "x : F p"):
            base + ["derivation", "semantics"],
        ("valid", "x : G p -> G G p", "--max-worlds", "3"):
            base + ["semantics"],
        ("corpus", "g1"): list(MODULES),
    }
    for argv, modules in expected.items():
        code, loaded, dataclasses = _loaded_by(list(argv))
        assert code == 0, argv
        assert loaded == sorted(["tenseproof"]
                                + [f"tenseproof.{m}" for m in modules]), argv
        if argv[0] == "valid":
            assert not dataclasses


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # a fresh interpreter, so that no import cycle hides behind a module
    # that an earlier import loaded
    assert _fresh(f"import tenseproof.{module}; print('ok')") == "ok\n"


# the public names of the package, as the modules gave them when
# ``tenseproof/__init__.py`` imported them all
PUBLIC = [
    "AXIOMS", "And", "Atom", "AuditReport", "CheckReport", "Countermodel",
    "Derivation", "Empty", "Eq", "Exists", "F", "Falsum", "FinitelyVacuous",
    "Forall", "G", "H", "Implies", "Interpretation", "KL", "Less",
    "LogicProfile", "Lwff", "Model", "NonTermination", "Not", "Or", "P",
    "ParseError", "Prec", "ProofContext", "RAnd", "RImplies", "RNot", "ROr",
    "RULES", "Redex", "StructureViolation", "Top", "Track", "UnboundLabel",
    "Violation", "X", "assume", "audit_subformula", "canon", "check",
    "check_frame", "core_eq", "corpus", "corpus_entries", "derivation",
    "entails", "eval_entity", "expand", "expand_derived", "find_countermodel",
    "find_redexes", "from_json", "grade", "is_atomic", "is_normal",
    "is_subformula", "kernel", "labels_of", "load", "node", "normalize",
    "open_assumptions", "parse", "parse_formula", "parse_lwff",
    "parse_profile", "parse_rwff", "parser", "reduce_step", "render",
    "restrict", "rule_schema", "rules", "run_corpus", "semantics",
    "soundness_probe", "substitute_label", "syntax", "to_json", "tracks",
]


def test_every_public_name_resolves_to_its_object():
    assert tenseproof.__all__ == PUBLIC and len(PUBLIC) == 86
    assert set(PUBLIC) <= set(dir(tenseproof))
    modules = {m: importlib.import_module(f"tenseproof.{m}") for m in MODULES}
    for name in PUBLIC:
        value = getattr(tenseproof, name)
        if name in modules and name not in ("normalize", "tracks"):
            assert value is modules[name]
        else:
            # every module that holds the name holds this object
            holders = [vars(m)[name] for m in modules.values() if name in vars(m)]
            assert holders and all(h is value for h in holders), name
    assert tenseproof.normalize is modules["normalize"].normalize
    assert tenseproof.tracks is modules["tracks"].tracks
    with pytest.raises(AttributeError):
        tenseproof.no_such_name


@pytest.mark.parametrize("first", [
    "import tenseproof.corpus",
    "import tenseproof.normalize, tenseproof.tracks",
    "from tenseproof import normalize, tracks",
    "import tenseproof; tenseproof.check",
    "import tenseproof.cli",
])
def test_normalize_and_tracks_are_the_functions_whatever_came_first(first):
    assert _fresh(f"""import sys
{first}
import tenseproof.normalize, tenseproof.tracks
from tenseproof import normalize, tracks
import tenseproof
home = sys.modules["tenseproof.normalize"], sys.modules["tenseproof.tracks"]
print(normalize is tenseproof.normalize is home[0].normalize,
      tracks is tenseproof.tracks is home[1].tracks)
""") == "True True\n"
