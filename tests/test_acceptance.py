"""Acceptance criteria, one test per criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time
from importlib import resources

from helpers import DerivationGen, random_entity
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import assume, node
from tenseproof.kernel import check, open_assumptions
from tenseproof.normalize import (
    canonical_form, find_redexes, is_normal, normalize, reduce_step,
)
from tenseproof.parser import parse, parse_lwff as pl, parse_rwff as pr, render
from tenseproof.rules import AXIOMS, KL
from tenseproof.semantics import find_countermodel, soundness_probe
from tenseproof.syntax import Empty, ProofContext, core_eq
from tenseproof.tracks import audit_subformula, tracks

E = Empty()


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_corpus_check():
    t0 = time.time()
    entries = corpus_entries()
    assert {e.id for e in entries} >= {
        "g1", "g2", "g3", "g4", "h1", "h2", "first_point", "rser",
        "rdens", "rdiscr", "conn_canonical", "a2_fi", "a2_fe"}
    for e in entries:
        report = check(e.derivation, e.profile)
        assert report.ok, (e.id, [str(v) for v in report.violations])
        assert report.is_theorem, e.id
        assert core_eq(e.derivation.conclusion, e.expected_conclusion), e.id
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"corpus check took {elapsed:.2f}s"
    _report(1, "corpus check", f"{len(entries)} entries in {elapsed:.2f}s")


def test_criterion_2_normalization():
    for e in corpus_entries():
        nf = normalize(e.derivation)
        assert is_normal(nf).normal, e.id
        audit = audit_subformula(nf)
        assert audit.ok, (e.id, audit.violations)
        assert nf.conclusion == e.derivation.conclusion, e.id
        before = set(open_assumptions(e.derivation))
        after = set(open_assumptions(nf))
        assert all(any(core_eq(a, b) for b in before) for a in after), e.id
        assert check(nf, e.profile).ok, e.id
    _report(2, "normalization", "normal form, audit, conclusion, assumptions")


def test_criterion_3_track_structure():
    total_tracks = 0
    cross_links = 0
    for e in corpus_entries():
        nf = normalize(e.derivation)
        report = tracks(nf)     # StructureViolation would fail the test
        total_tracks += len(report.tracks)
        for t in report.tracks:
            parts = list(t.elimination) + list(t.central) + list(t.introduction)
            assert parts == list(range(len(t.nodes))), e.id
        for link in report.links:
            assert link.case in ("i", "ii", "iii", "iv", "same-kind"), e.id
            if link.case in ("i", "ii", "iii", "iv"):
                cross_links += 1
    assert cross_links > 0
    _report(3, "track structure",
            f"{total_tracks} tracks, {cross_links} cross-system links")


def _mutations():
    """Ten corrupted derivations: each one either fails the checker or,
    when force-accepted, is refuted by the finite search."""
    checked = []

    # 1: wrong body in a temporal elimination
    checked.append(node("g_e", pl("s : q"), assume(pl("t : G p")),
                        assume(pr("t < s"))))
    # 2: fresh label equal to the subject of the introduction
    checked.append(node("g_i", pl("t : G p"), assume(pl("t : p")), fresh="t"))
    # 3: axiom rule with a foreign template
    checked.append(node("conn", AXIOMS["trans_lt"]))
    # 4: discharge of a wrong-shaped assumption
    checked.append(node("imp_i", pl("x : p -> q"), assume(pl("x : q"), 1),
                        discharges={1}))
    # 5: universal falsum importing a non-falsum
    checked.append(node("uf2", pl("y : p"), assume(E)))
    # 6: extension axiom outside its profile
    checked.append(node("first", AXIOMS["first"]))

    refuted = []
    # 7: temporal elimination at an unrelated label
    refuted.append(node("g_e", pl("z : p"), assume(pl("x : G p")),
                        assume(pr("x < y"))))
    # 8: past elimination with the order reversed
    refuted.append(node("h_e", pl("y : p"), assume(pl("x : H p")),
                        assume(pr("x < y"))))
    # 9: implication elimination inventing its conclusion
    refuted.append(node("imp_e", pl("x : r"), assume(pl("x : p -> q")),
                        assume(pl("x : p"))))
    # 10: temporal introduction over a label that is not fresh
    refuted.append(node("g_i", pl("x : G q"), assume(pl("y : q")), fresh="y"))
    return checked, refuted


def test_criterion_4_soundness_probe():
    t0 = time.time()
    probed = 0
    for e in corpus_entries():
        report = soundness_probe(check(e.derivation, e.profile), 6, e.profile)
        assert report.status in ("PASS", "SKIPPED-SEMANTICS"), e.id
        if report.status == "PASS":
            probed += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0

    checked, refuted = _mutations()
    assert len(checked) + len(refuted) == 10
    for d in checked:
        assert not check(d, KL).ok
    for d in refuted:
        cm = find_countermodel(open_assumptions(d), d.conclusion, 3)
        assert cm is not None
    _report(4, "soundness probe",
            f"{probed} theorems probed in {elapsed:.1f}s; 10 mutations caught")


def test_criterion_5_validity_oracle():
    empty = ProofContext.make()
    assert find_countermodel(empty, pl("x : G p -> G G p"), 4) is None
    g4 = pl("x : (G (p | q) & G (p | G q) & G (G p | q)) -> (G p | G q)")
    assert find_countermodel(empty, g4, 4) is None
    assert find_countermodel(empty, pl("x : G p -> p"), 2) is not None
    assert find_countermodel(empty, pl("x : F p -> F F p"), 2) is not None
    _report(5, "validity oracle", "two valid, two refuted")


def test_criterion_6_reduction_locality():
    rng = random.Random(2026)
    gen = DerivationGen(rng)
    reductions = 0
    for i in range(1000):
        d = gen.derivation(max_nodes=25, steps=14)
        assert d.node_count() <= 25
        for r in find_redexes(d):
            out = reduce_step(d, r)
            report = check(out, KL)
            assert report.ok, (i, r, [str(v) for v in report.violations])
            assert out.conclusion == d.conclusion
            reductions += 1
        nf = normalize(d)
        assert canonical_form(normalize(nf)) == canonical_form(nf)
    _report(6, "reduction locality",
            f"1000 trees, {reductions} single-step reductions rechecked")


def test_criterion_7_parser_round_trip():
    # every surface string inside every corpus file
    strings = []
    root = resources.files("tenseproof") / "corpus"
    for path in sorted(root.iterdir()):
        if not path.name.endswith(".json"):
            continue
        def collect(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    if key == "conclusion" and isinstance(value, str):
                        strings.append(value)
                    else:
                        collect(value)
            elif isinstance(obj, list):
                for item in obj:
                    collect(item)
        collect(json.loads(path.read_text(encoding="utf-8")))
    assert strings
    for text in strings:
        entity = parse("any", text)
        assert parse("any", render(entity)) == entity

    rng = random.Random(7777)
    for _ in range(10000):
        entity = random_entity(rng, 6)
        assert parse("any", render(entity)) == entity
    _report(7, "parser round trip",
            f"{len(strings)} corpus strings + 10000 random formulas")
