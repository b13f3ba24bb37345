import pytest

from tenseproof.corpus import corpus_entries
from tenseproof.derivation import assume, node
from tenseproof.kernel import check
from tenseproof.normalize import normalize
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import KL
from tenseproof.syntax import Empty
from tenseproof.tracks import audit_subformula, tracks

E = Empty()


def normalized(entry_id):
    entry = corpus_entries(entry_id)[0]
    return normalize(entry.derivation), entry.profile


def test_leaf_only_derivation_single_track():
    report = tracks(assume(pl("x : p")))
    assert len(report.tracks) == 1
    t = report.tracks[0]
    assert t.kind == "labeled"
    assert t.origin == "assumption" and t.terminus == "conclusion"
    assert t.elimination == () and t.central == ()
    assert t.introduction == (0,)
    assert report.links == ()


def test_tracks_require_normal_form():
    detour = node("imp_e", pl("x : p"),
                  node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1),
                       discharges={1}),
                  assume(pl("x : p")))
    with pytest.raises(ValueError):
        tracks(detour)


def test_elimination_part_shrinks_formulas():
    ge = node("g_e", pl("y : p"), assume(pl("x : G p")), assume(pr("x < y")))
    report = tracks(ge)
    major = [t for t in report.tracks if t.nodes[0] == (0,)][0]
    assert major.elimination == (0,)
    assert major.kind == "labeled"
    minor = [t for t in report.tracks if t.nodes[0] == (1,)][0]
    assert minor.terminus == "minor-premise"
    assert report.links[0].case == "i"


def test_every_node_belongs_to_a_track():
    nf, _ = normalized("g4")
    report = tracks(nf)
    covered = set()
    for t in report.tracks:
        covered.update(t.nodes)
    assert covered == {path for path, _ in nf.walk()}


def test_first_point_links_classified():
    nf, _ = normalized("first_point")
    report = tracks(nf)
    cases = {l.case for l in report.links}
    # the refutation travels between the sub-systems through universal falsum
    assert "iii" in cases
    assert "iv" in cases
    uf2_origins = [t for t in report.tracks if t.origin == "uf-conclusion"
                   and t.kind == "labeled"]
    assert len(uf2_origins) >= 1
    for link in report.links:
        assert link.case in ("i", "ii", "iii", "iv", "same-kind")


def test_mon_link_lands_in_central_part():
    base = assume(pl("x : p"))
    m = node("mon", pl("y : p"), base, assume(pr("x = y")), position=1)
    report = tracks(m)
    assert any(l.case == "ii" for l in report.links)
    major = report.tracks[0]
    assert 0 in major.central


def test_track_counts_on_corpus():
    for entry_id in ("g1", "g3", "rdens", "rdiscr", "conn_canonical"):
        nf, _ = normalized(entry_id)
        report = tracks(nf)     # raises StructureViolation on any defect
        for t in report.tracks:
            # parts partition the chain in order
            assert list(t.elimination) + list(t.central) + list(t.introduction) \
                == list(range(len(t.nodes)))


# ---------------------------------------------------------------------------
# subformula audit

def test_audit_leaf():
    report = audit_subformula(assume(pl("x : p")))
    assert report.ok
    assert report.justifications[()] == "1i"


def test_audit_uf2_bottom_clause():
    d = node("uf2", pl("x : false"), assume(E))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[()] == "1v"


def test_audit_zero_discharge_raa():
    d = node("raa_bot", pl("x : false"), assume(pl("y : false")))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[()] == "1iv"


def test_audit_discharged_refutation_clauses():
    neg = assume(pl("x : p -> false"), 1)
    bot = node("imp_e", pl("x : false"), neg, assume(pl("x : p")))
    raa = node("raa_bot", pl("x : p"), bot, discharges={1})
    report = audit_subformula(raa)
    assert report.ok
    assert report.justifications[(0, 0)] == "1ii"
    assert report.justifications[(0,)] == "1iii"


def test_audit_relational_refutation_clauses():
    neg = assume(pr("x < y => empty"), 1)
    bot = node("rimp_e", E, neg, assume(pr("x < y")))
    raa = node("raa_empty", pr("x < y"), bot, discharges={1})
    report = audit_subformula(raa)
    assert report.ok
    assert report.justifications[(0, 0)] == "2ii"
    assert report.justifications[(0,)] == "2iii"


def test_audit_uf1_empty_clause():
    d = node("uf1", E, assume(pl("x : false")))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[()] == "2iv"


def test_audit_mon_clause():
    m = node("mon", pr("y < z"), assume(pr("x < z")), assume(pr("x = y")),
             position=1)
    report = audit_subformula(m)
    assert report.ok
    assert report.justifications[()] == "2v"


def test_audit_normalized_corpus():
    for entry_id in ("g1", "g2", "g4", "first_point", "rdiscr"):
        nf, _ = normalized(entry_id)
        report = audit_subformula(nf)
        assert report.ok, (entry_id, report.violations)


def test_audit_flags_maximal_formula():
    # a detour's maximal formula is exactly what the subformula property
    # forbids: it occurs in the tree but in no assumption or conclusion
    detour = node("imp_e", pl("x : G q"),
                  node("imp_i", pl("x : G q -> G q"), assume(pl("x : G q"), 1),
                       discharges={1}),
                  assume(pl("x : G q")))
    assert check(detour, KL).ok
    audit = audit_subformula(detour)
    assert not audit.ok
    assert audit.violations == ((0,),)
