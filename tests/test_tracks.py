import importlib
import random
import time
from dataclasses import replace

import pytest

import track_reference as ref
from helpers import DerivationGen
from test_kernel import _f_chain
from test_normalize import _deep_mon, _g_reductio, _lines_run
from tenseproof import derivation, syntax
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import Derivation, assume, node, path_to
from tenseproof.kernel import check
from tenseproof.normalize import is_normal, normalize, restrict
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import KL
from tenseproof.syntax import Atom, Empty, G, Less, Lwff
from tenseproof.tracks import (
    AuditReport, StructureViolation, audit_subformula, tracks,
)

tracks_module = importlib.import_module("tenseproof.tracks")
E = Empty()


def _ge_chain(k):
    """The normal chain of k ``g_e`` steps from ``x0 : G^k p`` to
    ``xk : p``, step i through the open ``x(i-1) < xi``: 2k+1 nodes on one
    track of k+1 nodes and k one-node minor tracks."""
    f = Atom("p")
    for _ in range(k):
        f = G(f)
    d = assume(Lwff("x0", f))
    for i in range(1, k + 1):
        f = f.body
        d = node("g_e", Lwff(f"x{i}", f), d, assume(Less(f"x{i - 1}", f"x{i}")))
    return d


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
    major = [t for t in report.tracks if t.nodes[0] == 1][0]
    assert major.elimination == (0,)
    assert major.kind == "labeled"
    minor = [t for t in report.tracks if t.nodes[0] == 2][0]
    assert minor.terminus == "minor-premise"
    assert report.links[0].case == "i"


def test_every_node_belongs_to_a_track():
    nf, _ = normalized("g4")
    report = tracks(nf)
    covered = set()
    for t in report.tracks:
        covered.update(t.nodes)
    assert covered == set(range(nf.node_count()))


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


# hand-made normal trees, each of which defies the track shape in one way;
# the message names a node by its root path
STRUCTURE_VIOLATIONS = [
    ("a 0-premise leaf", lambda: node("imp_i", pl("x : p -> p")),
     "node () belongs to no track"),
    ("a 0-premise minor premise",
     lambda: node("imp_e", pl("x : q"), assume(pl("x : p -> q")),
                  node("imp_i", pl("x : p"))),
     "node (1,) belongs to no track"),
    ("a 0-premise major premise",
     lambda: node("g_e", pl("y : p"), node("imp_i", pl("x : G p")),
                  assume(pr("x < y"))),
     "node () belongs to no track"),
    ("g_e to a stranger",
     lambda: node("g_e", pl("y : q"), assume(pl("x : G p")), assume(pr("x < y"))),
     "elimination step at (0,) does not shrink the formula"),
    ("g_e to a stranger under imp_i",
     lambda: node("imp_i", pl("y : r -> q"),
                  node("g_e", pl("y : q"), assume(pl("x : G p")),
                       assume(pr("x < y")))),
     "elimination step at (0, 0) does not shrink the formula"),
    ("uf1 of a non-atomic formula",
     lambda: node("rimp_i", pr("x < y => empty"),
                  node("uf1", E, assume(pl("x : G p")))),
     "central formula at (0, 0) is not atomic"),
    ("two falsum rules in a row",
     lambda: node("raa_empty", pr("x < y"),
                  node("raa_bot", pl("x : false"), assume(pl("x : false")))),
     "central part feeds more than one falsum rule"),
    ("a derived rule below the centre",
     lambda: node("imp_i", pl("x : t -> p | q"),
                  node("or_i1", pl("x : p | q"),
                       node("imp_e", pl("x : p"), assume(pl("x : r -> p")),
                            assume(pl("x : r"))))),
     "late track node at (0, 0) feeds a non-introduction rule"),
    ("imp_i to a stranger",
     lambda: node("imp_e", pl("x : s"), assume(pl("x : (q -> r) -> s")),
                  node("imp_i", pl("x : q -> r"),
                       node("imp_i", pl("x : q -> p"), assume(pl("x : p"))))),
     "introduction step at (1, 0) does not grow the formula"),
    ("g_e of a uf2 conclusion",
     lambda: node("imp_i", pl("x : q -> p"),
                  node("g_e", pl("y : p"),
                       node("uf2", pl("x : G p"), assume(E)),
                       assume(pr("x < y")))),
     "a universal-falsum track cannot eliminate"),
    ("uf1 of an introduction",
     lambda: node("rimp_i", pr("x < y => empty"),
                  node("uf1", E, node("imp_i", pl("x : q -> p"),
                                      assume(pl("x : p"))))),
     "a track ending in universal falsum cannot introduce"),
    ("a relational minor premise of imp_e",
     lambda: node("imp_i", pl("x : r -> q"),
                  node("imp_e", pl("x : q"), assume(pl("x : p -> q")),
                       assume(pr("x < y")))),
     "cross-system connection through imp_e"),
    # a temporal elimination or a mon whose major premise lies outside the
    # elimination or central part is a late track node first, so the link
    # checks for those cases are reached by no tree
    ("g_e of an introduction",
     lambda: node("g_e", pl("y : q"),
                  node("or_i1", pl("x : G q"), assume(pl("x : p"))),
                  assume(pr("x < y"))),
     "late track node at (0, 0) feeds a non-introduction rule"),
    ("mon of an introduction",
     lambda: node("mon", pl("y : p"),
                  node("or_i1", pl("x : p"), assume(pl("x : p"))),
                  assume(pr("x = y")), position=1),
     "late track node at (0, 0) feeds a non-introduction rule"),
]


@pytest.mark.parametrize("tree,message", [case[1:] for case in STRUCTURE_VIOLATIONS],
                         ids=[case[0] for case in STRUCTURE_VIOLATIONS])
def test_structure_violation_messages(tree, message):
    d = tree()
    assert is_normal(d).normal
    with pytest.raises(StructureViolation) as caught:
        tracks(d)
    assert str(caught.value) == message


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
    assert report.justifications[0] == "1i"


def test_audit_uf2_bottom_clause():
    d = node("uf2", pl("x : false"), assume(E))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[0] == "1v"


def test_audit_zero_discharge_raa():
    d = node("raa_bot", pl("x : false"), assume(pl("y : false")))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[0] == "1iv"


def test_audit_discharged_refutation_clauses():
    neg = assume(pl("x : p -> false"), 1)
    bot = node("imp_e", pl("x : false"), neg, assume(pl("x : p")))
    raa = node("raa_bot", pl("x : p"), bot, discharges={1})
    report = audit_subformula(raa)
    assert report.ok
    assert report.justifications[2] == "1ii"
    assert report.justifications[1] == "1iii"


def test_audit_relational_refutation_clauses():
    neg = assume(pr("x < y => empty"), 1)
    bot = node("rimp_e", E, neg, assume(pr("x < y")))
    raa = node("raa_empty", pr("x < y"), bot, discharges={1})
    report = audit_subformula(raa)
    assert report.ok
    assert report.justifications[2] == "2ii"
    assert report.justifications[1] == "2iii"


def test_audit_uf1_empty_clause():
    d = node("uf1", E, assume(pl("x : false")))
    report = audit_subformula(d)
    assert report.ok
    assert report.justifications[0] == "2iv"


def test_audit_mon_clause():
    m = node("mon", pr("y < z"), assume(pr("x < z")), assume(pr("x = y")),
             position=1)
    report = audit_subformula(m)
    assert report.ok
    assert report.justifications[0] == "2v"


def test_audit_normalized_corpus():
    for entry_id in ("g1", "g2", "g4", "first_point", "rdiscr"):
        nf, _ = normalized(entry_id)
        report = audit_subformula(nf)
        assert report.ok, (entry_id, report.violations)


def _detour():
    return node("imp_e", pl("x : G q"),
                node("imp_i", pl("x : G q -> G q"), assume(pl("x : G q"), 1),
                     discharges={1}),
                assume(pl("x : G q")))


def test_audit_flags_maximal_formula():
    # a detour's maximal formula is exactly what the subformula property
    # forbids: it occurs in the tree but in no assumption or conclusion
    detour = _detour()
    assert check(detour, KL).ok
    audit = audit_subformula(detour)
    assert not audit.ok
    assert audit.violations == ((0,),)


# ---------------------------------------------------------------------------
# the fold against the path-keyed reference, and its growth

def _by_path(d, report):
    """``report`` on ``d`` with each node it names by number named by its
    root path, as the reference names it; a node it names by path already
    (as the library did before it numbered them) is left as it is."""
    def path(k):
        return k if isinstance(k, tuple) else path_to(d, k)
    if isinstance(report, AuditReport):
        return replace(report, justifications={
            path(k): tag for k, tag in report.justifications.items()})
    return replace(
        report,
        tracks=tuple(replace(t, nodes=tuple(map(path, t.nodes)))
                     for t in report.tracks),
        links=tuple(replace(link, at=path(link.at)) for link in report.links))


def _outcome(fn, d):
    try:
        return fn(d)
    except (ValueError, StructureViolation) as exc:
        return type(exc), str(exc)


def test_reports_match_the_path_keyed_reference():
    dgen = DerivationGen(random.Random(7))
    trees = [normalize(e.derivation) for e in corpus_entries()]
    trees += [normalize(dgen.derivation()) for _ in range(400)]
    trees += [tree() for _, tree, _ in STRUCTURE_VIOLATIONS]
    trees.append(_detour())     # not normal; the audit flags a node
    for d in trees:
        for new, old in ((tracks, ref.tracks),
                         (audit_subformula, ref.audit_subformula)):
            got = _outcome(new, d)
            if not isinstance(got, tuple):
                got = _by_path(d, got)
            assert got == _outcome(old, d)


def test_track_passes_grow_linearly(monkeypatch):
    # tracks and audit_subformula of a g_e chain and of the normal form of
    # a reductio on x : G^k p: no root path and no walk on a clean normal
    # form (the normality test of tracks scans nodes()), and the lines of
    # the library they run grow at most x2.3 as k doubles
    walks, paths = [], []
    walk = Derivation.walk
    monkeypatch.setattr(Derivation, "walk",
                        lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(tracks_module, "path_to",
                        lambda *args: paths.append(1) or path_to(*args))
    for family in (_ge_chain, lambda k: normalize(_g_reductio(k))):
        for fn in (tracks, audit_subformula):
            lines = []
            for k in (500, 1000):
                d = family(k)
                walks.clear()
                lines.append(_lines_run(fn, d))
                assert not walks and not paths, (fn.__name__, k)
            assert lines[1] <= 2.3 * lines[0], fn.__name__
    d = _ge_chain(2000)
    start = time.perf_counter()
    tracks(d)
    assert time.perf_counter() - start < 1.0


def test_audit_pool_matches_grow_linearly(monkeypatch):
    # the audit of the normalized relational mon chain tries match_labels
    # only within the pool file of the formula it asks for: at most once per
    # node, and at most x2.3 as k doubles (a scan of the whole pool made
    # 698 250 and 2 771 500 calls at k = 250 and 500)
    calls = []
    match = syntax.match_labels
    monkeypatch.setattr(syntax, "match_labels",
                        lambda *args: calls.append(1) or match(*args))
    counts = []
    for k in (250, 500):
        d = normalize(_deep_mon(k, False))
        calls.clear()
        assert audit_subformula(d).ok
        assert len(calls) <= d.node_count(), k
        counts.append(len(calls))
    assert counts[1] <= 2.3 * counts[0]


def test_open_leaf_queries_grow_linearly(monkeypatch):
    # check and the audit of the restricted relational mon chain ask the
    # tree's index for open leaves, which examines each leaf of the asked
    # range once: 1 251 and 2 501 entries each at k = 250 and 500, at most
    # x2.3 as k doubles (the open-leaf fold that concatenated and filtered
    # whole lists grew x2.6-3.4 per doubling past k = 1000); and check of
    # an f_e chain whose levels share one fresh label counts its freshness
    # tests, so it scans no leaf that a level closes (807 and 1 607 entries
    # at k = 200 and 400, where a scan of each minor premise grew x3-4)
    entries = []
    closer = derivation.Index.closer
    monkeypatch.setattr(derivation.Index, "closer",
                        lambda *args: entries.append(1) or closer(*args))
    runs = [(check, lambda k: restrict(_deep_mon(k, False)), 250),
            (audit_subformula, lambda k: restrict(_deep_mon(k, False)), 250),
            (check, lambda k: _f_chain(k, one=True), 200)]
    for fn, family, k in runs:
        counts = []
        for d in (family(k), family(2 * k)):
            entries.clear()
            assert fn(d).ok
            assert len(entries) <= 2 * d.node_count(), fn.__name__
            counts.append(len(entries))
        assert 0 < counts[1] <= 2.3 * counts[0], (fn.__name__, counts)
