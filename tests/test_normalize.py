import importlib
import itertools
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from helpers import DerivationGen
from tenseproof.derivation import (
    MarkerGen, all_labels, all_markers, assume, from_json, graft, map_leaves,
    node, refresh_internal_markers, to_json, with_premise,
)
from tenseproof.kernel import check, expand_derived, open_assumptions
from tenseproof.normalize import (
    NonTermination, Redex, RedexStale, _mon_class, _Zipper, canonical_form,
    find_redexes, is_normal, normalize, reduce_step, restrict,
)
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import KL, parse_profile
from tenseproof.syntax import (
    Atom, Empty, Falsum, G, Implies, LabelGen, Lwff, RImplies, core_eq, expand,
    grade, is_atomic, substitute_label,
)

E = Empty()
F = Falsum()
# the module, not the function of that name the package exports
nz = importlib.import_module("tenseproof.normalize")
# ``copies`` and ``relabel`` are read off the module, so that
# tools/output_digest.py can import this file's tree generators against a
# library that lacks them
dv = importlib.import_module("tenseproof.derivation")


def g_detour():
    lt1 = assume(pr("x < y"), 1)
    gp = assume(pl("x : G p"), 2)
    ge_in = node("g_e", pl("y : p"), gp, lt1)
    gi = node("g_i", pl("x : G p"), ge_in, discharges={1}, fresh="y")
    return node("g_e", pl("z : p"), gi, assume(pr("x < z")))


# ---------------------------------------------------------------------------
# restrict

# every reductio shape: a connective of either sort, or ``empty`` itself,
# with the rule its restriction must end in (None: it only closes leaves)
_REDUCTIO_SHAPES = {
    "imp": ("raa_bot", pl("x : a -> b"), "kl", "imp_i"),
    "G": ("raa_bot", pl("x : G p"), "kl", "g_i"),
    "H": ("raa_bot", pl("x : H (p -> q)"), "kl", "h_i"),
    "X": ("raa_bot", pl("x : X p"), "mtl", "x_i"),
    "rimp": ("raa_empty", pr("x < y => y < x"), "kl", "rimp_i"),
    "forall": ("raa_empty", pr("forall v. !(v < v)"), "kl", "all_i"),
    "empty": ("raa_empty", E, "kl", None),
}


def _reductio(rule, c, markers):
    """A reductio on ``c`` whose premise contradicts a refutation leaf with
    a leaf of ``c`` (marker 9, never discharged).  It discharges no marker,
    the refutation leaf's (1), or that one and the one (2) of a second
    refutation leaf, under a nested reductio on ``c`` that discharges
    nothing."""
    if rule == "raa_bot":
        neg, bottom = Lwff(c.label, Implies(c.formula, F)), Lwff(c.label, F)
        elim = "imp_e"
    else:
        neg, bottom, elim = RImplies(c, E), E, "rimp_e"
    inner = assume(c, 9)
    if markers == 2:
        inner = node(rule, c, node(elim, bottom, assume(neg, 2), assume(c, 9)))
    body = node(elim, bottom, assume(neg, 1 if markers else None), inner)
    return node(rule, c, body, discharges=set(range(1, markers + 1)))


@pytest.mark.parametrize("markers", [0, 1, 2])
@pytest.mark.parametrize("shape", list(_REDUCTIO_SHAPES))
def test_restrict_reductio(shape, markers):
    rule, c, profile, intro = _REDUCTIO_SHAPES[shape]
    profile = parse_profile(profile)
    raa = _reductio(rule, c, markers)
    assert check(raa, profile).ok
    out = restrict(raa)
    assert check(out, profile).ok
    assert out.conclusion == raa.conclusion
    assert open_assumptions(out) == open_assumptions(raa)
    # the rebuilt tree ends with the connective's introduction over a
    # reductio on the opened formula, itself restricted unless atomic, per
    # the standard transformation
    if intro is not None:
        assert out.rule == intro
        opened = out.premises[0]
        assert opened.rule == rule or not is_atomic(opened.conclusion)
    for n in out.nodes():
        if n.rule in ("raa_bot", "raa_empty"):
            assert is_atomic(n.conclusion)
        if n.rule == "raa_empty":
            assert not core_eq(n.conclusion, E)


def test_restrict_is_fixpoint_on_restricted_trees():
    d = g_detour()
    assert restrict(d) == d


def test_restrict_mon_on_falsum():
    monbot = node("mon", pl("y : false"), assume(pl("x : false")),
                  assume(pr("x = y")))
    out = restrict(monbot)
    assert out.rule == "raa_bot"
    assert not out.discharges
    assert out.conclusion == pl("y : false")
    assert check(out, KL).ok


def test_restrict_nonatomic_mon_goes_positional():
    for formula, profile in [
        ("p", "kl"), ("false", "kl"), ("p -> G q", "kl"), ("G p", "kl"),
        ("H p", "kl"), ("X p", "mtl"), ("X (p -> H q)", "mtl"),
    ]:
        profile = parse_profile(profile)
        premise, eq = pl(f"x : {formula}"), pr("x = y")
        mon = node("mon", pl(f"y : {formula}"), assume(premise), assume(eq))
        assert check(mon, profile).ok, formula
        out = restrict(mon)
        assert check(out, profile).ok, formula
        assert core_eq(out.conclusion, mon.conclusion), formula
        assert all(_mon_class(n)[0] == "ok"
                   for n in out.nodes() if n.rule == "mon"), formula
        # a mon on falsum becomes a reductio, which needs no equality
        expected = {premise} if formula == "false" else {premise, eq}
        assert set(open_assumptions(out)) == expected, formula


def test_restrict_refuses_a_mon_that_changes_the_operator():
    # no chain of mons takes G p to H p: the unchecked tree is a TypeError
    mon = node("mon", pl("y : H p"), assume(pl("x : G p")), assume(pr("x = y")))
    with pytest.raises(TypeError, match="no mon takes"):
        restrict(mon)


def _deep_mon(k, labeled):
    """A mon from a k-level implication chain at ``x`` to the same chain
    with ``x`` replaced: ``x : p -> ... -> p -> q`` to ``y``, or
    ``x < y => ... => x < y => empty`` to ``z``."""
    if labeled:
        chain = Atom("q")
        for _ in range(k):
            chain = Implies(Atom("p"), chain)
        return node("mon", Lwff("y", chain), assume(Lwff("x", chain), 1),
                    assume(pr("x = y"), 2))
    chain = E
    for _ in range(k):
        chain = RImplies(pr("x < y"), chain)
    return node("mon", substitute_label(chain, "z", "x"), assume(chain, 1),
                assume(pr("x = z"), 2))


@pytest.mark.parametrize("labeled", [False, True])
def test_deep_mon_restricts_and_checks(labeled):
    # the transport keeps its pending steps on a list, not the call stack
    mon = _deep_mon(1000, labeled)
    assert check(restrict(mon), KL).ok


def test_deeper_mon_restricts_to_positional_mons():
    mon = _deep_mon(3000, False)
    out = restrict(mon)
    assert core_eq(out.conclusion, mon.conclusion)
    assert all(_mon_class(n)[0] == "ok" for n in out.nodes() if n.rule == "mon")


def test_deep_mon_check_memory_is_linear():
    # the checker names nodes by number, not by root path: the restricted
    # 2000-level relational chain (46 001 nodes, 4000 deep) checks in a
    # process that peaks under 100 MB
    script = ("import resource; from test_normalize import _deep_mon; "
              "from tenseproof.kernel import check; "
              "from tenseproof.normalize import restrict; "
              "assert check(restrict(_deep_mon(2000, False))).ok; "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    here = pathlib.Path(__file__).resolve().parent
    src = pathlib.Path(nz.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 100 * 1024         # ru_maxrss is in KiB


def test_restrict_multi_position_mon_splits():
    d = node("mon", pr("y < y"), assume(pr("x < x")), assume(pr("x = y")))
    out = restrict(d)
    assert check(out, KL).ok
    mons = [n for _, n in out.walk() if n.rule == "mon"]
    assert len(mons) == 2
    assert {n.position for n in mons} == {1, 2}


# ---------------------------------------------------------------------------
# find_redexes / reduce_step

def test_detour_found_and_reduced():
    d = g_detour()
    rs = find_redexes(d)
    assert [r.kind for r in rs] == ["MaximalFormula"]
    assert rs[0].detail == "g_i/g_e"
    out = reduce_step(d, rs[0])
    assert check(out, KL).ok
    assert out.conclusion == d.conclusion
    # the inner subderivation is grafted with the new label substituted
    assert out == node("g_e", pl("z : p"), assume(pl("x : G p"), 2),
                       assume(pr("x < z")))


def test_normalized_corpus_tree_has_no_redexes():
    from tenseproof.corpus import corpus_entries
    entry = corpus_entries("g3")[0]
    nf = normalize(entry.derivation)
    assert find_redexes(nf) == []


def test_falsum_chain_redexes():
    # a falsum conclusion feeding another falsum rule, in all four shapes
    raa_raa = node("raa_bot", pl("z : p"),
                   node("raa_bot", pl("y : false"), assume(pl("x : false"))))
    assert [r.detail for r in find_redexes(raa_raa)] == ["raa_bot;raa_bot"]

    raa_uf1 = node("uf1", E, node("raa_bot", pl("y : false"),
                                  assume(pl("x : false"))))
    assert [r.detail for r in find_redexes(raa_uf1)] == ["raa_bot;uf1"]

    uf1_uf2 = node("uf2", pl("y : false"),
                   node("uf1", E, assume(pl("x : false"))))
    assert [r.detail for r in find_redexes(uf1_uf2)] == ["uf1;uf2"]

    uf2_uf1 = node("uf1", E, node("uf2", pl("x : false"), assume(E, 5)))
    assert [r.detail for r in find_redexes(uf2_uf1)] == ["uf2;uf1"]


def test_reduce_raa_then_uf1():
    d = node("uf1", E, node("raa_bot", pl("y : false"), assume(pl("x : false"))))
    out = reduce_step(d, find_redexes(d)[0])
    assert out == node("uf1", E, assume(pl("x : false")))


def test_reduce_uf1_then_uf2_becomes_transport():
    d = node("uf2", pl("y : false"), node("uf1", E, assume(pl("x : false"))))
    out = reduce_step(d, find_redexes(d)[0])
    assert out == node("raa_bot", pl("y : false"), assume(pl("x : false")))


def test_reduce_uf2_then_uf1_deletes_both():
    d = node("uf1", E, node("uf2", pl("x : false"), assume(E, 5)))
    out = reduce_step(d, find_redexes(d)[0])
    assert out == assume(E, 5)


def test_mon_composition():
    base = assume(pl("x : p"))
    m1 = node("mon", pl("y : p"), base, assume(pr("x = y")), position=1)
    m2 = node("mon", pl("z : p"), m1, assume(pr("y = z")), position=1)
    rs = find_redexes(m2)
    assert [r.kind for r in rs] == ["RedundantMon"]
    out = reduce_step(m2, rs[0])
    assert check(out, KL).ok
    assert out.conclusion == pl("z : p")
    # the composed equality is derived by a position-2 mon
    assert out.rule == "mon" and out.premises[0] == base
    inner = out.premises[1]
    assert inner.rule == "mon" and inner.position == 2
    assert core_eq(inner.conclusion, pr("x = z"))


def test_mon_ordering_permutation():
    base = assume(pr("x < y"))
    m1 = node("mon", pr("x < u"), base, assume(pr("y = u")), position=2)
    m2 = node("mon", pr("z < u"), m1, assume(pr("x = z")), position=1)
    rs = find_redexes(m2)
    assert [r.kind for r in rs] == ["MonDisorder"]
    out = reduce_step(m2, rs[0])
    assert check(out, KL).ok
    assert out.conclusion == m2.conclusion
    # after the swap the position-1 application happens first
    assert out.position == 2 and out.premises[0].position == 1


def test_sorted_same_position_pair_not_disordered():
    base = assume(pr("x < y"))
    m1 = node("mon", pr("z < y"), base, assume(pr("x = z")), position=1)
    m2 = node("mon", pr("z < u"), m1, assume(pr("y = u")), position=2)
    assert find_redexes(m2) == []


def test_stale_redex_rejected():
    d = g_detour()
    r = find_redexes(d)[0]
    out = reduce_step(d, r)
    with pytest.raises(RedexStale):
        reduce_step(out, r)


def test_redex_off_the_tree_is_stale():
    d = g_detour()
    r = find_redexes(d)[0]
    for path in (r.path + (0, 0, 0, 0, 0, 0), (7,)):
        with pytest.raises(RedexStale):
            reduce_step(d, Redex(r.kind, path, r.detail))


# ---------------------------------------------------------------------------
# normalize

def test_normalize_leaf_is_identity():
    leaf = assume(pl("x : p"))
    assert normalize(leaf) == leaf


def test_normalize_vacuous_imp_detour():
    # an introduction discharging nothing, immediately eliminated: the
    # minor premise disappears and the inner refutation remains
    inner = node("raa_bot", pl("x : p"), assume(pl("y : false")))
    intro = node("imp_i", pl("x : q -> p"), inner, discharges={1})
    detour = node("imp_e", pl("x : p"), intro, assume(pl("x : q")))
    out = normalize(detour)
    assert out == inner
    assert out.node_count() == 2


def test_normalize_corpus_density_entry():
    from tenseproof.corpus import corpus_entries
    entry = corpus_entries("rdens")[0]
    nf = normalize(entry.derivation)
    assert is_normal(nf).normal
    assert check(nf, entry.profile).ok
    assert nf.conclusion == entry.derivation.conclusion


def test_normalize_idempotent():
    rng = random.Random(23)
    gen = DerivationGen(rng)
    for _ in range(40):
        d = gen.derivation()
        nf = normalize(d)
        assert canonical_form(normalize(nf)) == canonical_form(nf)


def test_normalize_preserves_conclusion_and_assumptions():
    rng = random.Random(17)
    gen = DerivationGen(rng)
    for _ in range(60):
        d = gen.derivation()
        nf = normalize(d)
        assert nf.conclusion == d.conclusion
        before = {c for c in open_assumptions(d)}
        after = {c for c in open_assumptions(nf)}
        assert all(any(core_eq(a, b) for b in before) for a in after)


def test_restrict_random_nonatomic_mons():
    # positional transport across arbitrary relational shapes, including
    # quantifiers and the immediate-precedence sugar; the equality's labels
    # may be the names the premise or its expansion binds
    from helpers import random_rwff
    from tenseproof.syntax import Eq, expand, labels_of, substitute_label
    rng = random.Random(42)
    tested = 0
    for _ in range(120):
        rho = random_rwff(rng, 3)
        a, b = rng.sample(sorted(labels_of(rho) | {"u1", "w1"}), 2)
        if a not in labels_of(rho):
            continue
        target = substitute_label(expand(rho), b, a)
        m = node("mon", target, assume(rho), assume(Eq(a, b)))
        if not check(m, KL).ok:
            continue
        out = restrict(m)
        assert check(out, KL).ok
        assert core_eq(out.conclusion, target)
        before = set(open_assumptions(m))
        after = set(open_assumptions(out))
        assert all(any(core_eq(a, b) for b in before) for a in after)
        nf = normalize(m)
        assert is_normal(nf).normal and check(nf, KL).ok
        tested += 1
    assert tested >= 40


def test_step_bound_guard():
    with pytest.raises(NonTermination):
        normalize(g_detour(), bound=0)


def test_step_bound_env_override(monkeypatch):
    monkeypatch.setenv("TENSEPROOF_STEP_BOUND", "123")
    from tenseproof.normalize import step_bound
    assert step_bound() == 123


def test_trace_records():
    trace = []
    normalize(g_detour(), trace=trace)
    assert len(trace) == 1
    record = trace[0]
    assert record["kind"] == "MaximalFormula"
    assert record["step"] == 1
    assert "site" in record and "nodes" in record


def test_is_normal_diagnosis():
    d = g_detour()
    report = is_normal(d)
    assert not report.normal and not bool(report)
    assert report.redexes[0].kind == "MaximalFormula"
    assert is_normal(normalize(d)).normal and bool(is_normal(normalize(d)))


def test_next_step_detour_reduces():
    from tenseproof.rules import parse_profile
    mtl = parse_profile("mtl")
    inner = node("x_e", pl("y : p"), assume(pl("x : X p"), 2),
                 assume(pr("x <. y"), 1))
    intro = node("x_i", pl("x : X p"), inner, discharges={1}, fresh="y")
    detour = node("x_e", pl("z : p"), intro, assume(pr("x <. z")))
    assert check(detour, mtl).ok
    nf = normalize(detour)
    assert is_normal(nf).normal
    assert check(nf, mtl).ok
    assert nf == node("x_e", pl("z : p"), assume(pl("x : X p"), 2),
                      assume(pr("x <. z")))


def test_nested_detours_all_eliminated():
    # an inner detour sits above an outer one of equal grade; the selection
    # strategy must pick the inner one first and still clear both
    inner = node("imp_e", pl("x : p"),
                 node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1),
                      discharges={1}),
                 assume(pl("x : p")))
    outer = node("imp_e", pl("x : p"),
                 node("imp_i", pl("x : q -> p"), inner, discharges={2}),
                 assume(pl("x : q")))
    report = check(outer, KL)
    assert report.ok, [str(v) for v in report.violations]
    rs = find_redexes(outer)
    assert len(rs) == 2
    nf = normalize(outer)
    assert is_normal(nf).normal
    assert check(nf, KL).ok
    assert nf == assume(pl("x : p"))


# ---------------------------------------------------------------------------
# The memoized driver against a full-rescan reference

_REFERENCE_CLASS = {
    "UnrestrictedRAA": 0, "UnrestrictedMon": 0, "MaximalFormula": 1,
    "MonDisorder": 2, "RedundantMon": 3, "RedundantFalsum": 4,
}


def _reference_select(d, redexes):
    """The strategy spelled out: least class; among maximal formulas the
    highest grade with no equally-high one above, innermost then leftmost;
    otherwise leftmost."""
    best = min(_REFERENCE_CLASS[r.kind] for r in redexes)
    pool = [r for r in redexes if _REFERENCE_CLASS[r.kind] == best]
    if best != 1:
        return min(pool, key=lambda r: r.path)
    graded = [(grade(d.at(r.path).premises[0].conclusion), r) for r in pool]
    eligible = []
    for g, r in graded:
        above = r.path + (0,)
        if not any(g2 >= g and r2.path[:len(above)] == above and r2 is not r
                   for g2, r2 in graded):
            eligible.append((g, r))
    top = max(g for g, _ in eligible)
    return min((r for g, r in eligible if g == top),
               key=lambda r: (-len(r.path), r.path))


def _reference_run(d, restrict_only=False):
    """Rescan the whole tree before every step; returns (tree, trace)."""
    trace = []
    while True:
        redexes = find_redexes(d)
        if restrict_only:
            redexes = [r for r in redexes if r.kind.startswith("Unrestricted")]
        if not redexes:
            return d, trace
        r = _reference_select(d, redexes)
        d = reduce_step(d, r)
        trace.append({"step": len(trace) + 1, "kind": r.kind,
                      "detail": r.detail, "site": list(r.path),
                      "nodes": d.node_count()})


def _assert_same_as_reference(d):
    expected, expected_trace = _reference_run(expand_derived(d))
    trace = []
    nf = normalize(d, trace=trace)
    assert trace == expected_trace
    assert canonical_form(nf) == canonical_form(expected)
    assert is_normal(nf).normal
    expected_r, _ = _reference_run(d, restrict_only=True)
    assert canonical_form(restrict(d)) == canonical_form(expected_r)
    return len(trace)


def _nested_imp(k, formulas, through_body):
    """k detours nested in the body of the next one, ``F -> p`` applied to
    ``x : F`` with F cycling through ``formulas`` so that the grades differ
    from level to level; or k identity detours ``p -> p``, each nested in
    the minor premise of the next one."""
    a = pl("x : p")
    d = assume(a, 1)
    for i in range(k):
        f = formulas[i % len(formulas)]
        m = i + 2
        if through_body:
            intro = node("imp_i", pl(f"x : ({f}) -> p"), d, discharges={m})
            d = node("imp_e", a, intro, assume(pl(f"x : {f}"), 1000 + i))
        else:
            intro = node("imp_i", pl("x : p -> p"), assume(a, m), discharges={m})
            d = node("imp_e", a, intro, d)
    return d


def _nested_temporal(k, op):
    """k nested ``g_i/g_e`` (or ``h_i/h_e``) detours closed by one more
    elimination."""
    rule_i, rule_e = f"{op}_i", f"{op}_e"
    boxed = pl(f"x : {op.upper()} p")
    d = assume(boxed, 1)
    for i in range(k):
        y = f"y{i}"
        rel = pr(f"x < {y}") if op == "g" else pr(f"{y} < x")
        inner = node(rule_e, pl(f"{y} : p"), d, assume(rel, i + 2))
        d = node(rule_i, boxed, inner, discharges={i + 2}, fresh=y)
    rel = pr("x < z") if op == "g" else pr("z < x")
    return node(rule_e, pl("z : p"), d, assume(rel, 999))


def _mon_chain(k, disorder):
    """k mon steps: alternating positions 2, 1, ... on ``l0 < r0`` (every
    adjacent pair out of order), or renamings of ``l0 : p`` (every adjacent
    pair redundant)."""
    if disorder:
        left, right = "l0", "r0"
        d = assume(pr("l0 < r0"), 1)
        for i in range(1, k + 1):
            if i % 2:
                d = node("mon", pr(f"{left} < r{i}"), d,
                         assume(pr(f"{right} = r{i}"), i + 1), position=2)
                right = f"r{i}"
            else:
                d = node("mon", pr(f"l{i} < {right}"), d,
                         assume(pr(f"{left} = l{i}"), i + 1), position=1)
                left = f"l{i}"
        return d
    d = assume(pl("l0 : p"), 1)
    for i in range(1, k + 1):
        d = node("mon", pl(f"l{i} : p"), d, assume(pr(f"l{i - 1} = l{i}"), i + 1),
                 position=1)
    return d


def _falsum_chain(k):
    """k falsum rules in the repeating order uf1, uf2, raa_bot."""
    d = assume(pl("x0 : false"))
    for i in range(1, k):
        if i % 3 == 1:
            d = node("uf1", E, d)
        else:
            d = node("uf2" if i % 3 == 2 else "raa_bot", pl(f"x{i} : false"), d)
    if d.rule == "uf1":
        d = node("uf2", pl(f"x{k} : false"), d)
    return node("raa_bot", pl("z : p"), d)


def test_driver_matches_reference_on_corpus():
    from tenseproof.corpus import corpus_entries
    for entry in corpus_entries():
        _assert_same_as_reference(entry.derivation)


def _family_trees():
    trees = [_nested_imp(k, ["q", "q -> q", "G q", "q"], body)
             for k in (1, 4, 9, 20) for body in (True, False)]
    trees += [_nested_temporal(k, op) for k in (1, 5, 12) for op in ("g", "h")]
    trees += [_mon_chain(k, dis) for k in (3, 8, 33) for dis in (True, False)]
    trees += [_falsum_chain(k) for k in (4, 11, 20, 64)]
    return trees


def test_driver_matches_reference_on_families():
    for d in _family_trees():
        assert check(d, KL).ok
        assert _assert_same_as_reference(d) > 0


def test_trace_counts_the_nodes_of_each_tree():
    for d in _family_trees():
        trace = []
        nf = normalize(d, trace=trace)
        assert trace[-1]["nodes"] == nf.node_count() == sum(1 for _ in nf.nodes())


def test_driver_matches_reference_on_random_trees():
    gen = DerivationGen(random.Random(99))
    steps = sum(_assert_same_as_reference(gen.derivation()) for _ in range(200))
    assert steps > 200


def _nested(path):
    """A root path as the nested ``(i, rest)`` pairs of a redex key."""
    out = ()
    for i in reversed(path):
        out = (i, out)
    return out


def _key_site(tree, key):
    """The redex the zipper's key ``key`` names, with its site turned into
    a root path through the frames: the frames' premise indices down to the
    frame the key is relative to, then the key's own path."""
    if key[0] == nz._NONE[0]:
        return None
    side, depth, path = key[3]
    site = [i for _, i, _ in tree.frames]
    if side:
        site = site[:abs(depth)]
    while path:
        i, path = path
        site.append(i)
    return Redex(key[4], tuple(site), key[5])


def _assert_least_current(tree, d):
    """The zipper's least redex is the one the strategy picks on a full scan
    of ``d``, the tree it holds."""
    expected = find_redexes(d)
    assert _key_site(tree, tree.least()) == (
        _reference_select(d, expected) if expected else None)


def _replace_and_check(tree, path, new):
    """Replace through the driver's zipper; check its least redex against a
    full scan of the tree, zipped up aside so the zipper stays where it is.
    The zipper goes to ``path`` as to a redex relative to the deepest frame
    on both its way and ``path``."""
    here = [i for _, i, _ in tree.frames]
    k = 0
    while k < min(len(here), len(path)) and here[k] == path[k]:
        k += 1
    tree.go((0, 0, 0, (-1, k, _nested(path[k:])), "", ""))
    tree.replace(new)
    d = tree.focus
    for parent, i, _ in reversed(tree.frames):
        d = with_premise(parent, i, d)
    _assert_least_current(tree, d)
    return d


def test_index_follows_any_replacement():
    # the least redex must stay exact even when a replacement changes what
    # the node two levels above it sees (a reduction never does)
    base = assume(pl("x : p"))
    m1 = node("mon", pl("y : p"), base, assume(pr("x = y")), position=1)
    m2 = node("mon", pl("z : p"), m1, assume(pr("y = z")), position=1)
    d = m2
    tree = _Zipper(d)
    _assert_least_current(tree, d)
    assert [r.kind for r in find_redexes(d)] == ["RedundantMon"]
    d = _replace_and_check(tree, (0, 0), assume(pl("x : G p")))
    assert [r.kind for r in find_redexes(d)] == ["UnrestrictedMon"]
    d = _replace_and_check(tree, (0, 0), base)
    d = _replace_and_check(tree, (0, 1), assume(pr("x = w")))
    # the same object again, and a new node over the old premises
    d = _replace_and_check(tree, (0,), d.at((0,)))
    d = _replace_and_check(tree, (), replace(d, conclusion=pl("w : p")))
    d = _replace_and_check(tree, (), g_detour())

    # random grafts of subtrees whose conclusions have the same shape: as
    # they are, in place of one premise of the old node (the others stay
    # at their paths), or over the old node
    rng = random.Random(5)
    gen = DerivationGen(rng)
    trees = [gen.derivation() for _ in range(30)]
    shape = lambda t: type(expand(t.conclusion))
    parts = [t for d in trees for _, t in d.walk()]
    for d in trees:
        tree = _Zipper(d)
        for _ in range(12):
            path, old = rng.choice(list(d.walk()))
            new = rng.choice([t for t in parts if shape(t) is shape(old)])
            how = rng.randrange(4)
            if how == 1 and old.premises:
                i = rng.randrange(len(old.premises))
                p = old.premises[i]
                swap = rng.choice([t for t in parts if shape(t) is shape(p)])
                new = with_premise(old, i, swap)
            elif how == 2:
                new = old
            elif how == 3:
                new = node("mon", old.conclusion, old, assume(pr("x = x")))
            d = _replace_and_check(tree, path, new)


def test_steps_test_only_the_nodes_they_create(monkeypatch):
    # a mon-disorder step keeps the chain below it where it was, and a
    # falsum collapse moves the chain below it up a level: either step
    # tests the nodes it builds and the two above them, not the chain again
    calls = {"_redex_kinds": 0, "_mon_class": 0}
    for name in calls:
        def counted(*args, real=getattr(nz, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(nz, name, counted)
    for d, steps in ((_mon_chain(64, True), 590), (_falsum_chain(64), 63)):
        calls.update(dict.fromkeys(calls, 0))
        trace = []
        nf = normalize(d, trace=trace)
        assert is_normal(nf).normal
        assert len(trace) == steps
        assert calls["_redex_kinds"] <= 8 * len(trace)
        # the class is memoized on the node, and the frames ``replace``
        # rebuilds keep it: 1272 calls in the mon chain's 590 steps, 2356
        # when they lose it and 4653 without the memo
        assert calls["_mon_class"] <= 2.5 * len(trace)


def test_deep_trees_normalize():
    # no step walks the chain it moves or keeps: 3000 and 12 000 nested
    # detours collapse to their innermost leaf, 3000 falsum rules to the
    # outermost rule over the innermost leaf
    for k in (3000, 12000):
        d = _nested_imp(k, ["q"], False)
        assert normalize(d) == assume(pl("x : p"), 1)
    nf = normalize(_falsum_chain(3000))
    assert nf.node_count() == 2


def test_check_and_normalize_build_no_root_paths(monkeypatch):
    # the checker names nodes by number and the driver keeps its keys
    # relative; neither walks the tree with root paths
    from tenseproof.corpus import corpus_entries
    from tenseproof.derivation import Derivation
    trees = [e.derivation for e in corpus_entries()] + _family_trees()
    bad = node("imp_i", pl("x : p -> p"), assume(pl("x : q"), 2), discharges={2})
    reports = [check(d, KL) for d in trees + [bad]]
    normal = [normalize(d) for d in trees]

    def walk(*args):
        raise AssertionError("Derivation.walk called")
    monkeypatch.setattr(Derivation, "walk", walk)
    assert [check(d, KL) for d in trees + [bad]] == reports
    assert not reports[-1].ok
    assert [normalize(d) for d in trees] == normal


# ---------------------------------------------------------------------------
# Tree surgery: share what does not change, else as the rebuilding versions

def _rebuilt_map_leaves(d, fn):
    if d.is_assumption():
        return fn(d)
    return replace(d, premises=tuple(_rebuilt_map_leaves(p, fn) for p in d.premises))


def _rebuilt_substitute(d, new, old):
    return replace(d, conclusion=substitute_label(d.conclusion, new, old),
                   fresh=new if d.fresh == old else d.fresh,
                   premises=tuple(_rebuilt_substitute(p, new, old)
                                  for p in d.premises))


def _rebuilt_refresh(d, gen):
    internal = {}
    for _, n in d.walk():
        for m in n.discharges:
            if m not in internal:
                internal[m] = gen()

    def rewrite(n):
        return replace(n, premises=tuple(rewrite(p) for p in n.premises),
                       marker=internal.get(n.marker, n.marker),
                       discharges=frozenset(internal.get(m, m) for m in n.discharges))
    return rewrite(d)


def _rebuilt_graft(d, markers, replacement, gen):
    """``d`` with its leaves of ``markers``, in pre-order, replaced by
    ``replacement`` itself and then by refreshed copies of it."""
    placed = []

    def place(leaf):
        if leaf.marker not in markers:
            return leaf
        placed.append(leaf)
        return replacement if len(placed) == 1 else _rebuilt_refresh(replacement, gen)
    return _rebuilt_map_leaves(d, place)


def _rebuilt_rename_colliding(t, avoid, lgen):
    if t.fresh is not None and t.fresh in avoid:
        t = _rebuilt_substitute(t, lgen(), t.fresh)
    return replace(t, premises=tuple(_rebuilt_rename_colliding(p, avoid, lgen)
                                     for p in t.premises))


def _probed_labels(d):
    """A copy of ``all_labels`` as it read a relational formula before it
    went through ``post_order``: every string ``var``, ``x`` or ``y`` of
    every node reached through ``left``, ``right`` and ``body``."""
    out = set()
    for n in d.nodes():
        c = n.conclusion
        if isinstance(c, Lwff):
            out.add(c.label)
            stack = []
        else:
            stack = [c]
        while stack:
            e = stack.pop()
            for attr in ("var", "x", "y"):
                v = getattr(e, attr, None)
                if isinstance(v, str):
                    out.add(v)
            for attr in ("left", "right", "body"):
                v = getattr(e, attr, None)
                if v is not None and not isinstance(v, str):
                    stack.append(v)
        if n.fresh:
            out.add(n.fresh)
    return out


def test_all_labels_reads_every_label():
    # random trees, and mons from a random rwff through an equality to its
    # full substitution, before and after restrict opens their binders
    from helpers import random_rwff
    from tenseproof.syntax import Eq, labels_of
    rng = random.Random(23)
    gen = DerivationGen(rng)
    trees = [gen.derivation() for _ in range(100)]
    while len(trees) < 300:
        rho = random_rwff(rng, rng.randrange(1, 5))
        free = labels_of(rho)
        a, b = rng.sample(sorted(free | {"u1", "w1"}), 2)
        if a in free:
            mon = node("mon", substitute_label(expand(rho), b, a),
                       assume(rho, 1), assume(Eq(a, b), 2))
            trees += [mon, restrict(mon)]
    for d in trees:
        assert all_labels(d) == _probed_labels(d)


def test_surgery_shares_unchanged_subtrees():
    gen = DerivationGen(random.Random(31))
    changed = 0
    for _ in range(120):
        d = gen.derivation()
        markers, labels = all_markers(d), all_labels(d)
        unused = max(markers, default=0) + 1
        assert map_leaves(d, lambda leaf: leaf) is d
        # the replacement is a new object: the first copy is the object
        # itself, which must occur nowhere else in the result
        r = _rebuilt_refresh(d, MarkerGen(markers))
        avoid = markers | all_markers(r)
        assert graft(d, {}) is d
        assert graft(d, {unused: dv.copies(r, MarkerGen(avoid))}) is d
        assert dv.relabel(d, {"absent": "v0"}, lambda label: None) is d
        assert dv.relabel(d, {}, lambda label: None) is d
        if not any(n.discharges for _, n in d.walk()):
            assert refresh_internal_markers(d, MarkerGen(markers)) is d

        # one marker at a time, then two adjacent ones sharing one iterator
        ms = sorted(markers)
        for group in [(m,) for m in ms] + list(zip(ms, ms[1:])):
            g1, g2 = MarkerGen(avoid), MarkerGen(avoid)
            out = graft(d, dict.fromkeys(group, dv.copies(r, g1)))
            assert out == _rebuilt_graft(d, group, r, g2) and g1.next == g2.next
            first = next((path for path, n in d.walk()
                          if n.is_assumption() and n.marker in group), None)
            assert first is None or out.at(first) is r
            for p, q in zip(d.premises, out.premises):
                if all(n.marker not in group for _, n in p.walk()):
                    assert q is p
        for y in sorted(labels):
            out = dv.relabel(d, {y: "v0"}, lambda label: None)
            assert out == _rebuilt_substitute(d, "v0", y)
            changed += out is not d
        g1, g2 = MarkerGen(markers), MarkerGen(markers)
        assert refresh_internal_markers(d, g1) == _rebuilt_refresh(d, g2)
        assert g1.next == g2.next
        l1, l2 = LabelGen(labels), LabelGen(labels)
        assert (dv.relabel(d, {}, lambda label: l1() if label in labels else None)
                == _rebuilt_rename_colliding(d, labels, l2))
        assert l1() == l2()
    assert changed > 100


def test_relabel_agrees_with_rename_then_substitute():
    # one pass against rename_freshes followed by substitute_label_deriv:
    # on the body of each node with a fresh label, as a detour reduction
    # substitutes in it, and on whole trees, as canonical_form renames them
    import label_reference as ref
    rng = random.Random(59)
    gen = DerivationGen(rng)
    compared = renamed = 0
    for _ in range(1000):
        d = gen.derivation()
        labels = sorted(all_labels(d))
        for n in d.nodes():
            if n.fresh is None:
                continue
            body, v, w = n.premises[0], n.fresh, rng.choice(labels)
            avoid = {v, w, *rng.sample(labels, rng.randint(0, len(labels)))}
            l1, l2 = LabelGen(labels), LabelGen(labels)
            new = dv.relabel(body, {v: w},
                             lambda label: l1() if label in avoid else None)
            old = ref.substitute_label_deriv(ref.rename_freshes(
                body, lambda label: l2() if label in avoid else None), w, v)
            assert canonical_form(new) == canonical_form(old)
            assert [t.fresh for t in new.nodes()] == [t.fresh for t in old.nodes()]
            compared += 1
            renamed += l1.i > 0
        c1, c2 = itertools.count(1), itertools.count(1)
        new = dv.relabel(d, {}, lambda label: f"f{next(c1)}")
        old = ref.rename_freshes(d, lambda label: f"f{next(c2)}")
        assert canonical_form(new) == canonical_form(old)
        assert [t.fresh for t in new.nodes()] == [t.fresh for t in old.nodes()]
    assert compared > 150 and renamed > 30


def _g_reductio(k):
    """A reductio on ``x : G^k p`` from an open ``x : false``: its normal
    form opens the k operators by k nested ``g_i``."""
    f = Atom("p")
    for _ in range(k):
        f = G(f)
    return node("raa_bot", Lwff("x", f), assume(Lwff("x", F)))


def _lines_run(fn, *args) -> int:
    """The lines of the library that ``fn(*args)`` runs: a deterministic
    count of its work that also sees the loops inside a call."""
    package = os.path.dirname(nz.__file__)
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if not frame.f_code.co_filename.startswith(package):
            return None
        count += event == "line"
        return trace
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def test_label_passes_grow_linearly(monkeypatch):
    # canonical_form and tracks of the normal form of a reductio on
    # x : G^k p: the formula substitutions they make, and the lines of the
    # library they run, grow at most x2.3 as k doubles
    from tenseproof.tracks import tracks
    calls = []
    real = dv.substitute_labels
    monkeypatch.setattr(dv, "substitute_labels",
                        lambda *args: calls.append(1) or real(*args))
    counts = {}
    for k in (500, 1000):
        nf = normalize(_g_reductio(k))
        for fn in (canonical_form, tracks):
            calls.clear()
            counts[fn, k] = (_lines_run(fn, nf), len(calls))
    assert counts[canonical_form, 500][1] >= 500     # one per node
    for fn in (canonical_form, tracks):
        for small, large in zip(counts[fn, 500], counts[fn, 1000]):
            assert large <= 2.3 * small, fn.__name__


def _same_tree(a, b):
    """``a == b`` without recursion."""
    fields = lambda n: (n.rule, n.conclusion, n.marker, n.discharges, n.fresh,
                        n.position, len(n.premises))
    walk_a, walk_b = list(a.walk()), list(b.walk())
    return len(walk_a) == len(walk_b) and all(
        pa == pb and fields(x) == fields(y)
        for (pa, x), (pb, y) in zip(walk_a, walk_b))


def _same_order(d):
    """``d.nodes()`` yields the very nodes of ``d.walk()``, in its order."""
    walked = [n for _, n in d.walk()]
    listed = list(d.nodes())
    return len(listed) == len(walked) and all(
        a is b for a, b in zip(listed, walked))


def test_nodes_follow_walk():
    gen = DerivationGen(random.Random(43))
    for _ in range(150):
        d = gen.derivation()
        assert _same_order(d)
        assert d.node_count() == len(list(d.walk()))


def test_deep_tree_traversal():
    # 3000 nested detours, each through the minor premise of the next
    d = _nested_imp(3000, ["q"], False)
    assert sum(1 for _ in d.walk()) == 3 * 3000 + 1
    assert _same_order(d)
    assert len(find_redexes(d)) == 3000
    assert not is_normal(d).normal
    assert all_labels(d) == {"x"}
    assert all_markers(d) == set(range(1, 3002))
    assert _same_tree(from_json(to_json(d)), d)
    canonical = canonical_form(d)
    assert _same_tree(canonical_form(canonical), canonical)
    assert all_markers(canonical) == set(range(1, 3002))
    assert dv.relabel(d, {"w": "y"}, lambda label: None) is d
    assert all_labels(dv.relabel(d, {"x": "y"}, lambda label: None)) == {"y"}
    replacement = g_detour()
    grafted = graft(d, {1: dv.copies(replacement, MarkerGen(all_markers(d)))})
    assert grafted.node_count() == d.node_count() + replacement.node_count() - 1
    assert grafted.premises[0] is d.premises[0]
    assert grafted.at((1,) * 3000) is replacement


def _many_marker_reductio(k):
    """A reductio on ``x : p -> q`` discharging k markers, one refutation
    leaf each, under k - 1 nested reductios that discharge nothing."""
    c = pl("x : p -> q")
    neg, bottom = Lwff("x", Implies(c.formula, F)), Lwff("x", F)
    d = node("imp_e", bottom, assume(neg, 1), assume(c))
    for m in range(2, k + 1):
        d = node("imp_e", bottom, assume(neg, m), node("raa_bot", c, d))
    return node("raa_bot", c, d, discharges=range(1, k + 1))


def test_reductio_grafts_all_its_markers_in_one_pass(monkeypatch):
    # one graft pass puts the refutation at all 50 discharged leaves, and
    # the nested reductios, which discharge nothing, walk nothing
    calls = []

    def counted(d, fn, real=dv.map_leaves):
        calls.append(d)
        return real(d, fn)
    monkeypatch.setattr(dv, "map_leaves", counted)
    raa = _many_marker_reductio(50)
    out = restrict(raa)
    assert len(calls) == 1
    assert check(out, KL).ok
    assert open_assumptions(out) == open_assumptions(raa)


def test_detour_places_its_minor_premise_itself_first():
    # the body uses the hypothesis twice; the minor premise discharges a
    # marker, so the second copy is refreshed and the first is the object
    minor = node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 5),
                 discharges={5})
    hyp = assume(pl("x : p -> p"), 1)
    body = node("imp_e", pl("x : p"), hyp,
                node("imp_e", pl("x : p"), hyp, assume(pl("x : p"), 9)))
    intro = node("imp_i", pl("x : (p -> p) -> p"), body, discharges={1})
    d = node("imp_e", pl("x : p"), intro, minor)
    out = reduce_step(d, find_redexes(d)[0])
    assert sum(n is minor for n in out.nodes()) == 1
    assert sum(canonical_form(n) == canonical_form(minor)
               for n in out.nodes()) == 2
    assert check(out, KL).ok
    assert open_assumptions(out) == open_assumptions(d)


# ---------------------------------------------------------------------------
# Setup passes: the avoid sets are read on first use, and a tree with no
# derived node is not expanded

def _inner_fresh_g_detour():
    """A ``g`` detour onto ``z`` whose body holds an inner ``g_i`` with the
    fresh label ``z``: the substitution would capture it, so it is renamed."""
    a = node("g_e", pl("y : G p"), assume(pl("x : G G p"), 2),
             assume(pr("x < y"), 1))
    inner = node("g_i", pl("y : G p"),
                 node("g_e", pl("z : p"), a, assume(pr("y < z"), 3)),
                 discharges={3}, fresh="z")
    outer = node("g_i", pl("x : G G p"), inner, discharges={1}, fresh="y")
    return node("g_e", pl("z : G p"), outer, assume(pr("x < z")))


def _differential_trees():
    """Fresh trees of every shape the driver's steps take: the corpus, the
    derived rules, every chain family and seeded random trees."""
    from tenseproof.corpus import corpus_entries
    from test_kernel import CASE_TREES, DERIVED_TREES, _f_chain, _or_chain
    trees = [e.derivation for e in corpus_entries()]
    trees += [tree() for _, tree in DERIVED_TREES + CASE_TREES]
    trees += [_nested_imp(k, ["q", "q -> q", "G q"], body)
              for k in (3, 12) for body in (True, False)]
    trees += [_falsum_chain(k) for k in (5, 21)]
    trees += [_mon_chain(k, dis) for k in (4, 17) for dis in (True, False)]
    trees += [chain(k, shared) for chain in (_f_chain, _or_chain)
              for k in (3, 12) for shared in (False, True)]
    trees += [g_detour(), _inner_fresh_g_detour(), _g_reductio(6)]
    trees += [_nested_temporal(k, op) for k in (3, 9) for op in ("g", "h")]
    gen = DerivationGen(random.Random(32))
    return trees + [gen.derivation() for _ in range(100)]


def _outputs(d):
    """The raw normal form, its trace and the raw restriction of ``d``."""
    trace = []
    nf = normalize(d, trace=trace)
    return dv.dumps(nf), trace, dv.dumps(restrict(d))


def test_avoid_sets_read_on_first_use_change_no_output():
    # raw marker numbers and fresh labels included: each generator starts
    # from the set it read up front, and each detour avoids the same labels.
    # The reference makes every generator and avoid set up front.
    outputs = [_outputs(d) for d in _differential_trees()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nz, "_lazy", lambda make: make())
        expected = [_outputs(d) for d in _differential_trees()]
    assert len(outputs) > 150
    for got, want in zip(outputs, expected):
        assert got == want


def test_normalizing_without_minting_reads_no_avoid_set(monkeypatch):
    calls = {"all_markers": 0, "all_labels": 0, "with_premises": 0}
    kn = importlib.import_module("tenseproof.kernel")
    for module, name in ((nz, "all_markers"), (nz, "all_labels"),
                         (kn, "all_markers"), (kn, "with_premises")):
        def counted(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for d in (_nested_imp(20, ["q", "G q"], True), _nested_imp(20, ["q"], False),
              _falsum_chain(30), _mon_chain(30, True), g_detour()):
        assert check(d, KL).ok
        assert expand_derived(d) is d
        nf = normalize(d)
        assert is_normal(nf).normal and check(nf, KL).ok
        assert calls == dict.fromkeys(calls, 0)

    # an f_e node still expands, and its expansion checks
    from test_kernel import _f_chain
    d = _f_chain(4)
    expanded = expand_derived(d)
    assert expanded is not d and check(expanded, KL).ok
    assert calls["all_markers"] == 1 and calls["with_premises"] > 0

    # an inner fresh label equal to the one substituted is still renamed:
    # the detour reads its minor premise's labels, the generator the tree's
    calls.update(dict.fromkeys(calls, 0))
    d = _inner_fresh_g_detour()
    assert check(d, KL).ok
    nf = normalize(d)
    assert check(nf, KL).ok and is_normal(nf).normal
    assert [n.fresh for n in nf.nodes() if n.fresh] == ["w1"]
    assert calls["all_labels"] == 2
