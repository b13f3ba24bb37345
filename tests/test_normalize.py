import random

import pytest

from helpers import DerivationGen
from tenseproof.derivation import (
    all_labels, all_markers, assume, node, replace_at,
)
from tenseproof.kernel import _expand_entity, check, expand_derived, open_assumptions
from tenseproof.normalize import (
    NonTermination, RedexStale, _RedexIndex, canonical_form, find_redexes,
    is_normal, normalize, reduce_step, restrict,
)
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import KL
from tenseproof.syntax import Empty, core_eq, grade

E = Empty()


def g_detour():
    lt1 = assume(pr("x < y"), 1)
    gp = assume(pl("x : G p"), 2)
    ge_in = node("g_e", pl("y : p"), gp, lt1)
    gi = node("g_i", pl("x : G p"), ge_in, discharges={1}, fresh="y")
    return node("g_e", pl("z : p"), gi, assume(pr("x < z")))


# ---------------------------------------------------------------------------
# restrict

def test_restrict_raa_implication_case():
    leaf1 = assume(pl("x : (a -> b) -> false"), 1)
    body = node("imp_e", pl("x : false"), leaf1, assume(pl("x : a -> b"), 9))
    raa = node("raa_bot", pl("x : a -> b"), body, discharges={1})
    out = restrict(raa)
    assert check(out, KL).ok
    assert out.conclusion == raa.conclusion
    # the rebuilt tree ends with an implication introduction over a
    # restricted refutation, per the standard transformation
    assert out.rule == "imp_i"
    assert out.premises[0].rule == "raa_bot"
    for _, n in out.walk():
        if n.rule in ("raa_bot", "raa_empty"):
            from tenseproof.syntax import is_atomic
            assert is_atomic(n.conclusion)
    assert open_assumptions(out) == open_assumptions(raa)


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


def test_restrict_raa_empty_never_concludes_empty():
    leaf = assume(pr("empty => empty"), 1)
    body = node("rimp_e", E, leaf, assume(E, 2))
    raa = node("raa_empty", E, body, discharges={1})
    assert check(raa, KL).ok
    out = restrict(raa)
    assert check(out, KL).ok
    for _, n in out.walk():
        if n.rule == "raa_empty":
            assert not core_eq(n.conclusion, E)
    assert core_eq(out.conclusion, E)


def test_restrict_raa_universal_case():
    leaf = assume(pr("(forall v. !(v < v)) => empty"), 1)
    body = node("rimp_e", E, leaf, assume(pr("forall v. !(v < v)"), 2))
    raa = node("raa_empty", pr("forall v. !(v < v)"), body, discharges={1})
    assert check(raa, KL).ok
    out = restrict(raa)
    assert check(out, KL).ok
    assert out.rule == "all_i"
    assert core_eq(out.conclusion, raa.conclusion)


def test_restrict_nonatomic_mon_goes_positional():
    monG = node("mon", pl("y : G p"), assume(pl("x : G p")), assume(pr("x = y")))
    out = restrict(monG)
    rep = check(out, KL)
    assert rep.ok
    assert core_eq(out.conclusion, pl("y : G p"))
    for _, n in out.walk():
        if n.rule == "mon":
            from tenseproof.normalize import _mon_class
            kind, _ = _mon_class(n)
            assert kind == "ok"
    opens = {c for c in open_assumptions(out)}
    assert opens == {pl("x : G p"), pr("x = y")}


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
    # quantifiers and the immediate-precedence sugar
    from helpers import random_rwff
    from tenseproof.syntax import Eq, expand, labels_of, substitute_label
    rng = random.Random(42)
    tested = 0
    for _ in range(120):
        rho = random_rwff(rng, 3)
        if "x" not in labels_of(rho):
            continue
        target = substitute_label(expand(rho), "y", "x")
        m = node("mon", target, assume(rho), assume(pr("x = y")))
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
    assert not report.normal
    assert report.redexes[0].kind == "MaximalFormula"
    assert is_normal(normalize(d)).normal


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
# The indexed driver against a full-rescan reference

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


def test_driver_matches_reference_on_families():
    trees = [_nested_imp(k, ["q", "q -> q", "G q", "q"], body)
             for k in (1, 4, 9) for body in (True, False)]
    trees += [_nested_temporal(k, op) for k in (1, 5) for op in ("g", "h")]
    trees += [_mon_chain(k, dis) for k in (3, 8) for dis in (True, False)]
    trees += [_falsum_chain(k) for k in (4, 11, 20)]
    for d in trees:
        assert check(d, KL).ok
        assert _assert_same_as_reference(d) > 0


def test_driver_matches_reference_on_random_trees():
    gen = DerivationGen(random.Random(99))
    steps = sum(_assert_same_as_reference(gen.derivation()) for _ in range(200))
    assert steps > 200


def _assert_index_current(index, d):
    expected = find_redexes(d)
    assert {r for rs in index.live.values() for r in rs} == set(expected)
    assert index.sites == sorted({r.path for r in expected})
    first = index.first()
    if expected:
        assert first == _reference_select(d, expected)
    else:
        assert first is None


def _replace_and_check(index, d, path, new):
    d = replace_at(d, path, new)
    index.replaced(d, path, new)
    _assert_index_current(index, d)
    return d


def test_index_follows_any_replacement():
    # the index must stay exact even when a replacement changes what the
    # node two levels above it sees (a reduction never does)
    base = assume(pl("x : p"))
    m1 = node("mon", pl("y : p"), base, assume(pr("x = y")), position=1)
    m2 = node("mon", pl("z : p"), m1, assume(pr("y = z")), position=1)
    d = m2
    index = _RedexIndex(d)
    _assert_index_current(index, d)
    assert [r.kind for r in find_redexes(d)] == ["RedundantMon"]
    d = _replace_and_check(index, d, (0, 0), assume(pl("x : G p")))
    assert [r.kind for r in find_redexes(d)] == ["UnrestrictedMon"]
    d = _replace_and_check(index, d, (0, 0), base)
    d = _replace_and_check(index, d, (0, 1), assume(pr("x = w")))
    d = _replace_and_check(index, d, (), g_detour())

    # random grafts of subtrees whose conclusions have the same shape
    rng = random.Random(5)
    gen = DerivationGen(rng)
    trees = [gen.derivation() for _ in range(30)]
    shape = lambda t: type(_expand_entity(t.conclusion))
    parts = [t for d in trees for _, t in d.walk()]
    for d in trees:
        index = _RedexIndex(d)
        for _ in range(8):
            path, old = rng.choice(list(d.walk()))
            new = rng.choice([t for t in parts if shape(t) is shape(old)])
            d = _replace_and_check(index, d, path, new)


def test_deep_tree_traversal():
    # 3000 nested detours, each through the minor premise of the next
    a = pl("x : p")
    d = assume(a, 1)
    for i in range(3000):
        m = i + 2
        d = node("imp_e", a, node("imp_i", pl("x : p -> p"), assume(a, m),
                                  discharges={m}), d)
    assert sum(1 for _ in d.walk()) == 3 * 3000 + 1
    assert len(find_redexes(d)) == 3000
    assert not is_normal(d).normal
    assert all_labels(d) == {"x"}
    assert all_markers(d) == set(range(1, 3002))
