"""Normalization: restriction of falsum/monotonicity rules, detour
elimination, ordering and composition of monotonicity chains, and removal of
redundant falsum chains.

The engine is a per-node redex test plus one-step reducers, run by one
driver.  ``restrict`` runs only the restriction redexes; ``normalize`` runs
everything to a fixpoint under a deterministic strategy: restriction sites
first, then the maximal formula of highest grade having no equally-high
maximal formula above it, then chain permutations, compositions and falsum
collapses.

The reductions are local, and so is the driver's bookkeeping.  A node's
redexes read only the node, its premises and the premises of its first
premise (a dependency radius of 2).  So after a step replaces the subtree at
path ``p``, only that subtree and the nodes at ``p[:-1]`` and ``p[:-2]`` are
scanned again; the redex index keyed by path keeps everything else.
``find_redexes`` and ``reduce_step`` stay as the full-scan public API.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import os
from dataclasses import dataclass, replace

from .derivation import (
    Derivation, MarkerGen, all_labels, all_markers, assume, graft, node,
    refresh_internal_markers, replace_at, substitute_label_deriv,
)
from .kernel import (
    _expand_entity, _xf, match_instantiation, mon_positions, replace_position,
)
from .rules import AXIOMS, DETOUR_PAIRS, FALSUM_RULES
from .syntax import (
    Atom, Empty, Eq, Falsum, Forall, G, H, Implies, LabelGen, Less, Lwff,
    Prec, RImplies, X, canon, core_eq, expand, grade, substitute_label,
)

F_ = Falsum()
E_ = Empty()

DEFAULT_STEP_BOUND = 10 ** 6


class RedexStale(Exception):
    """The redex no longer matches the tree it was found on."""


class NonTermination(RuntimeError):
    def __init__(self, steps: int):
        super().__init__(
            f"normalization exceeded the step bound after {steps} steps; "
            "this signals an implementation bug, not expected behavior")
        self.steps = steps


@dataclass(frozen=True)
class Redex:
    kind: str    # MaximalFormula | MonDisorder | RedundantFalsum |
                 # RedundantMon | UnrestrictedRAA | UnrestrictedMon
    path: tuple
    detail: str = ""


def step_bound() -> int:
    env = os.environ.get("TENSEPROOF_STEP_BOUND")
    return int(env) if env else DEFAULT_STEP_BOUND


# ---------------------------------------------------------------------------
# Mon classification

def _mon_class(n: Derivation):
    """Classify a mon node: ('ok', position) for a clean single-position
    application on an atomic major premise, else the restriction case."""
    p0 = n.premises[0].conclusion
    eq = expand(n.premises[1].conclusion)
    core0 = _expand_entity(p0)
    if isinstance(core0, Lwff) and isinstance(core0.formula, Falsum):
        return ("bot", None)
    if core_eq(p0, n.conclusion):
        return ("noop", None)
    atomic = (isinstance(core0, Lwff) and isinstance(core0.formula, (Atom, Falsum))) \
        or isinstance(core0, (Less, Eq, Empty))
    if not atomic:
        return ("nonatomic", None)
    positions = mon_positions(p0, eq, n.conclusion)
    if positions:
        return ("ok", positions[0])
    return ("multi", None)


def _mon_position(n: Derivation):
    kind, pos = _mon_class(n)
    return pos if kind == "ok" else None


# ---------------------------------------------------------------------------
# Redex search

def _node_redexes(n: Derivation, path: tuple) -> list:
    """The redexes at one node.  They read only the node, its premises and
    the premises of ``premises[0]``: the dependency radius is 2."""
    if not n.premises:
        return []
    out = []
    p0 = n.premises[0]

    if DETOUR_PAIRS.get(n.rule) == p0.rule:
        out.append(Redex("MaximalFormula", path, f"{p0.rule}/{n.rule}"))

    if n.rule == "raa_bot" and not isinstance(_xf(n.conclusion), (Atom, Falsum)):
        out.append(Redex("UnrestrictedRAA", path, "raa_bot"))
    if n.rule == "raa_empty":
        core = expand(n.conclusion)
        if isinstance(core, Empty) or not isinstance(core, (Less, Eq)):
            out.append(Redex("UnrestrictedRAA", path, "raa_empty"))

    if n.rule == "mon":
        kind, _ = _mon_class(n)
        if kind != "ok":
            out.append(Redex("UnrestrictedMon", path, kind))
        elif p0.rule == "mon":
            pu = _mon_position(p0)
            pl = _mon_position(n)
            if pu is not None and pl is not None:
                if pu == pl:
                    out.append(Redex("RedundantMon", path))
                elif pu == 2 and pl == 1:
                    out.append(Redex("MonDisorder", path))

    if n.rule in FALSUM_RULES and p0.rule in FALSUM_RULES:
        pair = f"{p0.rule};{n.rule}"
        if pair in ("raa_bot;raa_bot", "raa_bot;uf1", "uf1;uf2", "uf2;uf1"):
            out.append(Redex("RedundantFalsum", path, pair))
    return out


def find_redexes(d: Derivation) -> list:
    return [r for path, n in d.walk() for r in _node_redexes(n, path)]


# ---------------------------------------------------------------------------
# One-step reduction

def reduce_step(d: Derivation, r: Redex) -> Derivation:
    try:
        n = d.at(r.path)
    except IndexError:
        raise RedexStale(r) from None
    if r not in _node_redexes(n, r.path):
        raise RedexStale(r)
    new = _rewrite(n, r.kind, MarkerGen(all_markers(d)), LabelGen(all_labels(d)))
    return replace_at(d, r.path, new)


def _rewrite(n: Derivation, kind: str, mgen, lgen) -> Derivation:
    """The subtree that replaces redex site ``n``."""
    if kind == "MaximalFormula":
        return _reduce_detour(n, mgen, lgen)
    if kind == "MonDisorder":
        return _reduce_disorder(n, mgen)
    if kind == "RedundantMon":
        return _reduce_mon_pair(n, mgen)
    if kind == "RedundantFalsum":
        return _reduce_falsum(n, mgen)
    if kind == "UnrestrictedRAA":
        return _restrict_raa(n, mgen, lgen)
    if kind == "UnrestrictedMon":
        return _restrict_mon(n, mgen, lgen)
    raise ValueError(f"unknown redex kind {kind}")


def _override_conclusion(t: Derivation, conclusion) -> Derivation:
    """Keep the site's stated conclusion when the rebuilt subtree says the
    same thing with different surface spelling (never touch assumptions:
    their spelling is part of the open-assumption set)."""
    if t.conclusion == conclusion or t.is_assumption():
        return t
    return replace(t, conclusion=conclusion)


def _rename_colliding_freshes(t: Derivation, avoid: set, lgen) -> Derivation:
    if t.fresh is not None and t.fresh in avoid:
        t = substitute_label_deriv(t, lgen(), t.fresh)
    return replace(t, premises=tuple(
        _rename_colliding_freshes(p, avoid, lgen) for p in t.premises))


def _reduce_detour(n: Derivation, mgen, lgen) -> Derivation:
    intro = n.premises[0]
    body = intro.premises[0]
    markers = intro.discharges

    if n.rule in ("imp_e", "rimp_e"):
        minor = n.premises[1]
        result = body
        for m in sorted(markers):
            result = graft(result, m, minor, mgen)
        return _override_conclusion(result, n.conclusion)

    if n.rule in ("g_e", "h_e", "x_e"):
        minor = n.premises[1]
        y = intro.fresh
        z = n.conclusion.label
        # inner fresh labels equal to either end of the substitution would be
        # captured or merged by the textual renaming; give them new names
        body = _rename_colliding_freshes(body, {y, z} | all_labels(minor), lgen)
        body = substitute_label_deriv(body, z, y)
        for m in sorted(markers):
            body = graft(body, m, minor, mgen)
        return _override_conclusion(body, n.conclusion)

    if n.rule == "all_e":
        v = intro.fresh
        w = match_instantiation(expand(body.conclusion), v, n.conclusion)
        if w is None:
            # the instance label does not occur (vacuous quantifier)
            w = v
        body = _rename_colliding_freshes(body, {v, w}, lgen)
        body = substitute_label_deriv(body, w, v)
        return _override_conclusion(body, n.conclusion)

    raise RedexStale(n.rule)


def _reduce_disorder(n: Derivation, mgen) -> Derivation:
    upper = n.premises[0]
    base, e_upper = upper.premises
    e_lower = n.premises[1]
    eq_low = expand(e_lower.conclusion)
    mid = replace_position(_expand_entity(base.conclusion), 1, eq_low.y)
    new_upper = node("mon", mid, base, e_lower, position=1)
    return node("mon", n.conclusion, new_upper, e_upper, position=2)


def _reduce_mon_pair(n: Derivation, mgen) -> Derivation:
    upper = n.premises[0]
    base, e1 = upper.premises
    e2 = n.premises[1]
    pos = _mon_position(n)
    eq1 = expand(e1.conclusion)
    eq2 = expand(e2.conclusion)
    composed = node("mon", Eq(eq1.x, eq2.y), e1, e2, position=2)
    return node("mon", n.conclusion, base, composed, position=pos)


def _top_proof(y: str, mgen) -> Derivation:
    """Closed derivation of ``y : false -> false``."""
    k = mgen()
    return node("imp_i", Lwff(y, Implies(F_, F_)), assume(Lwff(y, F_), k),
                discharges={k})


def _strip_upper_falsum_discharges(f1: Derivation, mgen) -> Derivation:
    """Close the assumptions a collapsing falsum rule would have discharged
    by grafting the trivial proof of ``y : ~false`` at its leaves."""
    body = f1.premises[0]
    if f1.rule == "raa_bot":
        y = f1.conclusion.label
        for m in sorted(f1.discharges):
            body = graft(body, m, _top_proof(y, mgen), mgen)
    return body


def _reduce_falsum(n: Derivation, mgen) -> Derivation:
    f1 = n.premises[0]
    pair = f"{f1.rule};{n.rule}"
    if pair == "raa_bot;raa_bot":
        body = _strip_upper_falsum_discharges(f1, mgen)
        return replace(n, premises=(body,))
    if pair == "raa_bot;uf1":
        body = _strip_upper_falsum_discharges(f1, mgen)
        return replace(n, premises=(body,))
    if pair == "uf1;uf2":
        body = f1.premises[0]
        if body.conclusion.label == n.conclusion.label:
            return _override_conclusion(body, n.conclusion)
        return node("raa_bot", n.conclusion, body)
    if pair == "uf2;uf1":
        return _override_conclusion(f1.premises[0], n.conclusion)
    raise RedexStale(pair)


# ---------------------------------------------------------------------------
# Restriction of raa_bot / raa_empty / mon to atomic conclusions

def _restrict_raa(n: Derivation, mgen, lgen) -> Derivation:
    if n.rule == "raa_bot":
        return _restrict_raa_bot(n, mgen, lgen)
    return _restrict_raa_empty(n, mgen, lgen)


def _restrict_raa_bot(n: Derivation, mgen, lgen) -> Derivation:
    x = n.conclusion.label
    core = _xf(n.conclusion)
    body = n.premises[0]

    if isinstance(core, Implies):
        b, c = core.left, core.right
        m1, m2, m3 = mgen(), mgen(), mgen()
        inner = node("imp_e", Lwff(x, c),
                     assume(Lwff(x, Implies(b, c)), m1), assume(Lwff(x, b), m3))
        bot = node("imp_e", Lwff(x, F_), assume(Lwff(x, Implies(c, F_)), m2), inner)
        refutation = node("imp_i", Lwff(x, Implies(Implies(b, c), F_)), bot,
                          discharges={m1})
        for m in sorted(n.discharges):
            body = graft(body, m, refutation, mgen)
        out = node("raa_bot", Lwff(x, c), body, discharges={m2})
        return node("imp_i", n.conclusion, out, discharges={m3})

    if isinstance(core, (G, H, X)):
        b = core.body
        z = lgen()
        m1, m2, m3 = mgen(), mgen(), mgen()
        if isinstance(core, G):
            rel, e_rule, i_rule, op = Less(x, z), "g_e", "g_i", G
        elif isinstance(core, H):
            rel, e_rule, i_rule, op = Less(z, x), "h_e", "h_i", H
        else:
            rel, e_rule, i_rule, op = Prec(x, z), "x_e", "x_i", X
        inner = node(e_rule, Lwff(z, b), assume(Lwff(x, op(b)), m1),
                     assume(rel, m3))
        zbot = node("imp_e", Lwff(z, F_), assume(Lwff(z, Implies(b, F_)), m2), inner)
        xbot = node("raa_bot", Lwff(x, F_), zbot)
        refutation = node("imp_i", Lwff(x, Implies(op(b), F_)), xbot,
                          discharges={m1})
        for m in sorted(n.discharges):
            body = graft(body, m, refutation, mgen)
        out = node("raa_bot", Lwff(z, b), body, discharges={m2})
        return node(i_rule, n.conclusion, out, discharges={m3}, fresh=z)

    raise RedexStale("raa_bot")


def _restrict_raa_empty(n: Derivation, mgen, lgen) -> Derivation:
    core = expand(n.conclusion)
    body = n.premises[0]

    if isinstance(core, Empty):
        # close the discharged [empty => empty] leaves with the identity
        k = mgen()
        identity = node("rimp_i", RImplies(E_, E_), assume(E_, k), discharges={k})
        for m in sorted(n.discharges):
            body = graft(body, m, identity, mgen)
        return _override_conclusion(body, n.conclusion)

    if isinstance(core, RImplies):
        b, c = core.left, core.right
        m1, m2, m3 = mgen(), mgen(), mgen()
        inner = node("rimp_e", c, assume(RImplies(b, c), m1), assume(b, m3))
        bot = node("rimp_e", E_, assume(RImplies(c, E_), m2), inner)
        refutation = node("rimp_i", RImplies(RImplies(b, c), E_), bot,
                          discharges={m1})
        for m in sorted(n.discharges):
            body = graft(body, m, refutation, mgen)
        out = node("raa_empty", c, body, discharges={m2})
        return node("rimp_i", n.conclusion, out, discharges={m3})

    if isinstance(core, Forall):
        v2 = lgen()
        inst = substitute_label(core.body, v2, core.var)
        m1, m2 = mgen(), mgen()
        inner = node("all_e", inst, assume(core, m2))
        bot = node("rimp_e", E_, assume(RImplies(inst, E_), m1), inner)
        refutation = node("rimp_i", RImplies(core, E_), bot, discharges={m2})
        for m in sorted(n.discharges):
            body = graft(body, m, refutation, mgen)
        out = node("raa_empty", inst, body, discharges={m1})
        return node("all_i", n.conclusion, out, fresh=v2)

    raise RedexStale("raa_empty")


# ---------------------------------------------------------------------------
# Mon restriction: positional transport through arbitrary formulas

class _EqSupply:
    """Hand out usable copies of the equality subderivation: the original
    first, then marker-refreshed copies."""

    def __init__(self, eqd: Derivation, mgen):
        self.eqd = eqd
        self.mgen = mgen
        self.used = False

    def __call__(self) -> Derivation:
        if not self.used:
            self.used = True
            return self.eqd
        return refresh_internal_markers(self.eqd, self.mgen)


class _LazySymSupply:
    """Like ``_EqSupply`` for the symmetric equality, but the underlying
    derivation is only built on first use."""

    def __init__(self, eq_supply: _EqSupply, a: str, b: str, mgen):
        self.eq_supply = eq_supply
        self.a, self.b = a, b
        self.mgen = mgen
        self.built: Derivation | None = None

    def __call__(self) -> Derivation:
        if self.built is None:
            self.built = sym_deriv(self.eq_supply, self.a, self.b, self.mgen)
            return self.built
        return refresh_internal_markers(self.built, self.mgen)


def sym_deriv(eq_supply: _EqSupply, a: str, b: str, mgen) -> Derivation:
    """Derive ``b = a`` from a derivation of ``a = b`` using connectedness
    and irreflexivity (restriction-clean: all new mons are positional)."""
    conn = node("conn", AXIOMS["conn"])
    tpl = AXIOMS["conn"]
    inner1 = substitute_label(tpl.body, b, tpl.var)
    t1 = node("all_e", inner1, conn)
    inner2 = substitute_label(inner1.body, a, inner1.var)
    t2 = node("all_e", inner2, t1)

    irr = AXIOMS["irrefl_lt"]
    irr_inst = substitute_label(irr.body, b, irr.var)

    k1 = mgen()
    u1 = node("mon", Less(b, b), assume(Less(b, a), k1), eq_supply(), position=2)
    i1 = node("all_e", irr_inst, node("irrefl_lt", irr))
    u2 = node("rimp_e", E_, i1, u1)
    n1 = node("rimp_i", RImplies(Less(b, a), E_), u2, discharges={k1})

    k2 = mgen()
    n2 = node("rimp_e", expand(inner2).right, t2, n1)
    n3 = node("rimp_e", Less(a, b), n2, assume(RImplies(Eq(b, a), E_), k2))
    u3 = node("mon", Less(b, b), n3, eq_supply(), position=1)
    i2 = node("all_e", irr_inst, node("irrefl_lt", irr))
    u4 = node("rimp_e", E_, i2, u3)
    return node("raa_empty", Eq(b, a), u4, discharges={k2})


def occurrences_of(core, a: str) -> frozenset:
    """Paths of the free occurrences of label ``a`` in a core rwff."""
    if isinstance(core, (Less, Eq)):
        out = set()
        if core.x == a:
            out.add((1,))
        if core.y == a:
            out.add((2,))
        return frozenset(out)
    if isinstance(core, Empty):
        return frozenset()
    if isinstance(core, RImplies):
        return frozenset({("L",) + p for p in occurrences_of(core.left, a)}
                         | {("R",) + p for p in occurrences_of(core.right, a)})
    if isinstance(core, Forall):
        if core.var == a:
            return frozenset()
        return frozenset({("B",) + p for p in occurrences_of(core.body, a)})
    raise TypeError(f"not a core rwff: {core!r}")


def masked_subst(core, b: str, occs: frozenset, avoid):
    """Replace exactly the addressed positions by ``b``."""
    if not occs:
        return core
    if isinstance(core, (Less, Eq)):
        out = core
        for (p,) in occs:
            out = replace_position(out, p, b)
        return out
    if isinstance(core, RImplies):
        left = masked_subst(core.left, b, frozenset(p[1:] for p in occs if p[0] == "L"), avoid)
        right = masked_subst(core.right, b, frozenset(p[1:] for p in occs if p[0] == "R"), avoid)
        return RImplies(left, right)
    if isinstance(core, Forall):
        body_occs = frozenset(p[1:] for p in occs if p[0] == "B")
        var, body = core.var, core.body
        if var == b:
            from .syntax import fresh_label
            var2 = fresh_label(set(avoid) | {b}, base="u")
            body = substitute_label(body, var2, var)
            var = var2
        return Forall(var, masked_subst(body, b, body_occs, avoid))
    raise TypeError(f"not a core rwff: {core!r}")


def _transport(pi: Derivation, a: str, b: str, eq_supply, occs, mgen, lgen,
               sym_supply):
    """Build a derivation replacing the addressed ``a``-occurrences of the
    conclusion of ``pi`` by ``b``, all monotonicity uses atomic."""
    concl = pi.conclusion

    if isinstance(concl, Lwff):
        if concl.label != a or not occs:
            return pi
        formula = _xf(concl)
        if isinstance(formula, (Atom, Falsum)):
            return node("mon", Lwff(b, concl.formula), pi, eq_supply(), position=1)
        if isinstance(formula, Implies):
            fa, fb = formula.left, formula.right
            m = mgen()
            leaf = assume(Lwff(b, fa), m)
            back = _transport(leaf, b, a, sym_supply, frozenset({("F",)}),
                              mgen, lgen, eq_supply)
            app = node("imp_e", Lwff(a, fb), pi, back)
            fwd = _transport(app, a, b, eq_supply, frozenset({("F",)}),
                             mgen, lgen, sym_supply)
            return node("imp_i", Lwff(b, formula), fwd, discharges={m})
        if isinstance(formula, (G, H)):
            z = lgen()
            m = mgen()
            if isinstance(formula, G):
                leaf = assume(Less(b, z), m)
                lt = node("mon", Less(a, z), leaf, sym_supply(), position=1)
                inner = node("g_e", Lwff(z, formula.body), pi, lt)
                return node("g_i", Lwff(b, formula), inner, discharges={m}, fresh=z)
            leaf = assume(Less(z, b), m)
            lt = node("mon", Less(z, a), leaf, sym_supply(), position=2)
            inner = node("h_e", Lwff(z, formula.body), pi, lt)
            return node("h_i", Lwff(b, formula), inner, discharges={m}, fresh=z)
        if isinstance(formula, X):
            z = lgen()
            m = mgen()
            prec_b = expand(Prec(b, z))
            leaf = assume(prec_b, m)
            occ = occurrences_of(prec_b, b)
            prec_a = _transport(leaf, b, a, sym_supply, occ, mgen, lgen, eq_supply)
            inner = node("x_e", Lwff(z, formula.body), pi, prec_a)
            return node("x_i", Lwff(b, formula), inner, discharges={m}, fresh=z)
        raise TypeError(f"unexpected formula {formula!r}")

    core = expand(concl)
    if not occs:
        return pi
    if isinstance(core, (Less, Eq)):
        cur = pi
        remaining = set(core_pos for (core_pos,) in occs)
        cur_core = core
        for p in sorted(remaining):
            cur_core = replace_position(cur_core, p, b)
            cur = node("mon", cur_core, cur, eq_supply(), position=p)
        return cur
    if isinstance(core, RImplies):
        occs_l = frozenset(p[1:] for p in occs if p[0] == "L")
        occs_r = frozenset(p[1:] for p in occs if p[0] == "R")
        avoid = all_labels(pi) | {a, b}
        left_moved = masked_subst(core.left, b, occs_l, avoid)
        m = mgen()
        leaf = assume(left_moved, m)
        back = _transport(leaf, b, a, sym_supply, occs_l, mgen, lgen, eq_supply)
        back = _override_conclusion(back, core.left)
        app = node("rimp_e", core.right, pi, back)
        fwd = _transport(app, a, b, eq_supply, occs_r, mgen, lgen, sym_supply)
        return node("rimp_i", RImplies(left_moved, masked_subst(core.right, b, occs_r, avoid)),
                    fwd, discharges={m})
    if isinstance(core, Forall):
        occs_b = frozenset(p[1:] for p in occs if p[0] == "B")
        w = lgen()
        inst_body = substitute_label(core.body, w, core.var)
        inst = node("all_e", inst_body, pi)
        moved = _transport(inst, a, b, eq_supply, occs_b, mgen, lgen, sym_supply)
        return node("all_i", Forall(w, moved.conclusion), moved, fresh=w)
    raise TypeError(f"not a core rwff: {core!r}")


def _restrict_mon(n: Derivation, mgen, lgen) -> Derivation:
    kind, _ = _mon_class(n)
    pi, eqd = n.premises
    eq = expand(eqd.conclusion)
    a, b = eq.x, eq.y

    if kind == "bot":
        return node("raa_bot", n.conclusion, pi)
    if kind == "noop":
        return _override_conclusion(pi, n.conclusion)

    # two interchangeable sources of equality evidence: copies of the given
    # a = b subderivation, and copies of the derived symmetric b = a
    eq_ab = _EqSupply(eqd, mgen)
    eq_ba = _LazySymSupply(eq_ab, a, b, mgen)

    if isinstance(n.conclusion, Lwff):
        occs = frozenset({("F",)})
    else:
        occs = occurrences_of(_expand_entity(pi.conclusion), a)
    out = _transport(pi, a, b, eq_ab, occs, mgen, lgen, eq_ba)
    return _override_conclusion(out, n.conclusion)


# ---------------------------------------------------------------------------
# Driver

_PRIORITY = {
    "UnrestrictedRAA": 0,
    "UnrestrictedMon": 0,
    "MaximalFormula": 1,
    "MonDisorder": 2,
    "RedundantMon": 3,
    "RedundantFalsum": 4,
}


def _priority(r: Redex, n: Derivation) -> tuple:
    """Sort key of redex ``r`` at node ``n``; the driver reduces the least.

    Within a class the leftmost site (least path) goes first, except for
    maximal formulas: there it is the highest grade, then the innermost
    site, then the leftmost.  That is exactly "the highest grade having no
    equally-high maximal formula above it": an innermost maximal formula of
    the highest grade has none above it, as any would be deeper still."""
    cls = _PRIORITY[r.kind]
    if cls == 1:
        return (1, -grade(n.premises[0].conclusion), -len(r.path), r.path)
    return (cls, 0, 0, r.path)


class _RedexIndex:
    """The redexes of a tree, kept current across ``replace_at`` by
    rescanning only the replaced subtree and the two nodes above it.

    ``sites`` lists the paths holding redexes in lexicographic order, so a
    subtree's sites form one slice; ``live`` maps each such path to its
    redexes; ``heap`` orders the redexes by ``_priority`` and drops stale
    entries lazily."""

    def __init__(self, d: Derivation):
        self.live: dict = {}
        self.heap: list = []
        self._seq = itertools.count()
        self.sites = self._scan(d, ())

    def _scan(self, t: Derivation, base: tuple) -> list:
        """Index the redexes of subtree ``t`` at ``base``; returns their
        paths in order."""
        found = []
        for path, n in t.walk(base):
            rs = self._add(n, path)
            if rs:
                found.append(path)
        return found

    def _add(self, n: Derivation, path: tuple) -> list:
        rs = _node_redexes(n, path)
        if rs:
            self.live[path] = rs
            for r in rs:
                heapq.heappush(self.heap, (_priority(r, n), next(self._seq), r))
        return rs

    def _is_live(self, r: Redex) -> bool:
        return any(x is r for x in self.live.get(r.path, ()))

    def first(self) -> Redex | None:
        heap = self.heap
        while heap:
            r = heap[0][2]
            if self._is_live(r):
                return r
            heapq.heappop(heap)
        return None

    def replaced(self, d: Derivation, path: tuple, new: Derivation) -> None:
        """Update for ``d``, in which the subtree at ``path`` is now ``new``."""
        sites = self.sites
        lo = bisect.bisect_left(sites, path)
        if path:
            hi = bisect.bisect_left(sites, path[:-1] + (path[-1] + 1,), lo)
        else:
            hi = len(sites)
        for p in sites[lo:hi]:
            del self.live[p]
        sites[lo:hi] = self._scan(new, path)
        for anc in (path[:-1], path[:-2])[:len(path)]:
            if self.live.pop(anc, None) is not None:
                del sites[bisect.bisect_left(sites, anc)]
            if self._add(d.at(anc), anc):
                bisect.insort(sites, anc)
        if len(self.heap) > 4 * len(sites) + 64:
            self.heap = [e for e in self.heap if self._is_live(e[2])]
            heapq.heapify(self.heap)


def _drive(d: Derivation, bound: int | None, last_class: int,
           trace=None) -> Derivation:
    """Reduce the least redex of class at most ``last_class`` until none is
    left.  One marker and one label generator serve the whole run: what
    they hand out is new to the tree at every step."""
    limit = step_bound() if bound is None else bound
    index = _RedexIndex(d)
    mgen = MarkerGen(all_markers(d))
    lgen = LabelGen(all_labels(d))
    nodes = d.node_count() if trace is not None else 0
    steps = 0
    while True:
        r = index.first()
        if r is None or _PRIORITY[r.kind] > last_class:
            return d
        if steps >= limit:
            raise NonTermination(steps)
        old = d.at(r.path)
        new = _rewrite(old, r.kind, mgen, lgen)
        d = replace_at(d, r.path, new)
        index.replaced(d, r.path, new)
        steps += 1
        if trace is not None:
            nodes += new.node_count() - old.node_count()
            trace.append({
                "step": steps,
                "kind": r.kind,
                "detail": r.detail,
                "site": list(r.path),
                "nodes": nodes,
            })


def restrict(d: Derivation, bound: int | None = None) -> Derivation:
    """Rewrite until every falsum-rule conclusion is atomic (and never the
    relational falsum), and every mon is a positional application to an
    atomic major premise."""
    return _drive(d, bound, 0)


def normalize(d: Derivation, bound: int | None = None, trace=None) -> Derivation:
    """Full pipeline: expand derived rules, restrict, then reduce to normal
    form under the deterministic strategy.  ``trace`` is anything with an
    ``append`` method; it gets one record per step as the step happens."""
    from .kernel import expand_derived
    return _drive(expand_derived(d), bound, max(_PRIORITY.values()), trace)


@dataclass(frozen=True)
class NormalReport:
    normal: bool
    redexes: tuple

    def __bool__(self) -> bool:
        return self.normal


def is_normal(d: Derivation) -> NormalReport:
    rs = find_redexes(d)
    return NormalReport(not rs, tuple(rs))


# ---------------------------------------------------------------------------
# Equality modulo markers and fresh labels

def canonical_form(d: Derivation) -> Derivation:
    """Rename markers to 1.. in first-mention order, fresh labels to a
    reserved sequence, and conclusions to expanded alpha-canonical form."""
    order: list = []
    for _, n in d.walk():
        for m in sorted(n.discharges):
            if m not in order:
                order.append(m)
        if n.marker is not None and n.marker not in order:
            order.append(n.marker)
    mmap = {m: i + 1 for i, m in enumerate(order)}
    counter = itertools.count(1)

    def rename_fresh(t: Derivation) -> Derivation:
        if t.fresh is not None:
            t = substitute_label_deriv(t, f"·f{next(counter)}", t.fresh)
        return replace(t, premises=tuple(rename_fresh(p) for p in t.premises))

    def squash(t: Derivation) -> Derivation:
        return Derivation(
            t.rule, canon(t.conclusion),
            tuple(squash(p) for p in t.premises),
            marker=mmap.get(t.marker),
            discharges=frozenset(mmap[m] for m in t.discharges),
            fresh=t.fresh,
            position=t.position,
        )

    return squash(rename_fresh(d))
