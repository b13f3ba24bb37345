"""Normalization: restriction of falsum/monotonicity rules, detour
elimination, ordering and composition of monotonicity chains, and removal of
redundant falsum chains.

The engine is a per-node redex test plus one-step reducers, run by one
driver.  ``restrict`` runs only the restriction redexes; ``normalize`` runs
everything to a fixpoint under a deterministic strategy: restriction sites
first, then the maximal formula of highest grade having no equally-high
maximal formula above it, then chain permutations, compositions and falsum
collapses.

The reductions are local, and a step costs about the nodes it creates.  A
node's redexes read only the node, its premises and the premises of its
first premise (a dependency radius of 2), all inside its own immutable
subtree, and the tree surgery returns every subtree it does not change as
the same object.  So the driver memoizes on each node object the least
redex at the node and the least redex in its subtree, keyed relative to the
node (as finger trees cache a measure in each node); a subtree a step keeps
or moves is never looked at again.  The driver holds the tree as a zipper
on the current site (Huet, *The Zipper*, 1997) whose every frame carries
the least redex outside the focus, so the next site is the lesser of the
last frame's and the focus's.  A key stays relative: to the focus, or to
the frame whose own redex or other premise holds the site, so the zipper
reaches the next site by going up to that frame and down the key's path,
and no root path is built; a traced step reads its site off the frames.
A step rebuilds and re-keys the two frames above the site, whose redexes
read it; the rest of the spine is rebuilt only as the zipper moves up
through it, and keeps its own redexes.

A reductio or mon on a formula that is not atomic is restricted through
``kernel._opening``, by one path for every connective of both sorts.  The
reductio becomes the connective's introduction over a reductio on what its
elimination opens the formula to; the mon's premise is carried toward the
mon's conclusion by eliminating, carrying the result, and introducing
again, down to positional mons on atomic formulas.  A reductio on
``empty`` and a collapsing pair of reductios close their leaves with
``_close_reductio``.

A step that puts one derivation in several places takes the copies from
``derivation.copies``: the derivation itself first, keeping its memos,
then copies with refreshed markers.  A detour or a reductio places all its
copies in one ``graft`` pass.

``find_redexes``, ``reduce_step`` and ``is_normal`` are the full-scan
public API: they test every node afresh and never read the memos, so they
serve as the reference the driver is tested against and as the check of a
normal form.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

from .derivation import (
    Derivation, MarkerGen, all_labels, all_markers, assume, copies, fold,
    graft, node, relabel, replace_at, with_premise,
)
from .kernel import (
    _conclude, _contradict, _falsum_at, _opening, _refutation, _sort, _xf,
    match_instantiation, mon_positions, replace_position,
)
from .rules import AXIOMS, DETOUR_PAIRS, FALSUM_RULES
from .syntax import (
    Atom, Empty, Eq, Falsum, Forall, LabelGen, Less, Lwff, RImplies, canon,
    core_eq, expand, grade, is_atomic, substitute_label,
)

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
    core0 = expand(p0)
    if isinstance(core0, Lwff) and isinstance(core0.formula, Falsum):
        return ("bot", None)
    if core_eq(p0, n.conclusion):
        return ("noop", None)
    if not is_atomic(core0):
        return ("nonatomic", None)
    positions = mon_positions(p0, eq, n.conclusion)
    if positions:
        return ("ok", positions[0])
    return ("multi", None)


def _mon_of(n: Derivation):
    """``_mon_class(n)``, memoized on ``n``."""
    c = getattr(n, "_mon", None)
    if c is None:
        c = _mon_class(n)
        _set(n, "_mon", c)
    return c


# ---------------------------------------------------------------------------
# Redex search

def _redex_kinds(n: Derivation) -> tuple:
    """The redexes at one node, as ``(kind, detail)`` pairs.  They read only
    the node, its premises and the premises of ``premises[0]``: the
    dependency radius is 2."""
    if not n.premises:
        return ()
    out = []
    p0 = n.premises[0]

    if DETOUR_PAIRS.get(n.rule) == p0.rule:
        out.append(("MaximalFormula", f"{p0.rule}/{n.rule}"))

    if n.rule == "raa_bot" and not isinstance(_xf(n.conclusion), (Atom, Falsum)):
        out.append(("UnrestrictedRAA", "raa_bot"))
    if n.rule == "raa_empty":
        core = expand(n.conclusion)
        if isinstance(core, Empty) or not isinstance(core, (Less, Eq)):
            out.append(("UnrestrictedRAA", "raa_empty"))

    if n.rule == "mon":
        kind, pl = _mon_of(n)
        if kind != "ok":
            out.append(("UnrestrictedMon", kind))
        elif p0.rule == "mon":
            kind_u, pu = _mon_of(p0)
            if kind_u == "ok":
                if pu == pl:
                    out.append(("RedundantMon", ""))
                elif pu == 2 and pl == 1:
                    out.append(("MonDisorder", ""))

    if n.rule in FALSUM_RULES and p0.rule in FALSUM_RULES:
        pair = f"{p0.rule};{n.rule}"
        if pair in ("raa_bot;raa_bot", "raa_bot;uf1", "uf1;uf2", "uf2;uf1"):
            out.append(("RedundantFalsum", pair))
    return tuple(out)


def _node_redexes(n: Derivation, path: tuple) -> list:
    return [Redex(kind, path, detail) for kind, detail in _redex_kinds(n)]


def find_redexes(d: Derivation) -> list:
    """Every redex of ``d`` in path order, each node tested afresh: the
    driver's memos are not read, so this checks the driver rather than
    agreeing with it by construction."""
    return [r for path, n in d.walk() for r in _node_redexes(n, path)]


# ---------------------------------------------------------------------------
# One-step reduction

def reduce_step(d: Derivation, r: Redex) -> Derivation:
    """``d`` with redex ``r`` reduced, after testing its site afresh (the
    driver's memos are not read); ``RedexStale`` if ``r`` is not there."""
    try:
        n = d.at(r.path)
    except IndexError:
        raise RedexStale(r) from None
    if r not in _node_redexes(n, r.path):
        raise RedexStale(r)
    new = _KINDS[r.kind][1](n, MarkerGen(all_markers(d)), LabelGen(all_labels(d)))
    return replace_at(d, r.path, new)


def _override_conclusion(t: Derivation, conclusion) -> Derivation:
    """Keep the site's stated conclusion when the rebuilt subtree says the
    same thing with different surface spelling (never touch assumptions:
    their spelling is part of the open-assumption set)."""
    if t.conclusion == conclusion or t.is_assumption():
        return t
    return replace(t, conclusion=conclusion)


def _reduce_detour(n: Derivation, mgen, lgen) -> Derivation:
    """The introduction's body with its fresh label, if any, made the one
    the elimination names, and the minor premise, if any, grafted at the
    leaves it discharges."""
    intro, *minor = n.premises
    body = intro.premises[0]
    v = intro.fresh
    if v is not None:
        if n.rule == "all_e":
            # ``v`` itself if it does not occur (vacuous quantifier)
            w = match_instantiation(expand(body.conclusion), v, n.conclusion) or v
        else:
            w = n.conclusion.label
        # inner fresh labels equal to either end of the substitution would be
        # captured or merged by it; give them new names in the same pass
        avoid = {v, w}.union(*map(all_labels, minor))
        body = relabel(body, {v: w},
                       lambda label: lgen() if label in avoid else None)
    if minor:
        body = graft(body, dict.fromkeys(intro.discharges, copies(minor[0], mgen)))
    return _override_conclusion(body, n.conclusion)


def _reduce_disorder(n: Derivation, mgen, lgen) -> Derivation:
    upper = n.premises[0]
    base, e_upper = upper.premises
    e_lower = n.premises[1]
    eq_low = expand(e_lower.conclusion)
    mid = replace_position(expand(base.conclusion), 1, eq_low.y)
    new_upper = node("mon", mid, base, e_lower, position=1)
    return node("mon", n.conclusion, new_upper, e_upper, position=2)


def _reduce_mon_pair(n: Derivation, mgen, lgen) -> Derivation:
    upper = n.premises[0]
    base, e1 = upper.premises
    e2 = n.premises[1]
    _, pos = _mon_of(n)
    eq1 = expand(e1.conclusion)
    eq2 = expand(e2.conclusion)
    composed = node("mon", Eq(eq1.x, eq2.y), e1, e2, position=2)
    return node("mon", n.conclusion, base, composed, position=pos)


def _close_reductio(r: Derivation, mgen) -> Derivation:
    """The premise of ``r``, a reductio concluding its sort's falsum, with
    each leaf that ``r`` discharges, which assumes that the falsum implies
    itself, closed by a copy of the one identity proof of that."""
    body = r.premises[0]
    if not r.discharges:
        return body
    s = _sort(r.conclusion)
    y = s.split(r.conclusion)[0]
    k = mgen()
    identity = node(s.imp_i, s.at(y, s.neg(s.falsum)),
                    assume(s.at(y, s.falsum), k), discharges={k})
    return graft(body, dict.fromkeys(r.discharges, copies(identity, mgen)))


def _reduce_falsum(n: Derivation, mgen, lgen) -> Derivation:
    f1 = n.premises[0]
    if f1.rule == "raa_bot":            # raa_bot;raa_bot or raa_bot;uf1
        return replace(n, premises=(_close_reductio(f1, mgen),))
    # uf1;uf2 or uf2;uf1: there and back across the sorts
    s = _sort(n.conclusion)
    return _falsum_at(f1.premises[0], s, s.split(n.conclusion)[0])


# ---------------------------------------------------------------------------
# Restriction of raa_bot / raa_empty / mon to atomic conclusions

def _restrict_raa(n: Derivation, mgen, lgen) -> Derivation:
    """A reductio on a formula that is not atomic, concluded instead by
    the introduction of its connective over a reductio on what the
    elimination opens it to.  The refutation of the formula is derived from
    the refutation of that: the formula is eliminated, contradicted and the
    falsum carried back to the formula's label, and it is grafted at the
    leaves the reductio discharged.  A reductio on ``empty`` only closes
    its leaves."""
    s = _sort(n.conclusion)
    x, a = s.split(n.conclusion)
    core = expand(a)
    if core is s.falsum:
        return _override_conclusion(_close_reductio(n, mgen), n.conclusion)
    elim, intro, hyp, body, z = _opening(s, x, core, lgen)
    whole, opened = mgen(), mgen()
    minor = () if hyp is None else (assume(hyp, mgen()),)
    refuted = _contradict(_refutation(body, opened),
                          node(elim, body, assume(s.at(x, core), whole), *minor))
    refutation = node(s.imp_i, s.at(x, s.neg(core)), _falsum_at(refuted, s, x),
                      discharges={whole})
    premise = graft(n.premises[0],
                    dict.fromkeys(n.discharges, copies(refutation, mgen)))
    return node(intro, n.conclusion, _conclude(body, premise, opened),
                discharges={leaf.marker for leaf in minor}, fresh=z)


# ---------------------------------------------------------------------------
# Mon restriction: transport toward the mon's own conclusion
#
# A mon whose premise is not atomic is restricted by transporting the
# premise, step by step, toward the mon's conclusion, which the checker
# requires to be the full substitution of the equality's right label for its
# left one.  Each step compares the formula the derivation so far concludes
# with the one it must reach: equal formulas need nothing; an atomic one
# needs a positional mon at each position whose label differs; any other is
# opened on both sides, at one fresh label for a quantifier or temporal
# operator (``kernel._opening``), and needs the target's hypothesis carried
# back, the source eliminated, the result carried forward, and the target
# introduced.  Each position's pair of labels says which equality it needs:
# ``a = b``, as given, or ``b = a``, derived by ``sym_deriv`` on first use,
# each handed out by ``derivation.copies``.

def sym_deriv(eq_ab, a: str, b: str, mgen) -> Derivation:
    """Derive ``b = a`` from the copies of ``a = b`` that ``eq_ab`` hands
    out, by connectedness and irreflexivity; every new mon is positional."""
    conn = node("conn", AXIOMS["conn"])
    tpl = AXIOMS["conn"]
    inner1 = substitute_label(tpl.body, b, tpl.var)
    t1 = node("all_e", inner1, conn)
    inner2 = substitute_label(inner1.body, a, inner1.var)
    t2 = node("all_e", inner2, t1)

    irr = AXIOMS["irrefl_lt"]
    irr_inst = substitute_label(irr.body, b, irr.var)

    k1 = mgen()
    u1 = node("mon", Less(b, b), assume(Less(b, a), k1), next(eq_ab), position=2)
    i1 = node("all_e", irr_inst, node("irrefl_lt", irr))
    u2 = node("rimp_e", E_, i1, u1)
    n1 = node("rimp_i", RImplies(Less(b, a), E_), u2, discharges={k1})

    k2 = mgen()
    n2 = node("rimp_e", expand(inner2).right, t2, n1)
    n3 = node("rimp_e", Less(a, b), n2, assume(RImplies(Eq(b, a), E_), k2))
    u3 = node("mon", Less(b, b), n3, next(eq_ab), position=1)
    i2 = node("all_e", irr_inst, node("irrefl_lt", irr))
    u4 = node("rimp_e", E_, i2, u3)
    return node("raa_empty", Eq(b, a), u4, discharges={k2})


def _transport(pi: Derivation, target, evidence: dict, mgen, lgen) -> Derivation:
    """A derivation of ``target`` from ``pi``, whose conclusion differs
    from it only in labels, with every mon positional.  ``evidence`` maps a
    pair of labels to copies of an equality between them.  Each step is
    a generator that yields the ``(derivation, target)`` pairs it needs and
    gets their results back, run here on a stack instead of by recursion."""
    stack = [_step(pi, target, evidence, mgen, lgen)]
    done = None
    while stack:
        try:
            pi, target = stack[-1].send(done)
        except StopIteration as finished:
            stack.pop()
            done = finished.value
        else:
            stack.append(_step(pi, target, evidence, mgen, lgen))
            done = None
    return done


def _step(pi: Derivation, target, evidence: dict, mgen, lgen):
    """One step of ``_transport``: ``pi`` carried to ``target`` at its
    outermost connective."""
    source = pi.conclusion
    if core_eq(source, target):
        return pi
    s, t = _xf(source), _xf(target)
    if type(s) is not type(t):
        raise TypeError(f"no mon takes {source!r} to {target!r}")
    sort = _sort(source)
    a, b = sort.split(source)[0], sort.split(target)[0]
    if isinstance(s, (Atom, Falsum)):
        return node("mon", target, pi, next(evidence[a, b]), position=1)
    if isinstance(s, (Less, Eq)):
        for p, x, y in ((1, s.x, t.x), (2, s.y, t.y)):
            if x != y:
                s = replace_position(s, p, y)
                pi = node("mon", s, pi, next(evidence[x, y]), position=p)
        return pi
    elim, intro, hyp, body, z = _opening(sort, a, s, lgen)
    _, _, hyp_t, body_t, _ = _opening(sort, b, t, lambda: z)
    minor, discharges = (), ()
    if hyp is not None:
        m = mgen()
        hyp = expand(hyp)
        back = yield assume(expand(hyp_t), m), hyp
        minor, discharges = (_override_conclusion(back, hyp),), {m}
    fwd = yield node(elim, body, pi, *minor), body_t
    # all_i, which discharges nothing, generalizes what was carried
    return node(intro, target if hyp is not None else Forall(z, fwd.conclusion),
                fwd, discharges=discharges, fresh=z)


def _restrict_mon(n: Derivation, mgen, lgen) -> Derivation:
    kind, _ = _mon_of(n)
    pi, eqd = n.premises
    eq = expand(eqd.conclusion)
    a, b = eq.x, eq.y

    if kind == "bot":
        return node("raa_bot", n.conclusion, pi)
    if kind == "noop":
        return _override_conclusion(pi, n.conclusion)

    # two sources of equality evidence: copies of the given a = b
    # subderivation, and copies of the symmetric b = a, derived on first use
    eq_ab = copies(eqd, mgen)

    def eq_ba():
        yield from copies(sym_deriv(eq_ab, a, b, mgen), mgen)

    out = _transport(pi, n.conclusion, {(a, b): eq_ab, (b, a): eq_ba()},
                     mgen, lgen)
    return _override_conclusion(out, n.conclusion)


# ---------------------------------------------------------------------------
# Driver

# each redex kind: its class, the first element of its key, and its reducer
_KINDS = {
    "UnrestrictedRAA": (0, _restrict_raa),
    "UnrestrictedMon": (0, _restrict_mon),
    "MaximalFormula": (1, _reduce_detour),
    "MonDisorder": (2, _reduce_disorder),
    "RedundantMon": (3, _reduce_mon_pair),
    "RedundantFalsum": (4, _reduce_falsum),
}


# A redex key is ``(class, -grade, -depth, position, kind, detail)``, where
# grade and depth are those of the maximal formula and its site for class 1
# and 0 otherwise.  Tuple order is the strategy, least first: within a class
# the leftmost site (least position), except for maximal formulas: there it
# is the highest grade, then the innermost site, then the leftmost.  That is
# exactly "the highest grade having no equally-high maximal formula above
# it": an innermost maximal formula of the highest grade has none above it,
# as any would be deeper still.  In a node's memos depth and position are
# relative to the node, the position a path held as nested ``(i, rest)``
# pairs, so tuple order is path order.
_NONE = (max(cls for cls, _ in _KINDS.values()) + 1,)   # no redex: above every key
_set = object.__setattr__


def _own(n: Derivation) -> tuple:
    """The key of the least redex at ``n`` itself, memoized on ``n``."""
    key = getattr(n, "_redex", None)
    if key is None:
        key = _NONE
        for kind, detail in _redex_kinds(n):
            cls = _KINDS[kind][0]
            g = -grade(n.premises[0].conclusion) if cls == 1 else 0
            key = min(key, (cls, g, 0, (), kind, detail))
        _set(n, "_redex", key)
    return key


def _lift(key: tuple, i: int) -> tuple:
    """``key``, of a redex in premise ``i``, seen from the premise's
    conclusion."""
    cls, g, d, path, kind, detail = key
    return (cls, g, d - 1 if cls == 1 else 0, (i, path), kind, detail)


def _unfilled(t: Derivation) -> tuple:
    return t, (() if hasattr(t, "_least") else t.premises)


def _fill(t: Derivation, keys: list) -> tuple:
    least = getattr(t, "_least", None)
    if least is None:
        least = _own(t)
        for i, key in enumerate(keys):
            if key is not _NONE:
                key = _lift(key, i)
                if key < least:
                    least = key
        _set(t, "_least", least)
    return least


def _least(t: Derivation) -> tuple:
    """The key of the least redex in ``t``'s subtree, memoized on each of
    its nodes: the fold stops at nodes already filled."""
    return getattr(t, "_least", None) or fold(t, _fill, _unfilled)


def _rekey(key: tuple, depth: int, side: int) -> tuple:
    """``key``, relative to a node at ``depth``, with its depth made
    absolute and its position put before the focus (``side`` -1), in it (0)
    or after it (1).  Before the focus, a frame nearer the root comes first;
    after it, a frame nearer the focus: so tuple order is root-path
    order.  The path stays relative to the node, which ``go`` finds."""
    cls, g, d, path, kind, detail = key
    return (cls, g, d - depth if cls == 1 else 0, (side, -side * depth, path),
            kind, detail)


class _Zipper:
    """A tree held open at one subtree (Huet's zipper): ``focus`` is a
    subtree, and ``frames`` are the ``(node, premise index, outside)``
    triples from the root down to it, where ``outside`` is the key of the
    least redex of that frame and every frame above it outside the focus.
    So the least redex of the tree is the lesser of the last frame's
    ``outside`` and the least redex in the focus.  A node in ``frames``
    keeps its old premise at that index until ``up`` passes through it;
    ``replace`` rebuilds and re-pushes the two nearest at once, because
    their redexes read the focus.  No root path is kept: the premise
    indices of the frames spell the focus's."""

    def __init__(self, d: Derivation):
        self.focus, self.frames = d, []

    def _push(self, t: Derivation, i: int) -> None:
        """Add the frame of going from ``t`` into its premise ``i``."""
        frames, depth = self.frames, len(self.frames)
        outside = frames[-1][2] if frames else _NONE
        key = _own(t)
        if key is not _NONE:
            outside = min(outside, _rekey(key, depth, -1))
        for s, p in enumerate(t.premises):
            if s != i:
                key = _least(p)
                if key is not _NONE:
                    outside = min(outside, _rekey(_lift(key, s), depth,
                                                  -1 if s < i else 1))
        frames.append((t, i, outside))

    def least(self) -> tuple:
        """The key of the least redex of the tree, ``_NONE`` if it has
        none; its position is ``(side, depth, path)`` as ``_rekey`` makes
        it."""
        key = _least(self.focus)
        if key is not _NONE:
            key = _rekey(key, len(self.frames), 0)
        if self.frames:
            key = min(key, self.frames[-1][2])
        return key

    def up(self, depth: int) -> None:
        """Move the focus up to ``depth``.  A node rebuilt on the way keeps
        the memo of the redexes at the node it replaces: every change below
        it is more than two levels down, as ``replace`` rebuilds the two
        nearest frames, so the node's own redexes are the same."""
        t, frames = self.focus, self.frames
        while len(frames) > depth:
            parent, i, _ = frames.pop()
            t = with_premise(parent, i, t)
            if t is not parent:
                _set(t, "_redex", parent._redex)
        self.focus = t

    def go(self, key: tuple) -> Derivation:
        """Move the focus to the site of the redex ``key``, as ``least``
        gives it: up to the frame the key is relative to (none if it lies
        in the focus), then down its path; returns the subtree there."""
        side, depth, path = key[3]
        if side:
            self.up(abs(depth))
        while path:
            i, path = path
            self._push(self.focus, i)
            self.focus = self.focus.premises[i]
        return self.focus

    def replace(self, new: Derivation) -> None:
        """Put ``new`` in place of the focus.  A rebuilt frame keeps the
        class of a ``mon`` node if its new premise concludes what the old
        one did, as a reduction's does: the class reads only conclusions."""
        frames, rebuilt, t = self.frames, [], new
        for _ in range(min(2, len(frames))):
            parent, i, _ = frames.pop()
            p, t = t, with_premise(parent, i, t)
            mon = getattr(parent, "_mon", None)
            if mon is not None and p.conclusion is parent.premises[i].conclusion:
                _set(t, "_mon", mon)
            rebuilt.append((t, i))
        for t, i in reversed(rebuilt):
            self._push(t, i)
        self.focus = new

    def root(self) -> Derivation:
        self.up(0)
        return self.focus


def _drive(d: Derivation, bound: int | None, last_class: int,
           trace=None) -> Derivation:
    """Reduce the least redex of class at most ``last_class`` until none is
    left.  One marker and one label generator serve the whole run: what
    they hand out is new to the tree at every step.  A traced step's site
    is the root path the zipper's frames spell."""
    limit = step_bound() if bound is None else bound
    tree = _Zipper(d)
    mgen = MarkerGen(all_markers(d))
    lgen = LabelGen(all_labels(d))
    nodes = d.node_count() if trace is not None else 0
    steps = 0
    while True:
        key = tree.least()
        if key[0] > last_class:
            return tree.root()
        if steps >= limit:
            raise NonTermination(steps)
        kind, detail = key[4], key[5]
        old = tree.go(key)
        new = _KINDS[kind][1](old, mgen, lgen)
        tree.replace(new)
        steps += 1
        if trace is not None:
            nodes += new.node_count() - old.node_count()
            trace.append({
                "step": steps,
                "kind": kind,
                "detail": detail,
                "site": [i for _, i, _ in tree.frames],
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
    return _drive(expand_derived(d), bound, _NONE[0] - 1, trace)


@dataclass(frozen=True)
class NormalReport:
    normal: bool
    redexes: tuple

    def __bool__(self) -> bool:
        return self.normal


def is_normal(d: Derivation) -> NormalReport:
    """Whether ``d`` has no redex: a full scan of ``nodes()`` that does not
    read the driver's memos, so it can check a normal form the driver made.
    Only a tree with a redex is walked, by ``find_redexes``, for its paths."""
    if not any(map(_redex_kinds, d.nodes())):
        return NormalReport(True, ())
    return NormalReport(False, tuple(find_redexes(d)))


# ---------------------------------------------------------------------------
# Equality modulo markers and fresh labels

def canonical_form(d: Derivation) -> Derivation:
    """Rename markers to 1.. in first-mention order, fresh labels to a
    reserved sequence, and conclusions to expanded alpha-canonical form."""
    order: dict = {}
    for n in d.nodes():
        for m in sorted(n.discharges):
            order.setdefault(m, len(order) + 1)
        if n.marker is not None:
            order.setdefault(n.marker, len(order) + 1)
    counter = itertools.count(1)

    def squash(t: Derivation, premises: list) -> Derivation:
        return Derivation(
            t.rule, canon(t.conclusion), tuple(premises),
            marker=order.get(t.marker),
            discharges=frozenset(order[m] for m in t.discharges),
            fresh=t.fresh,
            position=t.position,
        )

    return fold(relabel(d, {}, lambda label: f"·f{next(counter)}"), squash)
