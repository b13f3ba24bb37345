"""Shared test utilities: random formula and derivation generators plus an
independent shortcut evaluator used as the semantic oracle."""

from __future__ import annotations

import itertools
import random

from tenseproof.derivation import Derivation, assume, node
from tenseproof.kernel import check, open_assumptions
from tenseproof.rules import KL
from tenseproof.semantics import Model
from tenseproof.syntax import (
    And, Atom, Empty, Eq, Exists, F, Falsum, Forall, G, H, Implies, Less,
    Lwff, Not, Or, P, Prec, RAnd, RImplies, RNot, ROr, Top, expand,
    labels_of,
)

ATOMS = ("p", "q", "r")
LABELS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# Random formulas

def random_formula(rng: random.Random, depth: int = 4, atoms=ATOMS):
    if depth <= 0 or rng.random() < 0.25:
        return rng.choice([Atom(rng.choice(atoms)), Falsum(), Top()])
    kind = rng.randrange(8)
    sub = lambda: random_formula(rng, depth - 1, atoms)
    if kind == 0:
        return Implies(sub(), sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Not(sub())
    if kind == 4:
        return G(sub())
    if kind == 5:
        return H(sub())
    if kind == 6:
        return F(sub())
    return P(sub())


def random_rwff(rng: random.Random, depth: int = 4, labels=LABELS):
    def atom():
        a, b = rng.choice(labels), rng.choice(labels)
        return rng.choice([Less(a, b), Eq(a, b), Empty(), Prec(a, b)])
    if depth <= 0 or rng.random() < 0.3:
        return atom()
    kind = rng.randrange(6)
    sub = lambda: random_rwff(rng, depth - 1, labels)
    if kind == 0:
        return RImplies(sub(), sub())
    if kind == 1:
        return RAnd(sub(), sub())
    if kind == 2:
        return ROr(sub(), sub())
    if kind == 3:
        return RNot(sub())
    if kind == 4:
        return Forall(rng.choice(labels), sub())
    return Exists(rng.choice(labels), sub())


def random_entity(rng: random.Random, depth: int = 4):
    if rng.random() < 0.5:
        return Lwff(rng.choice(LABELS), random_formula(rng, depth))
    return random_rwff(rng, depth)


# ---------------------------------------------------------------------------
# Independent shortcut evaluator (the oracle for expansion coherence)

def eval_shortcut(m: Model, lam: dict, phi) -> bool:
    """Evaluate with native clauses for the derived forms instead of
    expanding them; deliberately separate from the production evaluator."""
    if isinstance(phi, Lwff):
        return _shortcut_formula(m, lam[phi.label], phi.formula)
    return _shortcut_rwff(m, lam, phi)


def _shortcut_formula(m, w, phi):
    if isinstance(phi, Atom):
        return m.holds_atom(w, phi.name)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Not):
        return not _shortcut_formula(m, w, phi.body)
    if isinstance(phi, And):
        return _shortcut_formula(m, w, phi.left) and _shortcut_formula(m, w, phi.right)
    if isinstance(phi, Or):
        return _shortcut_formula(m, w, phi.left) or _shortcut_formula(m, w, phi.right)
    if isinstance(phi, Implies):
        return (not _shortcut_formula(m, w, phi.left)) or _shortcut_formula(m, w, phi.right)
    if isinstance(phi, G):
        return all(_shortcut_formula(m, v, phi.body) for v in m.successors(w))
    if isinstance(phi, H):
        return all(_shortcut_formula(m, v, phi.body) for v in m.predecessors(w))
    if isinstance(phi, F):
        return any(_shortcut_formula(m, v, phi.body) for v in m.successors(w))
    if isinstance(phi, P):
        return any(_shortcut_formula(m, v, phi.body) for v in m.predecessors(w))
    raise TypeError(phi)


def _shortcut_rwff(m, lam, rho):
    if isinstance(rho, Less):
        return (lam[rho.x], lam[rho.y]) in m.prec
    if isinstance(rho, Eq):
        return lam[rho.x] == lam[rho.y]
    if isinstance(rho, Empty):
        return False
    if isinstance(rho, RNot):
        return not _shortcut_rwff(m, lam, rho.body)
    if isinstance(rho, RAnd):
        return _shortcut_rwff(m, lam, rho.left) and _shortcut_rwff(m, lam, rho.right)
    if isinstance(rho, ROr):
        return _shortcut_rwff(m, lam, rho.left) or _shortcut_rwff(m, lam, rho.right)
    if isinstance(rho, RImplies):
        return (not _shortcut_rwff(m, lam, rho.left)) or _shortcut_rwff(m, lam, rho.right)
    if isinstance(rho, Forall):
        return all(_shortcut_rwff(m, {**lam, rho.var: w}, rho.body) for w in m.worlds)
    if isinstance(rho, Exists):
        return any(_shortcut_rwff(m, {**lam, rho.var: w}, rho.body) for w in m.worlds)
    if isinstance(rho, Prec):
        a, b = lam[rho.x], lam[rho.y]
        return (a, b) in m.prec and not any(
            (a, u) in m.prec and (u, b) in m.prec for u in m.worlds)
    raise TypeError(rho)


def all_models(max_worlds: int, atoms, chains_only: bool = True):
    """Every canonical chain model up to the bound with every valuation."""
    for n in range(1, max_worlds + 1):
        cells = [(a, w) for a in atoms for w in range(n)]
        for bits in itertools.product((False, True), repeat=len(cells)):
            val: dict = {a: set() for a in atoms}
            for (a, w), bit in zip(cells, bits):
                if bit:
                    val[a].add(w)
            yield Model.chain(n, {a: frozenset(ws) for a, ws in val.items()})


def all_frames(seed: int = 1, samples: int = 300):
    """Every relation over 1-3 worlds, then ``samples`` seeded 4-world ones
    (each pair in with probability 0.4), as models without atoms."""
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for bits in itertools.product((False, True), repeat=len(pairs)):
            yield Model(n, frozenset(p for p, b in zip(pairs, bits) if b))
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(4) for j in range(4)]
    for _ in range(samples):
        yield Model(4, frozenset(p for p in pairs if rng.random() < 0.4))


def all_interpretations(m: Model, labels):
    labels = sorted(labels)
    for assignment in itertools.product(range(m.n), repeat=len(labels)):
        yield dict(zip(labels, assignment))


def atoms_of(entity):
    out = set()
    stack = [entity]
    while stack:
        e = stack.pop()
        if isinstance(e, Lwff):
            stack.append(e.formula)
        elif isinstance(e, Atom):
            out.add(e.name)
        else:
            for attr in ("left", "right", "body"):
                v = getattr(e, attr, None)
                if v is not None and not isinstance(v, str):
                    stack.append(v)
    return out


# ---------------------------------------------------------------------------
# Random valid derivations

class DerivationGen:
    """Grows a pool of valid derivations by applying rules whose side
    conditions are checked before acceptance; biased toward creating
    detours, monotonicity steps and falsum traffic so the normalizer has
    real work to do."""

    def __init__(self, rng: random.Random, atoms=ATOMS, labels=LABELS):
        self.rng = rng
        self.atoms = atoms
        self.labels = labels
        self.marker = itertools.count(1)

    def _label(self):
        return self.rng.choice(self.labels)

    def _small_formula(self):
        rng = self.rng
        a = Atom(rng.choice(self.atoms))
        b = Atom(rng.choice(self.atoms))
        return rng.choice([a, Falsum(), Implies(a, b), G(a), H(a),
                           Implies(a, Falsum())])

    def _leaf(self):
        if self.rng.random() < 0.7:
            c = Lwff(self._label(), self._small_formula())
        else:
            a, b = self._label(), self._label()
            c = self.rng.choice([Less(a, b), Eq(a, b)])
        return assume(c, next(self.marker))

    def _opens(self, d):
        # sorted, so the trees do not depend on set order (PYTHONHASHSEED)
        return sorted(open_assumptions(d), key=repr)

    def _try_extend(self, d: Derivation) -> Derivation | None:
        rng = self.rng
        op = rng.randrange(13)
        c = d.conclusion

        if op == 0 and isinstance(c, Lwff):
            # introduce then eliminate: a guaranteed detour
            a = self._small_formula()
            m = next(self.marker)
            intro = node("imp_i", Lwff(c.label, Implies(a, c.formula)), d,
                         discharges={m})
            minor = assume(Lwff(c.label, a), next(self.marker))
            return node("imp_e", c, intro, minor)
        if op == 1 and isinstance(c, Lwff):
            opens = self._opens(d)
            marked = [o for o in opens if isinstance(o, Lwff)
                      and o.label == c.label]
            if marked and rng.random() < 0.8:
                target = rng.choice(marked)
                markers = self._markers_of(d, target)
                if markers:
                    return node("imp_i",
                                Lwff(c.label, Implies(target.formula, c.formula)),
                                d, discharges=markers)
            a = self._small_formula()
            return node("imp_i", Lwff(c.label, Implies(a, c.formula)), d,
                        discharges={next(self.marker)})
        if op == 2 and isinstance(c, Lwff):
            # temporal introduction when freshness allows
            y = c.label
            x = rng.choice([l for l in self.labels if l != y])
            rel = Less(x, y) if rng.random() < 0.5 else Less(y, x)
            rule, concl = (("g_i", Lwff(x, G(c.formula)))
                           if rel == Less(x, y)
                           else ("h_i", Lwff(x, H(c.formula))))
            markers = self._markers_of(d, rel)
            out = node(rule, concl, d, discharges=markers, fresh=y)
            return out
        if op == 3 and isinstance(c, Lwff) and isinstance(expand(c.formula), G):
            y = self._label()
            minor = assume(Less(c.label, y), next(self.marker))
            return node("g_e", Lwff(y, expand(c.formula).body), d, minor)
        if op == 4 and isinstance(c, Lwff) and isinstance(expand(c.formula), H):
            y = self._label()
            minor = assume(Less(y, c.label), next(self.marker))
            return node("h_e", Lwff(y, expand(c.formula).body), d, minor)
        if op == 5:
            # monotonicity on an atomic conclusion
            core = expand(c) if not isinstance(c, Lwff) else c
            if isinstance(c, Lwff) and isinstance(expand(c.formula), (Atom, Falsum)):
                y = rng.choice([l for l in self.labels if l != c.label])
                minor = assume(Eq(c.label, y), next(self.marker))
                return node("mon", Lwff(y, c.formula), d, minor, position=1)
            if isinstance(core, (Less, Eq)):
                pos = rng.choice([1, 2])
                old = core.x if pos == 1 else core.y
                y = rng.choice([l for l in self.labels if l != old])
                minor = assume(Eq(old, y), next(self.marker))
                from tenseproof.kernel import replace_position
                return node("mon", replace_position(core, pos, y), d, minor,
                            position=pos)
        if op == 6 and isinstance(c, Lwff) and isinstance(expand(c.formula), Falsum):
            if rng.random() < 0.5:
                return node("uf1", Empty(), d)
            return node("raa_bot", Lwff(self._label(), Atom(rng.choice(self.atoms))), d)
        if op == 7 and not isinstance(c, Lwff) and isinstance(expand(c), Empty):
            return node("uf2", Lwff(self._label(), Falsum()), d)
        if op == 8 and isinstance(c, Lwff):
            # classical refutation: assume the negation, contradict, conclude
            m = next(self.marker)
            neg = assume(Lwff(c.label, Implies(c.formula, Falsum())), m)
            bot = node("imp_e", Lwff(c.label, Falsum()), neg, d)
            return node("raa_bot", c, bot, discharges={m})
        if op == 9 and not isinstance(c, Lwff):
            m = next(self.marker)
            neg = assume(RImplies(c, Empty()), m)
            bot = node("rimp_e", Empty(), neg, d)
            return node("raa_empty", c, bot, discharges={m})
        if op == 10 and not isinstance(c, Lwff):
            # relational detour
            a, b = self._label(), self._label()
            ant = rng.choice([Less(a, b), Eq(a, b)])
            m = next(self.marker)
            intro = node("rimp_i", RImplies(ant, c), d, discharges={m})
            return node("rimp_e", c, intro, assume(ant, next(self.marker)))
        if op == 11 and not isinstance(c, Lwff):
            # generalize then instantiate
            opens = self._opens(d)
            v = rng.choice(self.labels)
            if any(v in labels_of(o) for o in opens):
                return None
            from tenseproof.syntax import Forall, substitute_label
            intro = node("all_i", Forall(v, c), d, fresh=v)
            w = self._label()
            return node("all_e", substitute_label(c, w, v), intro)
        if op == 12 and isinstance(c, Lwff) and not isinstance(
                expand(c.formula), (Atom, Falsum)):
            # unrestricted monotonicity on a compound formula
            y = rng.choice([l for l in self.labels if l != c.label])
            minor = assume(Eq(c.label, y), next(self.marker))
            return node("mon", Lwff(y, c.formula), d, minor)
        return None

    def _markers_of(self, d: Derivation, target) -> frozenset:
        """Markers all of whose leaves state exactly the target formula."""
        by_marker: dict = {}
        for _, n in d.walk():
            if n.is_assumption() and n.marker is not None:
                by_marker.setdefault(n.marker, []).append(n.conclusion)
        discharged = set()
        for _, n in d.walk():
            discharged |= n.discharges
        good = [m for m, forms in by_marker.items()
                if m not in discharged and all(f == target for f in forms)]
        return frozenset(self.rng.sample(good, k=1)) if good else frozenset()

    def derivation(self, max_nodes: int = 25, steps: int = 12) -> Derivation:
        d = self._leaf()
        for _ in range(steps):
            out = self._try_extend(d)
            if out is None or out.node_count() > max_nodes:
                continue
            if check(out, KL).ok:
                d = out
        assert check(d, KL).ok
        return d
