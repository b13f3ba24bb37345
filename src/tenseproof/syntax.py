"""Abstract syntax for tense formulas and relational formulas over labels.

Two sorts live side by side: labeled formulas ``x : A`` where ``A`` is a
tense formula, and relational formulas over labels (``x < y``, ``x = y``,
``empty``, relational implication and universal quantification).  Each sort
has a minimal core plus derived surface forms that expand away; all kernel
comparisons go through the expanded, alpha-canonical core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

Label = str


# ---------------------------------------------------------------------------
# Tense formulas

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class G:
    body: "Formula"


@dataclass(frozen=True)
class H:
    body: "Formula"


@dataclass(frozen=True)
class X:
    # Core only when the logic profile enables the next-step fragment.
    body: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class F:
    body: "Formula"


@dataclass(frozen=True)
class P:
    body: "Formula"


Formula = Union[Atom, Falsum, Implies, G, H, X, Not, And, Or, Top, F, P]


# ---------------------------------------------------------------------------
# Relational formulas

@dataclass(frozen=True)
class Less:
    x: Label
    y: Label


@dataclass(frozen=True)
class Eq:
    x: Label
    y: Label


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class RImplies:
    left: "RFormula"
    right: "RFormula"


@dataclass(frozen=True)
class Forall:
    var: Label
    body: "RFormula"


@dataclass(frozen=True)
class RNot:
    body: "RFormula"


@dataclass(frozen=True)
class RAnd:
    left: "RFormula"
    right: "RFormula"


@dataclass(frozen=True)
class ROr:
    left: "RFormula"
    right: "RFormula"


@dataclass(frozen=True)
class Exists:
    var: Label
    body: "RFormula"


@dataclass(frozen=True)
class Prec:
    # "immediately precedes": x < y with no point strictly in between.
    x: Label
    y: Label


RFormula = Union[Less, Eq, Empty, RImplies, Forall, RNot, RAnd, ROr, Exists, Prec]


@dataclass(frozen=True)
class Lwff:
    label: Label
    formula: Formula


@dataclass(frozen=True)
class ProofContext:
    gamma: frozenset  # of Lwff
    delta: frozenset  # of RFormula

    @staticmethod
    def make(gamma=(), delta=()) -> "ProofContext":
        return ProofContext(frozenset(gamma), frozenset(delta))

    def __iter__(self) -> Iterator:
        yield from self.gamma
        yield from self.delta

    def is_empty(self) -> bool:
        return not self.gamma and not self.delta


FORMULA_TYPES = (Atom, Falsum, Implies, G, H, X, Not, And, Or, Top, F, P)


def is_formula(e) -> bool:
    return isinstance(e, FORMULA_TYPES)


# ---------------------------------------------------------------------------
# Fresh names

def fresh_label(avoid, base: str = "w") -> Label:
    """Smallest ``base``+counter name not colliding with ``avoid``."""
    avoid = set(avoid)
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


class LabelGen:
    """Hands out fresh labels, remembering everything it has produced."""

    def __init__(self, avoid=(), base: str = "w"):
        self.avoid = set(avoid)
        self.base = base

    def __call__(self) -> Label:
        name = fresh_label(self.avoid, self.base)
        self.avoid.add(name)
        return name


# ---------------------------------------------------------------------------
# Expansion of derived forms

def expand(phi):
    """Rewrite to the minimal core; idempotent."""
    if isinstance(phi, Lwff):
        return Lwff(phi.label, expand(phi.formula))
    if isinstance(phi, Atom) or isinstance(phi, Falsum):
        return phi
    if isinstance(phi, Implies):
        return Implies(expand(phi.left), expand(phi.right))
    if isinstance(phi, G):
        return G(expand(phi.body))
    if isinstance(phi, H):
        return H(expand(phi.body))
    if isinstance(phi, X):
        return X(expand(phi.body))
    if isinstance(phi, Not):
        return Implies(expand(phi.body), Falsum())
    if isinstance(phi, Top):
        return Implies(Falsum(), Falsum())
    if isinstance(phi, And):
        # A & B == ~(A -> ~B)
        return Implies(Implies(expand(phi.left), Implies(expand(phi.right), Falsum())), Falsum())
    if isinstance(phi, Or):
        # A | B == ~A -> B
        return Implies(Implies(expand(phi.left), Falsum()), expand(phi.right))
    if isinstance(phi, F):
        # F A == ~G~A
        return Implies(G(Implies(expand(phi.body), Falsum())), Falsum())
    if isinstance(phi, P):
        return Implies(H(Implies(expand(phi.body), Falsum())), Falsum())

    if isinstance(phi, (Less, Eq, Empty)):
        return phi
    if isinstance(phi, RImplies):
        return RImplies(expand(phi.left), expand(phi.right))
    if isinstance(phi, Forall):
        return Forall(phi.var, expand(phi.body))
    if isinstance(phi, RNot):
        return RImplies(expand(phi.body), Empty())
    if isinstance(phi, RAnd):
        # r /\ s == !(r => !s)
        return RImplies(RImplies(expand(phi.left), RImplies(expand(phi.right), Empty())), Empty())
    if isinstance(phi, ROr):
        # r \/ s == !r => s
        return RImplies(RImplies(expand(phi.left), Empty()), expand(phi.right))
    if isinstance(phi, Exists):
        # exists x. r == !forall x. !r
        return RImplies(Forall(phi.var, RImplies(expand(phi.body), Empty())), Empty())
    if isinstance(phi, Prec):
        # x <. y == x < y /\ forall v. !(x < v) \/ !(v < y)
        v = fresh_label({phi.x, phi.y}, base="u")
        between = ROr(RNot(Less(phi.x, v)), RNot(Less(v, phi.y)))
        return expand(RAnd(Less(phi.x, phi.y), Forall(v, between)))
    raise TypeError(f"not a formula: {phi!r}")


def is_atomic(phi) -> bool:
    """Atomic after expansion: a propositional variable or falsum for lwffs;
    ``empty``, ``x < y`` or ``x = y`` for rwffs."""
    phi = expand(phi)
    if isinstance(phi, Lwff):
        return isinstance(phi.formula, (Atom, Falsum))
    return isinstance(phi, (Atom, Falsum, Less, Eq, Empty))


# ---------------------------------------------------------------------------
# Free labels and substitution

def labels_of(e) -> frozenset:
    """Free labels of a formula, lwff, context, or iterable of those."""
    if isinstance(e, Lwff):
        return frozenset({e.label}) | labels_of(e.formula)
    if isinstance(e, ProofContext):
        out = frozenset()
        for item in e:
            out |= labels_of(item)
        return out
    if is_formula(e):
        return frozenset()  # tense formulas carry no labels inside
    if isinstance(e, (Less, Eq)):
        return frozenset({e.x, e.y})
    if isinstance(e, Prec):
        return frozenset({e.x, e.y})
    if isinstance(e, Empty):
        return frozenset()
    if isinstance(e, (RImplies, RAnd, ROr)):
        return labels_of(e.left) | labels_of(e.right)
    if isinstance(e, RNot):
        return labels_of(e.body)
    if isinstance(e, (Forall, Exists)):
        return labels_of(e.body) - {e.var}
    if isinstance(e, (list, tuple, set, frozenset)):
        out = frozenset()
        for item in e:
            out |= labels_of(item)
        return out
    raise TypeError(f"no labels in {e!r}")


def substitute_label(phi, new: Label, old: Label):
    """Replace every free occurrence of ``old`` by ``new``, capture-avoiding."""
    if new == old:
        return phi
    if isinstance(phi, Lwff):
        return Lwff(new if phi.label == old else phi.label, phi.formula)
    if is_formula(phi):
        return phi
    if isinstance(phi, Less):
        return Less(new if phi.x == old else phi.x, new if phi.y == old else phi.y)
    if isinstance(phi, Eq):
        return Eq(new if phi.x == old else phi.x, new if phi.y == old else phi.y)
    if isinstance(phi, Prec):
        return Prec(new if phi.x == old else phi.x, new if phi.y == old else phi.y)
    if isinstance(phi, Empty):
        return phi
    if isinstance(phi, RImplies):
        return RImplies(substitute_label(phi.left, new, old), substitute_label(phi.right, new, old))
    if isinstance(phi, RAnd):
        return RAnd(substitute_label(phi.left, new, old), substitute_label(phi.right, new, old))
    if isinstance(phi, ROr):
        return ROr(substitute_label(phi.left, new, old), substitute_label(phi.right, new, old))
    if isinstance(phi, RNot):
        return RNot(substitute_label(phi.body, new, old))
    if isinstance(phi, (Forall, Exists)):
        cls = type(phi)
        if phi.var == old:
            return phi  # old is bound here, nothing free below
        if phi.var == new and old in labels_of(phi.body):
            # the binder would capture the incoming label: rename it first
            v = fresh_label(labels_of(phi.body) | {new, old}, base="u")
            body = substitute_label(phi.body, v, phi.var)
            return cls(v, substitute_label(body, new, old))
        return cls(phi.var, substitute_label(phi.body, new, old))
    raise TypeError(f"cannot substitute in {phi!r}")


# ---------------------------------------------------------------------------
# Grade and subformulas

def grade(phi) -> int:
    """Number of connective, operator and quantifier occurrences in the
    expansion of ``phi``."""
    phi = expand(phi)
    if isinstance(phi, Lwff):
        return grade(phi.formula)
    if isinstance(phi, (Atom, Falsum, Less, Eq, Empty)):
        return 0
    if isinstance(phi, (Implies, RImplies)):
        return 1 + grade(phi.left) + grade(phi.right)
    if isinstance(phi, (G, H, X)):
        return 1 + grade(phi.body)
    if isinstance(phi, Forall):
        return 1 + grade(phi.body)
    raise TypeError(f"no grade for {phi!r}")


def _formula_subformulas(a) -> Iterator:
    yield a
    if isinstance(a, Implies):
        yield from _formula_subformulas(a.left)
        yield from _formula_subformulas(a.right)
    elif isinstance(a, (G, H, X)):
        yield from _formula_subformulas(a.body)


def _rformula_subformulas(a) -> Iterator:
    yield a
    if isinstance(a, RImplies):
        yield from _rformula_subformulas(a.left)
        yield from _rformula_subformulas(a.right)
    elif isinstance(a, Forall):
        yield from _rformula_subformulas(a.body)


def subformulas(a) -> list:
    """All subformulas of the expansion of ``a`` (including ``a`` itself)."""
    a = expand(a)
    if isinstance(a, Lwff):
        a = a.formula
    if is_formula(a):
        return list(_formula_subformulas(a))
    return list(_rformula_subformulas(a))


def is_subformula(b, a) -> bool:
    """Is ``b`` a subformula of ``a``?  Both sides are expanded first; for
    lwffs the labels are ignored."""
    b = expand(b)
    if isinstance(b, Lwff):
        b = b.formula
    return any(canon(s) == canon(b) for s in subformulas(a))


def is_subformula_instance(b, a) -> bool:
    """Is ``b`` a label-instance of some subformula of ``a``?

    Instance means: obtained by substituting labels for the free labels of a
    subformula.  Tense formulas carry no labels, so for those this coincides
    with ``is_subformula``.
    """
    b = expand(b)
    if isinstance(b, Lwff):
        b = b.formula
    if is_formula(b):
        return is_subformula(b, a)
    return any(_matches_instance(s, b, {}) for s in subformulas(a))


def _matches_instance(pattern, target, env) -> bool:
    """Match ``target`` against ``pattern`` with free labels as holes."""
    def match(pat, tgt, env, bound):
        if isinstance(pat, Empty):
            return isinstance(tgt, Empty)
        if isinstance(pat, (Less, Eq)):
            if type(pat) is not type(tgt):
                return False
            for pl, tl in ((pat.x, tgt.x), (pat.y, tgt.y)):
                if pl in bound:
                    if bound[pl] != tl:
                        return False
                elif pl in env:
                    if env[pl] != tl:
                        return False
                else:
                    env[pl] = tl
            return True
        if isinstance(pat, RImplies):
            return (isinstance(tgt, RImplies)
                    and match(pat.left, tgt.left, env, bound)
                    and match(pat.right, tgt.right, env, bound))
        if isinstance(pat, Forall):
            if not isinstance(tgt, Forall):
                return False
            bound2 = dict(bound)
            bound2[pat.var] = tgt.var
            return match(pat.body, tgt.body, env, bound2)
        return False

    return match(pattern, target, dict(env), {})


# ---------------------------------------------------------------------------
# Alpha-canonical forms

_CANON_PREFIX = "·"  # not a parseable label character


def _canon(phi, env, depth):
    if isinstance(phi, (Atom, Falsum, Implies, G, H, X)):
        if isinstance(phi, Implies):
            return Implies(_canon(phi.left, env, depth), _canon(phi.right, env, depth))
        if isinstance(phi, (G, H, X)):
            return type(phi)(_canon(phi.body, env, depth))
        return phi
    if isinstance(phi, (Less, Eq)):
        return type(phi)(env.get(phi.x, phi.x), env.get(phi.y, phi.y))
    if isinstance(phi, Empty):
        return phi
    if isinstance(phi, RImplies):
        return RImplies(_canon(phi.left, env, depth), _canon(phi.right, env, depth))
    if isinstance(phi, Forall):
        name = f"{_CANON_PREFIX}{depth}"
        env2 = dict(env)
        env2[phi.var] = name
        return Forall(name, _canon(phi.body, env2, depth + 1))
    raise TypeError(f"not a core formula: {phi!r}")


def canon(phi):
    """Expanded form with bound variables renamed positionally; use for the
    decidable equality behind rule matching and set membership."""
    phi = expand(phi)
    if isinstance(phi, Lwff):
        return Lwff(phi.label, _canon(phi.formula, {}, 0))
    return _canon(phi, {}, 0)


def core_eq(a, b) -> bool:
    if isinstance(a, Lwff) != isinstance(b, Lwff):
        return False
    return canon(a) == canon(b)
