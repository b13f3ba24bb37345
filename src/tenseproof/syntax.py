"""Abstract syntax for tense formulas and relational formulas over labels.

Two sorts live side by side: labeled formulas ``x : A`` where ``A`` is a
tense formula, and relational formulas over labels (``x < y``, ``x = y``,
``empty``, relational implication and universal quantification).  Each sort
has a minimal core plus derived surface forms that expand away; all kernel
comparisons go through the expanded, alpha-canonical core.

Formulas are hash-consed (Filliâtre & Conchon, *Type-Safe Modular
Hash-Consing*, 2006).  The invariant:

- A node is built only through its class, with its fields by position, as
  in ``Implies(a, b)``, ``G(p)`` or ``Lwff(x, A)``.  The constructor looks
  the class and its arguments up in one intern table of weak references
  and returns the node already there, so equal formulas are the same
  object: ``==`` is ``is``, and the hash is the identity hash, fixed at
  construction.  A node's entry goes when the node dies.  Building a new
  node makes no Python-level call but its constructor.  Nodes are frozen;
  copying or unpickling one returns the interned node.
- A node carries its expansion, its grade and, where it may hold a binder,
  its alpha-canonical form, each computed the first time it is asked for;
  an atom, and an ``Lwff`` over its own expansion, is its own expansion
  from the start.  So ``core_eq(a, b)`` is ``canon(a) is canon(b)``.
- Nothing here recurses on a formula: each traversal keeps its pending work
  on a list, so formulas of any depth expand, compare and substitute.
- Labels are substituted by one walk, ``substitute_labels``, which stops
  where a node's memoized free labels miss its environment, and matched
  up to bound names by one, ``match_labels``; ``label_skeleton`` parts a
  formula into its shape and its labels, for keys up to renaming.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from types import MethodType
from typing import Iterator, Union

Label = str


# ---------------------------------------------------------------------------
# Interned nodes

# (class, *fields) -> a weak reference to the node with those fields.  The
# reference's callback is ``_REFS.pop`` bound to the key as a method (lighter
# than a ``functools.partial``), so the entry goes when its node dies, and a
# lookup, an insert and a removal are C calls only.  This is sound because a
# formula node is in no reference cycle: it dies, and its callback runs, as
# its last reference goes (or, if only cyclic garbage holds it, in the
# collection that frees it), so no node of its key can be built between its
# death and the callback, to have its entry popped by it.
_REFS: dict = {}
_ref = weakref.ref
_drop = _REFS.pop
_new = object.__new__
_set = object.__setattr__    # nodes are frozen: only this module writes them
_SELF = object()             # a memo meaning "the node itself", with no cycle
_KID_FIELDS = ("left", "right", "body", "formula")


class _Frozen:
    """The one frozen guard, of formula nodes and records: only this module
    writes their slots, through ``_set``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """A frozen record: its fields are its ``__slots__``, which its
    ``__init__`` writes through ``_set``.  ``==``, ``hash`` and ``repr`` are
    a frozen dataclass's: over the tuple of fields, between records of one
    class."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _Node(_Frozen):
    """A formula node.  Its memo slots hold ``None`` until asked for: ``_x``
    the expansion, ``_g`` the grade.  ``_binder`` tells whether the
    expansion may hold a ``Forall``.  Each formula class states its fields
    once, as ``__slots__``; ``__init_subclass__`` derives from them its
    ``_fields`` and ``_kids`` (the child nodes)."""

    __slots__ = ("_x", "_g", "__weakref__")
    _memos = ("_x", "_g")
    _binder = False
    _binds = None       # for a relational node: does its class bind?

    def __init_subclass__(cls):
        if "_memos" in cls.__dict__:    # a base such as _Rel, not a formula
            return
        cls._fields = cls.__slots__
        cls._slots = cls._fields + cls._memos
        cls._blank = (None,) * len(cls._memos)
        kids = [f for f in cls._fields if f in _KID_FIELDS]
        if len(kids) == 2:
            cls._kids = staticmethod(attrgetter(*kids))
        elif kids:
            one = attrgetter(*kids)
            cls._kids = staticmethod(lambda n: (one(n),))
        else:
            cls._kids = staticmethod(lambda n: ())
        # a relational node may hold a binder where its class binds or a
        # kid may: ``True in _flags(node)``, a C-level read, with ``_binds``
        # named twice so that it gives a tuple even for a class without kids
        cls._flags = attrgetter("_binds", "_binds",
                                *(f"{k}._binder" for k in kids))

    def __new__(cls, *args):
        key = (cls, *args)
        ref = _REFS.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(args) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        node = _new(cls)
        for name, value in zip(cls._slots, args + cls._blank):
            _set(node, name, value)
        if cls._binds is not None:
            _set(node, "_binder", True in cls._flags(node))
        # an atom, and a label on an expanded formula, is its own expansion
        if cls in _ATOMS or cls is Lwff and getattr(args[1], "_x", None) is _SELF:
            _set(node, "_x", _SELF)
        _REFS[key] = _ref(node, MethodType(_drop, key))
        return node

    def __repr__(self) -> str:
        """``Class(field=value, ...)``, without recursion: pending work is
        a stack of texts and ``(value,)`` entries."""
        out: list = []
        todo: list = [(self,)]
        while todo:
            item = todo.pop()
            if type(item) is str:
                out.append(item)
                continue
            value = item[0]
            if not isinstance(value, _Node):
                out.append(repr(value))
                continue
            out.append(f"{type(value).__name__}(")
            todo.append(")")
            fields = value._fields
            for i in range(len(fields) - 1, -1, -1):
                todo += ((getattr(value, fields[i]),),
                         f"{', ' if i else ''}{fields[i]}=")
        return "".join(out)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class _Rel(_Node):
    """A relational node: ``_l`` memoizes its free labels and ``_c`` its
    alpha-canonical form, if it may hold a binder."""

    __slots__ = ("_l", "_c", "_binder")
    _memos = _Node._memos + ("_l", "_c")
    _binds = False      # does the class itself bind (or expand to a binder)?


# ---------------------------------------------------------------------------
# Tense formulas

class Atom(_Node):
    __slots__ = ("name",)


class Falsum(_Node):
    __slots__ = ()


class Implies(_Node):
    __slots__ = ("left", "right")


class G(_Node):
    __slots__ = ("body",)


class H(_Node):
    __slots__ = ("body",)


class X(_Node):
    # Core only when the logic profile enables the next-step fragment.
    __slots__ = ("body",)


class Not(_Node):
    __slots__ = ("body",)


class And(_Node):
    __slots__ = ("left", "right")


class Or(_Node):
    __slots__ = ("left", "right")


class Top(_Node):
    __slots__ = ()


class F(_Node):
    __slots__ = ("body",)


class P(_Node):
    __slots__ = ("body",)


# ---------------------------------------------------------------------------
# Relational formulas

class Less(_Rel):
    __slots__ = ("x", "y")


class Eq(_Rel):
    __slots__ = ("x", "y")


class Empty(_Rel):
    __slots__ = ()


class RImplies(_Rel):
    __slots__ = ("left", "right")


class Forall(_Rel):
    __slots__ = ("var", "body")
    _binds = True


class RNot(_Rel):
    __slots__ = ("body",)


class RAnd(_Rel):
    __slots__ = ("left", "right")


class ROr(_Rel):
    __slots__ = ("left", "right")


class Exists(_Rel):
    __slots__ = ("var", "body")
    _binds = True


class Prec(_Rel):
    # "immediately precedes": x < y with no point strictly in between.
    __slots__ = ("x", "y")
    _binds = True


RFormula = Union[Less, Eq, Empty, RImplies, Forall, RNot, RAnd, ROr, Exists, Prec]


class Lwff(_Node):
    __slots__ = ("label", "formula")


_ATOMS = (Atom, Falsum, Less, Eq, Empty)    # each its own expansion


class ProofContext(_Record):
    __slots__ = ("gamma", "delta")

    def __init__(self, gamma: frozenset, delta: frozenset):
        _set(self, "gamma", gamma)      # of Lwff
        _set(self, "delta", delta)      # of RFormula

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


def post_order(root, done) -> Iterator:
    """The nodes under ``root``, itself included, that ``done`` rejects,
    each after its children: the one traversal of formulas.  The caller
    makes ``done`` accept each node before taking the next, so a node that
    occurs more than once comes once, and a node ``done`` already accepts
    is not entered."""
    stack = [(root, False)]
    while stack:
        n, ready = stack.pop()
        if done(n):
            continue
        if ready:
            yield n
        else:
            stack.append((n, True))
            stack += [(k, False) for k in n._kids(n)]


# ---------------------------------------------------------------------------
# Fresh names

def fresh_label(avoid, base: str = "w") -> Label:
    """Smallest ``base``+counter name not colliding with ``avoid``."""
    return LabelGen(avoid, base)()


class LabelGen:
    """Hands out the names ``fresh_label`` gives with each name it gave
    added to ``avoid``; the counter resumes where it stopped."""

    def __init__(self, avoid=(), base: str = "w"):
        self.avoid = set(avoid)
        self.base = base
        self.i = 0

    def __call__(self) -> Label:
        while True:
            self.i += 1
            name = f"{self.base}{self.i}"
            if name not in self.avoid:
                return name


# ---------------------------------------------------------------------------
# Expansion of derived forms

_F = Falsum()
_E = Empty()


def _expand_prec(n):
    # x <. y == x < y /\ forall v. !(x < v) \/ !(v < y)
    v = fresh_label({n.x, n.y}, base="u")
    between = ROr(RNot(Less(n.x, v)), RNot(Less(v, n.y)))
    return expand(RAnd(Less(n.x, n.y), Forall(v, between)))


# each class's expansion, from the (memoized) expansions of its children
_EXPANSION = {
    Atom: lambda n: n, Falsum: lambda n: n,
    Implies: lambda n: Implies(expand(n.left), expand(n.right)),
    G: lambda n: G(expand(n.body)),
    H: lambda n: H(expand(n.body)),
    X: lambda n: X(expand(n.body)),
    Not: lambda n: Implies(expand(n.body), _F),
    Top: lambda n: Implies(_F, _F),
    # A & B == ~(A -> ~B)
    And: lambda n: Implies(Implies(expand(n.left), Implies(expand(n.right), _F)), _F),
    # A | B == ~A -> B
    Or: lambda n: Implies(Implies(expand(n.left), _F), expand(n.right)),
    # F A == ~G~A
    F: lambda n: Implies(G(Implies(expand(n.body), _F)), _F),
    P: lambda n: Implies(H(Implies(expand(n.body), _F)), _F),
    Less: lambda n: n, Eq: lambda n: n, Empty: lambda n: n,
    RImplies: lambda n: RImplies(expand(n.left), expand(n.right)),
    Forall: lambda n: Forall(n.var, expand(n.body)),
    RNot: lambda n: RImplies(expand(n.body), _E),
    # r /\ s == !(r => !s)
    RAnd: lambda n: RImplies(RImplies(expand(n.left), RImplies(expand(n.right), _E)), _E),
    # r \/ s == !r => s
    ROr: lambda n: RImplies(RImplies(expand(n.left), _E), expand(n.right)),
    # exists x. r == !forall x. !r
    Exists: lambda n: RImplies(Forall(n.var, RImplies(expand(n.body), _E)), _E),
    Prec: _expand_prec,
    Lwff: lambda n: Lwff(n.label, expand(n.formula)),
}


def _expanded(n) -> bool:
    return n._x is not None


def expand(phi):
    """Rewrite to the minimal core; idempotent.  Computed once per node."""
    try:
        x = phi._x
    except AttributeError:
        raise TypeError(f"not a formula: {phi!r}") from None
    if x is None:
        for n in post_order(phi, _expanded):
            core = _EXPANSION[type(n)](n)
            if core is n:
                _set(n, "_x", _SELF)
            else:
                _set(n, "_x", core)
                if core._x is None:         # an expansion is its own
                    _set(core, "_x", _SELF)
        x = phi._x
    return phi if x is _SELF else x


def is_atomic(phi) -> bool:
    """Atomic after expansion: a propositional variable or falsum for lwffs;
    ``empty``, ``x < y`` or ``x = y`` for rwffs."""
    phi = expand(phi)
    if isinstance(phi, Lwff):
        return isinstance(phi.formula, (Atom, Falsum))
    return isinstance(phi, (Atom, Falsum, Less, Eq, Empty))


# ---------------------------------------------------------------------------
# Free labels, substitution and matching: one walk each

def _labelled(n) -> bool:
    return n._l is not None


def labels_of(e) -> frozenset:
    """Free labels of a formula, lwff, context, or iterable of those;
    computed once per relational node."""
    if isinstance(e, Lwff):
        return frozenset({e.label})
    if is_formula(e):
        return frozenset()  # tense formulas carry no labels inside
    if isinstance(e, _Rel):
        if e._l is None:
            for n in post_order(e, _labelled):
                cls = type(n)
                if cls in (Less, Eq, Prec):
                    free = frozenset((n.x, n.y))
                elif cls in (Forall, Exists):
                    free = n.body._l - {n.var}
                else:
                    free = frozenset().union(*(k._l for k in n._kids(n)))
                _set(n, "_l", free)
        return e._l
    if isinstance(e, (ProofContext, list, tuple, set, frozenset)):
        return frozenset().union(*map(labels_of, e))
    raise TypeError(f"no labels in {e!r}")


def substitute_label(phi, new: Label, old: Label):
    """Replace every free occurrence of ``old`` by ``new``, capture-avoiding."""
    return phi if new == old else substitute_labels(phi, {old: new})


def substitute_labels(phi, env: dict):
    """Replace each free label ``env`` maps by its image, all at once and
    capture-avoiding: a binder that would capture an image is renamed
    ``fresh_label(free | images, "u")`` (its body's free labels and their
    images).  A subtree none of whose free labels ``env`` maps is returned
    as it is."""
    # tasks: (node, env) pushes the node substituted on ``out``; (None,
    # (cls, head, k)) builds a ``cls`` from ``head`` and the last k results
    out: list = []
    todo = [(phi, env)]
    while todo:
        n, env = todo.pop()
        cls = type(n)
        if n is None:
            cls, head, k = env
            kids = out[-k:]
            del out[-k:]
            out.append(cls(*head, *kids))
        elif env.keys().isdisjoint(labels_of(n)):
            out.append(n)
        elif cls in (Less, Eq, Prec):
            out.append(cls(env.get(n.x, n.x), env.get(n.y, n.y)))
        elif cls is Lwff:
            out.append(Lwff(env[n.label], n.formula))
        else:
            head = ()
            if cls in (Forall, Exists):     # its own variable is not free in it
                env = {x: env[x] for x in labels_of(n) if x in env}
                var = n.var
                if var in env.values():
                    # the binder would capture an incoming label: rename it too
                    var = fresh_label(labels_of(n.body) | set(env.values()),
                                      base="u")
                    env[n.var] = var
                head = (var,)
            kids = n._kids(n)
            todo.append((None, (cls, head, len(kids))))
            todo += [(k, env) for k in reversed(kids)]
    return out.pop()


def match_labels(pattern, target, holes):
    """The labels to put for the ``holes`` free in ``pattern`` to make it
    ``target`` (both expanded) up to bound names, as a dict, or ``None``.
    A hole takes only a label free in ``target``; a bound label matches
    only the one bound by the binder matched with its own."""
    env: dict = {}
    # each side's labels -> the number of the binder pair that binds them,
    # None (or absent) for a free label
    pb, tb = {}, {}
    pairs = 0
    todo = [(expand(pattern), expand(target))]
    while todo:
        p, t = todo.pop()
        cls = type(p)
        if p is None:                   # leave a binder pair, restoring
            pb[t[0]], tb[t[1]] = t[2], t[3]     # what its labels were
        elif cls is not type(t):
            return None
        elif cls is Forall:
            todo += [(None, (p.var, t.var, pb.get(p.var), tb.get(t.var))),
                     (p.body, t.body)]
            pairs += 1
            pb[p.var] = tb[t.var] = pairs
        elif cls is RImplies:
            todo += [(p.right, t.right), (p.left, t.left)]
        elif cls in (Less, Eq):
            for a, b in ((p.x, t.x), (p.y, t.y)):
                pair = pb.get(a)
                if pair != tb.get(b) or pair is None and b != (
                        env.setdefault(a, b) if a in holes else a):
                    return None
        elif p is not t:                # the label-free nodes, and ``Lwff``
            return None
    return env


def label_skeleton(phi, labels: list) -> tuple:
    """``phi`` with its labels left out, as a tuple; its labels, bound ones
    included, go on ``labels`` in the order a pre-order walk meets them.
    Two formulas with equal skeletons, whose label lists repeat at the same
    places, are images of each other under a one-to-one renaming of labels.
    A tense formula carries no labels, so an lwff's skeleton is its class
    and its formula; only a relational formula is walked."""
    cls = type(phi)
    if cls is Lwff:
        labels.append(phi.label)
        return (Lwff, phi.formula)
    if not isinstance(phi, _Rel):
        return (phi,)
    out = []
    todo = [phi]
    while todo:
        n = todo.pop()
        cls = type(n)
        out.append(cls)
        if cls in (Less, Eq, Prec):
            labels += (n.x, n.y)
        else:
            if cls in (Forall, Exists):
                labels.append(n.var)
            todo += n._kids(n)[::-1]
    return tuple(out)


# ---------------------------------------------------------------------------
# Grade and subformulas

def _graded(n) -> bool:
    return n._g is not None


_CONNECTIVES = (Implies, G, H, X, RImplies, Forall)


def grade(phi) -> int:
    """Number of connective, operator and quantifier occurrences in the
    expansion of ``phi``.  Computed once per node."""
    g = phi._g if isinstance(phi, _Node) else None
    if g is None:
        core = expand(phi)
        for n in post_order(core, _graded):
            own = 1 if isinstance(n, _CONNECTIVES) else 0
            _set(n, "_g", own + sum(k._g for k in n._kids(n)))
        g = core._g
        _set(phi, "_g", g)
    return g


def _formula_part(e):
    return e.formula if isinstance(e, Lwff) else e


def subformulas(a) -> list:
    """The distinct subformulas of the expansion of ``a`` (``a`` itself
    included; an lwff's label is dropped), root first."""
    root = _formula_part(expand(a))
    seen = {root}
    out = [root]
    for n in out:
        for k in n._kids(n):
            if k not in seen:
                seen.add(k)
                out.append(k)
    return out


def is_subformula(b, a) -> bool:
    """Is ``b`` a subformula of ``a``?  Both sides are expanded first; for
    lwffs the labels are ignored."""
    return SubformulaPool([a]).has_variant(b)


class SubformulaPool:
    """The subformulas of ``formulas``, for membership tests.

    ``has_variant(b)`` asks for ``b`` up to alpha-equivalence.  A
    subformula that holds no binder is its own canonical form, so for those
    this is set membership; one that holds a binder is canonicalized only
    when a formula of its grade is asked for.  ``b in pool`` also accepts a
    label instance of a subformula (``b`` obtained by substituting labels
    for its free labels) when ``b`` is relational with free labels."""

    def __init__(self, formulas):
        self.subformulas = list({s: None for f in formulas
                                 for s in subformulas(f)})
        self.plain = set()
        self.binding: dict = {}     # grade -> the subformulas with a binder
        for s in self.subformulas:
            if s._binder:
                self.binding.setdefault(grade(s), []).append(s)
            else:
                self.plain.add(s)

    def has_variant(self, b) -> bool:
        b = canon(_formula_part(b))
        if not b._binder:
            return b in self.plain
        return any(canon(s) is b for s in self.binding.get(grade(b), ()))

    def __contains__(self, b) -> bool:
        b = _formula_part(expand(b))
        if self.has_variant(b):
            return True
        return (not is_formula(b) and bool(labels_of(b))
                and any(match_labels(s, b, labels_of(s)) is not None
                        for s in self.subformulas))


# ---------------------------------------------------------------------------
# Alpha-canonical forms

_CANON_PREFIX = "·"  # not a parseable label character


def _alpha_canonical(core):
    """``core`` with each bound variable renamed ``·d``, ``d`` the number of
    binders above its binder (its de Bruijn level)."""
    levels: dict = {}       # variable -> levels of its binders above
    depth = 0               # binders above
    out: list = []
    todo = [(core, False)]
    while todo:
        n, done = todo.pop()
        cls = type(n)
        if cls is RImplies:
            if done:
                right = out.pop()
                out.append(RImplies(out.pop(), right))
            else:
                todo += [(n, True), (n.right, False), (n.left, False)]
        elif cls is Forall:
            if done:
                depth -= 1
                levels[n.var].pop()
                out.append(Forall(f"{_CANON_PREFIX}{depth}", out.pop()))
            else:
                levels.setdefault(n.var, []).append(depth)
                depth += 1
                todo += [(n, True), (n.body, False)]
        elif cls in (Less, Eq):
            out.append(cls(*(f"{_CANON_PREFIX}{levels[v][-1]}" if levels.get(v)
                             else v for v in (n.x, n.y))))
        elif cls is Empty:
            out.append(n)
        else:
            raise TypeError(f"not a core formula: {n!r}")
    return out.pop()


def canon(phi):
    """Expanded form with bound variables renamed positionally; use for the
    decidable equality behind rule matching and set membership.  A node
    that holds no binder is its own expansion's canonical form; any other
    computes its form once."""
    try:
        binder = phi._binder
    except AttributeError:
        raise TypeError(f"not a formula: {phi!r}") from None
    if not binder:
        return expand(phi)
    c = phi._c
    if c is None:
        c = _alpha_canonical(expand(phi))
        _set(phi, "_c", _SELF if c is phi else c)
        return c
    return phi if c is _SELF else c


def core_eq(a, b) -> bool:
    """Equal after expansion, up to the names of bound variables."""
    return canon(a) is canon(b)
