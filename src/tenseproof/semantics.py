"""Finite Kripke models: truth evaluation, frame conditions, bounded
validity search, and the semantic probe for checked derivations.

Finite frames for the base logic are strict linear orders, one per size up
to isomorphism, so the search enumerates a canonical chain per world count,
then all valuations over the occurring atoms and all label interpretations,
in a fixed deterministic order (smallest frame first, then lexicographic),
and returns the first refutation in that order.  Serial and dense profiles
have no useful finite frames and are rejected; every chain has the other
extras (a first and a final point, left and right discreteness), so no
chain is skipped.

The search is the labeling algorithm of explicit-state model checking
(Clarke, Emerson & Sistla, 1986), bit-sliced over valuations.  The labelled
formulas of the context and the goal are compiled once into one post-order
program in which equal subformulas share a slot.  Valuations are numbered
in ``itertools.product`` order (atom-major, world 0 first, False before
True), so cell (atom ``k``, world ``w``) is bit ``n (A - 1 - k) + n - 1 -
w`` of the index.  Per block of ``2 ** BLOCK_BITS`` valuations one run of
the program gives each slot an int per world whose bit ``j`` is its truth
there under valuation ``j`` of the block (``A -> B`` is ``~A | B``; on a
chain ``G A`` holds at ``w`` iff ``A`` and ``G A`` hold at ``w + 1``, so
``G``, ``H`` and ``X`` read one neighbour per world, as in Hintikka
sequences).  Labels that atomic ``x = y`` hypotheses equate share one
world, so interpretations range over these classes.  The relational
formulas are evaluated once per frame and interpretation, and the lowest
refuting bit is the first countermodel.  ``eval_entity`` and ``entails``
evaluate one formula in any model, without recursion: a tense formula by
the set of worlds where each subformula holds, a relational one by a loop
that tries interpretations in order.  ``tenseproof eval`` uses them, and
they are the reference the search is tested against.
"""
from __future__ import annotations

import functools
import itertools
import operator

from .rules import AXIOMS, INFINITE_EXTRAS, KL, LogicProfile
from .syntax import (
    Atom, Empty, Eq, Falsum, Forall, G, H, Implies, Less, Lwff, ProofContext,
    RImplies, X, _Record, _set, expand, is_formula, labels_of, post_order,
)


class UnboundLabel(KeyError):
    """The interpretation lacks a label the formula mentions."""

    def __str__(self) -> str:
        return f"unbound label: {self.args[0]}"


class FinitelyVacuous(ValueError):
    """The profile's frame conditions admit no useful finite models."""


Interpretation = dict  # Label -> world


class Model(_Record):
    """``n`` worlds, ``prec`` the ordered world pairs, and ``valuation``
    mapping an atom to its frozenset of worlds."""

    __slots__ = ("n", "prec", "valuation")

    def __init__(self, n: int, prec: frozenset = frozenset(),
                 valuation: dict | None = None):
        _set(self, "n", n)
        _set(self, "prec", prec)
        _set(self, "valuation", {} if valuation is None else valuation)

    @staticmethod
    def chain(n: int, valuation=None) -> "Model":
        return Model(n, frozenset(itertools.combinations(range(n), 2)),
                     dict(valuation or {}))

    @property
    def worlds(self) -> range:
        return range(self.n)

    def holds_atom(self, world: int, name: str) -> bool:
        return world in self.valuation.get(name, ())

    def successors(self, world: int):
        return [w for w in self.worlds if (world, w) in self.prec]

    def predecessors(self, world: int):
        return [w for w in self.worlds if (w, world) in self.prec]

    def immediate_successors(self, world: int):
        return [w for w in self.successors(world)
                if not any((world, u) in self.prec and (u, w) in self.prec
                           for u in self.worlds)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "prec": sorted(map(list, self.prec)),
            "valuation": {a: sorted(ws) for a, ws in sorted(self.valuation.items())},
        }

    @staticmethod
    def from_json(obj: dict) -> "Model":
        """Read the wire form; anything but an object with a positive
        integer ``n``, ``prec`` pairs of worlds and a valuation mapping
        atoms to lists of worlds is a ``ValueError``."""
        from .derivation import brief_repr
        if not isinstance(obj, dict):
            raise ValueError(f"a model must be a JSON object, not {brief_repr(obj)}")
        n = obj.get("n")
        if type(n) is not int or n < 1:
            raise ValueError(f"model 'n' must be a positive integer, not {brief_repr(n)}")
        prec = obj.get("prec", [])
        if not isinstance(prec, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in prec):
            raise ValueError(f"model 'prec' must list world pairs, not {brief_repr(prec)}")
        valuation = obj.get("valuation", {})
        if not isinstance(valuation, dict) or not all(
                isinstance(ws, list) for ws in valuation.values()):
            raise ValueError("model 'valuation' must map atoms to lists of "
                             f"worlds, not {brief_repr(valuation)}")
        return Model(
            n,
            frozenset((_world_of(n, i), _world_of(n, j)) for i, j in prec),
            {a: frozenset(_world_of(n, w) for w in ws)
             for a, ws in valuation.items()},
        )


def _world_of(n: int, w) -> int:
    if type(w) is not int or not 0 <= w < n:
        from .derivation import brief_repr
        raise ValueError(f"{brief_repr(w)} is not a world of a model with n = {n}")
    return w


class Countermodel(_Record):
    """A ``model``, an interpretation ``lam`` and the refuted formula
    ``failing``."""

    __slots__ = ("model", "lam", "failing")

    def __init__(self, model: Model, lam: dict, failing):
        _set(self, "model", model)
        _set(self, "lam", lam)
        _set(self, "failing", failing)

    def to_json(self) -> dict:
        from .parser import render
        out = self.model.to_json()
        out["lambda"] = dict(sorted(self.lam.items()))
        out["failing"] = render(self.failing)
        return out


# ---------------------------------------------------------------------------
# Frame conditions

# each condition of Kl's frames, a strict linear order, with its axiom
_KL_CONDITIONS = {"irreflexive": "irrefl_lt", "transitive": "trans_lt",
                  "connected": "conn"}


def check_frame(m: Model, profile: LogicProfile = KL) -> dict:
    """Per-condition verdicts; ``ok`` aggregates them.  A frame condition
    is the truth of its axiom in the frame: the three of Kl, and each extra
    of ``profile`` but the next-step fragment, which has no axiom."""
    conditions = {**_KL_CONDITIONS,
                  **{x: x for x in sorted(profile.extras - {"mtl"})}}
    verdicts = {name: _eval_rwff(m, {}, expand(AXIOMS[axiom]))
                for name, axiom in conditions.items()}
    verdicts["ok"] = all(verdicts.values())
    return verdicts


# ---------------------------------------------------------------------------
# Truth

_RELATED = {G: Model.successors, H: Model.predecessors,
            # universal reading over immediate successors; on the intended
            # frames (right-serial, right-discrete, connected) the
            # immediate successor exists and is unique
            X: Model.immediate_successors}


def _holds(m: Model, phi) -> set:
    """The worlds where the core formula ``phi`` holds, from the sets of
    its subformulas, each computed once."""
    every = m.worlds
    related: dict = {}      # operator -> (world, its related worlds) pairs
    worlds: dict = {}
    for n in post_order(phi, worlds.__contains__):
        cls = type(n)
        if cls is Atom:
            worlds[n] = {w for w in every if m.holds_atom(w, n.name)}
        elif cls is Falsum:
            worlds[n] = set()
        elif cls is Implies:
            left, right = worlds[n.left], worlds[n.right]
            worlds[n] = {w for w in every if w not in left or w in right}
        elif cls in _RELATED:
            if cls not in related:
                related[cls] = [(w, _RELATED[cls](m, w)) for w in every]
            body = worlds[n.body]
            worlds[n] = {w for w, later in related[cls] if body.issuperset(later)}
        else:
            raise TypeError(f"not a core formula: {n!r}")
    return worlds[phi]


def _eval_rwff(m: Model, lam: Interpretation, rho) -> bool:
    """Truth of the core rwff ``rho``, left to right with short cuts, as a
    loop over pending ``(node, interpretation, step)`` entries.  ``step``
    is 1 once an implication's antecedent holds, and for ``forall`` it is
    the next world to try, under an extended interpretation.  A ``forall``
    whose variable is not free in its body, on a model with a world, is its
    body."""
    value = None
    todo = [(rho, lam, 0)]
    while todo:
        n, env, step = todo.pop()
        cls = type(n)
        if cls is RImplies:
            if step == 0:
                todo += [(n, env, 1), (n.left, env, 0)]
            elif value:
                todo.append((n.right, env, 0))
            else:
                value = True
        elif cls is Forall:
            if step == 0 and m.n and n.var not in labels_of(n.body):
                todo.append((n.body, env, 0))
            elif step > 0 and not value:
                continue
            elif step == m.n:
                value = True
            else:
                todo += [(n, env, step + 1), (n.body, {**env, n.var: step}, 0)]
        elif cls is Less:
            value = (_world(env, n.x), _world(env, n.y)) in m.prec
        elif cls is Eq:
            value = _world(env, n.x) == _world(env, n.y)
        elif cls is Empty:
            value = False
        else:
            raise TypeError(f"not a core rwff: {n!r}")
    return value


def _world(lam: Interpretation, label: str) -> int:
    try:
        return lam[label]
    except KeyError:
        raise UnboundLabel(label) from None


def _split(entity):
    """The expanded core of a context member or goal, as ``(lwff, None)``
    or ``(None, rwff)``."""
    if isinstance(entity, Lwff):
        return expand(entity), None
    if is_formula(entity):
        raise TypeError("a bare tense formula needs a label; evaluate an lwff")
    return None, expand(entity)


def eval_entity(m: Model, lam: Interpretation, phi) -> bool:
    """Truth of an lwff or rwff under an interpretation (expands first)."""
    lwff, rwff = _split(phi)
    if lwff is None:
        return _eval_rwff(m, lam, rwff)
    return _world(lam, lwff.label) in _holds(m, lwff.formula)


def entails(m: Model, lam: Interpretation, ctx: ProofContext, phi) -> bool:
    """Does truth of the whole context force truth of ``phi`` here?"""
    if all(eval_entity(m, lam, a) for a in ctx):
        return eval_entity(m, lam, phi)
    return True


# ---------------------------------------------------------------------------
# Bounded search: the labeling algorithm on blocks of valuations

# the valuations of one block are the low BLOCK_BITS bits of their index
BLOCK_BITS = 12


def _require_finite(profile: LogicProfile) -> None:
    if not profile.finitely_modelable():
        bad = sorted(profile.extras & INFINITE_EXTRAS)
        raise FinitelyVacuous(
            f"profile extras {bad} admit no useful finite frames")


def _compile(formulas):
    """One post-order program for the core ``formulas``: instruction ``i``
    is ``(kind, a, b)`` and computes slot ``i`` from earlier slots ``a``
    and ``b`` (an atom's ``a`` is its name).  Equal subformulas are one
    node, and the slots are keyed by node, so they share a slot.  Returns
    the program and each formula's slot."""
    slot: dict = {}
    program = []
    for root in formulas:
        for phi in post_order(root, slot.__contains__):
            kind = type(phi)
            operands = ([phi.name] if kind is Atom
                        else [slot[c] for c in phi._kids(phi)])
            slot[phi] = len(program)
            program.append((kind, *(operands + [None, None])[:2]))
    return program, [slot[f] for f in formulas]


def _label_block(program, cells: dict, n: int, ones: int) -> list:
    """Bit ``j`` of ``slots[i][w]``: instruction ``i``'s truth at world ``w``
    of the ``n``-chain under valuation ``j`` of the block ``ones`` (atoms read
    ``cells``).  ``G`` is a suffix AND, ``H`` a prefix AND, ``X`` a shift."""
    slots: list = []
    for kind, a, b in program:
        if kind is Implies:
            s = [(x ^ ones) | y for x, y in zip(slots[a], slots[b])]
        elif kind is Atom:
            s = cells[a]
        elif kind is Falsum:
            s = [0] * n
        elif kind is X:
            s = slots[a][1:] + [ones]
        elif kind is H:
            s = list(itertools.accumulate(slots[a][:-1], operator.and_,
                                          initial=ones))
        else:
            s = list(itertools.accumulate(reversed(slots[a][1:]),
                                          operator.and_, initial=ones))[::-1]
        slots.append(s)
    return slots


def _label_classes(labels, rels) -> dict:
    """Each of the sorted ``labels`` with the number of its class under the
    atomic ``x = y`` in ``rels``, numbered in the order of least labels."""
    least = {x: x for x in labels}

    def find(x):
        while least[x] != x:
            least[x] = x = least[least[x]]
        return x
    for r in rels:
        if type(r) is Eq:
            a, b = sorted((find(r.x), find(r.y)))
            least[b] = a
    number: dict = {}
    return {x: number.setdefault(find(x), len(number)) for x in labels}


def _relational_part_refutes(m: Model, lam: Interpretation, rels,
                             goal_rel) -> bool:
    """The relational hypotheses hold and a relational goal, if any,
    fails."""
    return (all(_eval_rwff(m, lam, r) for r in rels)
            and (goal_rel is None or not _eval_rwff(m, lam, goal_rel)))


def find_countermodel(ctx: ProofContext, phi, max_worlds: int = 5,
                      profile: LogicProfile = KL):
    """Exhaustive refutation search over canonical chains of up to
    ``max_worlds`` worlds; returns the first countermodel or None."""
    _require_finite(profile)
    hyps = [_split(e) for e in ctx]
    goal, goal_rel = _split(phi)
    rels = [r for _, r in hyps if r is not None]
    # equality hypotheses hold by construction on one world per class
    index = _label_classes(sorted(labels_of(ctx) | labels_of(phi)), rels)
    classes = len(set(index.values()))
    rels = [r for r in rels if type(r) is not Eq]
    lwffs = [h for h, _ in hyps if h is not None]
    if goal is not None:
        lwffs.append(goal)
    program, slots = _compile([h.formula for h in lwffs])
    atoms = sorted({a for kind, a, _ in program if kind is Atom})
    # (class, slot) per labelled hypothesis; the goal's comes last
    tests = [(index[h.label], s) for h, s in zip(lwffs, slots)]
    goal_test = tests.pop() if goal is not None else None
    relational = bool(rels) or goal_rel is not None

    for n in range(1, max_worlds + 1):
        if relational:
            # the relational part sees only the frame and the labels
            frame = Model.chain(n)
            lams = [a for a in itertools.product(range(n), repeat=classes)
                    if _relational_part_refutes(
                        frame, {x: a[k] for x, k in index.items()},
                        rels, goal_rel)]
            if not lams:
                continue
        # cell (atom k, world w) is bit n (A - 1 - k) + n - 1 - w of the index
        bits = [[n * (len(atoms) - 1 - k) + n - 1 - w for w in range(n)]
                for k in range(len(atoms))]
        low = min(len(atoms) * n, BLOCK_BITS)
        ones = (1 << (1 << low)) - 1
        # bit j of pattern[b] is bit b of j
        pattern = [ones // ((1 << (2 << b)) - 1) * ((1 << (1 << b)) - 1)
                   << (1 << b) for b in range(low)]
        for high in range(1 << (len(atoms) * n - low)):
            # a low cell is its pattern, a high one all ones or none
            cells = {a: [pattern[b] if b < low
                         else -(high >> (b - low) & 1) & ones for b in cs]
                     for a, cs in zip(atoms, bits)}
            truth = _label_block(program, cells, n, ones)
            # per class and world, the valuations under which the labelled
            # hypotheses hold there and a labelled goal fails there
            allowed = [[ones] * n for _ in range(classes)]
            for i, s in tests:
                allowed[i] = [x & y for x, y in zip(allowed[i], truth[s])]
            if goal_test is not None:
                i, s = goal_test
                allowed[i] = [x & ~y for x, y in zip(allowed[i], truth[s])]
            if relational:
                refuting = 0
                for lam in lams:
                    r = ones
                    for per_world, w in zip(allowed, lam):
                        r &= per_world[w]
                    refuting |= r
            else:
                refuting = ones
                for per_world in allowed:
                    refuting &= functools.reduce(operator.or_, per_world)
            if not refuting:
                continue
            # the first refuting valuation, and under it the first
            # interpretation in itertools.product order whose worlds are
            # all allowed: the least world per class, unless the relational
            # part rules some out.  A class is ordered by its least label,
            # so this is itertools.product order on labels too
            j = (refuting & -refuting).bit_length() - 1
            holds = [[x >> j & 1 for x in per_world] for per_world in allowed]
            hit = (next(a for a in lams if all(h[w] for h, w in zip(holds, a)))
                   if relational else tuple(h.index(1) for h in holds))
            val = high << low | j
            worlds = {a: frozenset(w for w, b in enumerate(cs) if val >> b & 1)
                      for a, cs in zip(atoms, bits)}
            return Countermodel(Model.chain(n, worlds),
                                {x: hit[k] for x, k in index.items()}, phi)
    return None


class ProbeReport(_Record):
    """The ``status``, "PASS", "FAIL" or "SKIPPED-SEMANTICS", of a probe up
    to ``max_worlds`` worlds, and the ``countermodel`` of a failed one."""

    __slots__ = ("status", "max_worlds", "countermodel")

    def __init__(self, status: str, max_worlds: int,
                 countermodel: Countermodel | None = None):
        _set(self, "status", status)
        _set(self, "max_worlds", max_worlds)
        _set(self, "countermodel", countermodel)


def soundness_probe(report: CheckReport, max_worlds: int = 4,
                    profile: LogicProfile = KL) -> ProbeReport:
    """Search for a countermodel to the entailment of a derivation that
    ``check`` accepted under ``profile`` (its ``report``); any hit would
    expose a kernel bug.  Profiles without useful finite frames are
    reported as skipped."""
    if not report.ok:
        raise ValueError("soundness probe needs a valid derivation")
    try:
        cm = find_countermodel(report.open, report.conclusion, max_worlds,
                               profile)
    except FinitelyVacuous:
        return ProbeReport("SKIPPED-SEMANTICS", max_worlds)
    if cm is None:
        return ProbeReport("PASS", max_worlds)
    return ProbeReport("FAIL", max_worlds, cm)


def load_model(path: str) -> Model:
    from .derivation import load_json
    return Model.from_json(load_json(path))


def load_interpretation(path: str, model: Model) -> Interpretation:
    """An object mapping labels to worlds of ``model``."""
    from .derivation import brief_repr, load_json
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ValueError(
            f"an interpretation must be a JSON object, not {brief_repr(obj)}")
    return {k: _world_of(model.n, w) for k, w in obj.items()}
