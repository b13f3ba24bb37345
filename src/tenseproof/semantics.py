"""Finite Kripke models: truth evaluation, frame conditions, bounded
validity search, and the semantic probe for checked derivations.

Finite frames for the base logic are strict linear orders, one per size up
to isomorphism, so the search enumerates a canonical chain per world count,
then all valuations over the occurring atoms and all label interpretations,
in a fixed deterministic order (smallest frame first, then lexicographic).
Serial and dense profiles have no useful finite frames and are rejected.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .kernel import CheckReport
from .rules import KL, LogicProfile
from .syntax import (
    Atom, Empty, Eq, Falsum, Forall, G, H, Implies, Less, Lwff, ProofContext,
    RImplies, X, expand, is_formula, labels_of,
)


class UnboundLabel(KeyError):
    """The interpretation lacks a label the formula mentions."""


class FinitelyVacuous(ValueError):
    """The profile's frame conditions admit no useful finite models."""


Interpretation = dict  # Label -> world


@dataclass(frozen=True)
class Model:
    n: int
    prec: frozenset = frozenset()          # ordered world pairs
    valuation: dict = field(default_factory=dict)  # atom -> frozenset of worlds

    @staticmethod
    def chain(n: int, valuation=None) -> "Model":
        pairs = frozenset((i, j) for i in range(n) for j in range(n) if i < j)
        return Model(n, pairs, dict(valuation or {}))

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
        return Model(
            int(obj["n"]),
            frozenset((int(i), int(j)) for i, j in obj.get("prec", [])),
            {a: frozenset(ws) for a, ws in obj.get("valuation", {}).items()},
        )


@dataclass(frozen=True)
class Countermodel:
    model: Model
    lam: dict
    failing: object               # the refuted formula

    def to_json(self) -> dict:
        from .parser import render
        out = self.model.to_json()
        out["lambda"] = dict(sorted(self.lam.items()))
        out["failing"] = render(self.failing)
        return out


# ---------------------------------------------------------------------------
# Frame conditions

def _irreflexive(m: Model) -> bool:
    return not any((w, w) in m.prec for w in m.worlds)


def _transitive(m: Model) -> bool:
    return all((a, c) in m.prec
               for (a, b) in m.prec for (b2, c) in m.prec if b == b2)


def _connected(m: Model) -> bool:
    return all(a == b or (a, b) in m.prec or (b, a) in m.prec
               for a in m.worlds for b in m.worlds)


def _first_point(m: Model) -> bool:
    return any(not m.predecessors(w) for w in m.worlds)


def _final_point(m: Model) -> bool:
    return any(not m.successors(w) for w in m.worlds)


def _left_serial(m: Model) -> bool:
    return all(m.predecessors(w) for w in m.worlds)


def _right_serial(m: Model) -> bool:
    return all(m.successors(w) for w in m.worlds)


def _dense(m: Model) -> bool:
    return all(any((a, z) in m.prec and (z, b) in m.prec for z in m.worlds)
               for (a, b) in m.prec)


def _left_discrete(m: Model) -> bool:
    # every pair a < b has an immediate predecessor of b above some point
    return all(any((z, b) in m.prec
                   and not any((z, u) in m.prec and (u, b) in m.prec
                               for u in m.worlds)
                   for z in m.worlds)
               for (a, b) in m.prec)


def _right_discrete(m: Model) -> bool:
    return all(any((a, z) in m.prec
                   and not any((a, u) in m.prec and (u, z) in m.prec
                               for u in m.worlds)
                   for z in m.worlds)
               for (a, b) in m.prec)


_EXTRA_CONDITIONS = {
    "first": _first_point,
    "final": _final_point,
    "lser": _left_serial,
    "rser": _right_serial,
    "dens": _dense,
    "ldiscr": _left_discrete,
    "rdiscr": _right_discrete,
}


def check_frame(m: Model, profile: LogicProfile = KL) -> dict:
    """Per-condition verdicts; ``ok`` aggregates them."""
    verdicts = {
        "irreflexive": _irreflexive(m),
        "transitive": _transitive(m),
        "connected": _connected(m),
    }
    for extra in sorted(profile.extras):
        if extra == "mtl":
            continue
        verdicts[extra] = _EXTRA_CONDITIONS[extra](m)
    verdicts["ok"] = all(verdicts.values())
    return verdicts


# ---------------------------------------------------------------------------
# Truth

def _eval_formula(m: Model, world: int, phi) -> bool:
    if isinstance(phi, Atom):
        return m.holds_atom(world, phi.name)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Implies):
        return (not _eval_formula(m, world, phi.left)) \
            or _eval_formula(m, world, phi.right)
    if isinstance(phi, G):
        return all(_eval_formula(m, w, phi.body) for w in m.successors(world))
    if isinstance(phi, H):
        return all(_eval_formula(m, w, phi.body) for w in m.predecessors(world))
    if isinstance(phi, X):
        # universal reading over immediate successors; on the intended
        # frames (right-serial, right-discrete, connected) the immediate
        # successor exists and is unique
        return all(_eval_formula(m, w, phi.body)
                   for w in m.immediate_successors(world))
    raise TypeError(f"not a core formula: {phi!r}")


def _eval_rwff(m: Model, lam: Interpretation, rho) -> bool:
    if isinstance(rho, Less):
        return (_world(lam, rho.x), _world(lam, rho.y)) in m.prec
    if isinstance(rho, Eq):
        return _world(lam, rho.x) == _world(lam, rho.y)
    if isinstance(rho, Empty):
        return False
    if isinstance(rho, RImplies):
        return (not _eval_rwff(m, lam, rho.left)) or _eval_rwff(m, lam, rho.right)
    if isinstance(rho, Forall):
        # quantification ranges over worlds, via extended interpretations
        return all(_eval_rwff(m, {**lam, rho.var: w}, rho.body)
                   for w in m.worlds)
    raise TypeError(f"not a core rwff: {rho!r}")


def _world(lam: Interpretation, label: str) -> int:
    try:
        return lam[label]
    except KeyError:
        raise UnboundLabel(label) from None


def eval_entity(m: Model, lam: Interpretation, phi) -> bool:
    """Truth of an lwff or rwff under an interpretation (expands first)."""
    if isinstance(phi, Lwff):
        return _eval_formula(m, _world(lam, phi.label), expand(phi.formula))
    if is_formula(phi):
        raise TypeError("a bare tense formula needs a label; evaluate an lwff")
    return _eval_rwff(m, lam, expand(phi))


def entails(m: Model, lam: Interpretation, ctx: ProofContext, phi) -> bool:
    """Does truth of the whole context force truth of ``phi`` here?"""
    if all(eval_entity(m, lam, a) for a in ctx):
        return eval_entity(m, lam, phi)
    return True


# ---------------------------------------------------------------------------
# Bounded search

def _require_finite(profile: LogicProfile) -> None:
    if not profile.finitely_modelable():
        bad = sorted(profile.extras & {"lser", "rser", "dens", "mtl"})
        raise FinitelyVacuous(
            f"profile extras {bad} admit no useful finite frames")


def _atoms_of(entity) -> set:
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


def find_countermodel(ctx: ProofContext, phi, max_worlds: int = 5,
                      profile: LogicProfile = KL):
    """Exhaustive refutation search over canonical chains of up to
    ``max_worlds`` worlds; returns the first countermodel or None."""
    _require_finite(profile)
    atoms = set(_atoms_of(phi))
    for e in ctx:
        atoms |= _atoms_of(e)
    atoms = sorted(atoms)
    labels = sorted(labels_of(ctx) | labels_of(phi))

    for n in range(1, max_worlds + 1):
        frame = Model.chain(n)
        if not check_frame(frame, profile)["ok"]:
            continue
        cells = [(a, w) for a in atoms for w in range(n)]
        for bits in itertools.product((False, True), repeat=len(cells)):
            valuation: dict = {a: set() for a in atoms}
            for (a, w), bit in zip(cells, bits):
                if bit:
                    valuation[a].add(w)
            m = Model(frame.n, frame.prec,
                      {a: frozenset(ws) for a, ws in valuation.items()})
            for assignment in itertools.product(range(n), repeat=len(labels)):
                lam = dict(zip(labels, assignment))
                if not entails(m, lam, ctx, phi):
                    return Countermodel(m, lam, phi)
    return None


@dataclass(frozen=True)
class ProbeReport:
    status: str                   # "PASS" | "FAIL" | "SKIPPED-SEMANTICS"
    max_worlds: int
    countermodel: Countermodel | None = None


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
    with open(path, "r", encoding="utf-8") as fh:
        return Model.from_json(json.load(fh))


def load_interpretation(path: str) -> Interpretation:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return {str(k): int(v) for k, v in obj.items()}
