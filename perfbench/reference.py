"""A fixed slice of interpreter work that gauges how fast the machine runs.

The benchmark runs on shared virtual machines whose speed drifts by up to
40% over seconds to minutes (other tenants load the same cores).  Every run
times one reference slice right after each item, and every timing the run
reports is scaled by ``NOMINAL_S / slice time``: an item is reported at the
speed the machine had while it ran, expressed as if the slice had taken
``NOMINAL_S``.  A change to tenseproof cannot move the slice: it imports
nothing from tenseproof, its inputs are fixed, and the cyclic garbage
collector is paused while it runs, so the size of the program's heap cannot
reach it either.

The work resembles the program's own: formula trees built from a fixed
seed, rewritten to negation normal form, hash-consed, and evaluated on
small linear models.
"""

from __future__ import annotations

import gc
import random
import time

NOMINAL_S = 1e-3            # about one slice on a quiet 2-vCPU Xeon VM


class Node:
    __slots__ = ("op", "kids", "name")

    def __init__(self, op, kids=(), name=None):
        self.op, self.kids, self.name = op, kids, name


def _build(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return Node("atom", (), rng.choice("pqrs"))
    op = rng.choice(("and", "or", "imp", "not", "g", "f"))
    if op in ("not", "g", "f"):
        return Node(op, (_build(rng, depth - 1),))
    return Node(op, (_build(rng, depth - 1), _build(rng, depth - 1)))


def _eval(n, w, val, worlds):
    op = n.op
    if op == "atom":
        return w in val[n.name]
    if op == "not":
        return not _eval(n.kids[0], w, val, worlds)
    if op == "and":
        return _eval(n.kids[0], w, val, worlds) and _eval(n.kids[1], w, val, worlds)
    if op == "or":
        return _eval(n.kids[0], w, val, worlds) or _eval(n.kids[1], w, val, worlds)
    if op == "imp":
        return not _eval(n.kids[0], w, val, worlds) or _eval(n.kids[1], w, val, worlds)
    if op == "g":
        return all(_eval(n.kids[0], v, val, worlds) for v in range(w + 1, worlds))
    return any(_eval(n.kids[0], v, val, worlds) for v in range(w + 1, worlds))


DUAL = {"and": "or", "or": "and", "g": "f", "f": "g"}


def _nnf(n, neg=False):
    op = n.op
    if op == "atom":
        return Node("not", (n,)) if neg else n
    if op == "not":
        return _nnf(n.kids[0], not neg)
    if op == "imp":
        return Node("and" if neg else "or",
                    (_nnf(n.kids[0], not neg), _nnf(n.kids[1], neg)))
    return Node(DUAL[op] if neg else op, tuple(_nnf(k, neg) for k in n.kids))


def _intern(n, table):
    key = (n.op, n.name, tuple(_intern(k, table) for k in n.kids))
    return table.setdefault(key, len(table))


_RNG = random.Random(7)
FORMULAS = [_build(_RNG, 7) for _ in range(13)]
WORLDS = 4
VALUATIONS = [{a: {w for w in range(WORLDS) if (7 * w + i + ord(a)) % 3 == 0}
               for a in "pqrs"} for i in range(4)]


def work() -> int:
    total = 0
    for phi in FORMULAS:
        total += _intern(_nnf(phi), {})
        for val in VALUATIONS:
            for w in range(WORLDS):
                total += _eval(phi, w, val, WORLDS)
    return total


EXPECTED = work()


def timed_slice() -> float:
    """Seconds one slice takes now; raises if the slice computed wrongly."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = work()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if total != EXPECTED:
        raise RuntimeError("reference slice computed a different result")
    return dt


def scale(seconds: float, slice_s: float) -> float:
    """``seconds`` measured while a slice took ``slice_s``, at nominal speed."""
    return seconds * NOMINAL_S / slice_s
