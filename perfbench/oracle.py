"""Reference evaluator for countermodels, kept apart from the code under test.

It has native clauses for every derived connective (so it never expands a
formula) and computes the order relation from the model's pairs itself; it
does not call ``tenseproof.semantics``.
"""

from __future__ import annotations

from tenseproof.syntax import (
    And, Atom, Empty, Eq, Exists, F, Falsum, Forall, G, H, Implies, Less,
    Lwff, Not, Or, P, Prec, RAnd, RImplies, RNot, ROr, Top,
)


class Frame:
    def __init__(self, n: int, prec, valuation):
        self.n = n
        self.prec = {(int(a), int(b)) for a, b in prec}
        self.valuation = {a: set(ws) for a, ws in valuation.items()}

    def is_chain(self) -> bool:
        """Is ``prec`` the strict order 0 < 1 < ... < n-1?"""
        return self.prec == {(i, j) for i in range(self.n)
                             for j in range(i + 1, self.n)}

    def later(self, w):
        return [v for v in range(self.n) if (w, v) in self.prec]

    def earlier(self, w):
        return [v for v in range(self.n) if (v, w) in self.prec]


def holds(m: Frame, lam: dict, phi) -> bool:
    if isinstance(phi, Lwff):
        return _formula(m, lam[phi.label], phi.formula)
    return _rel(m, lam, phi)


def _formula(m, w, phi):
    if isinstance(phi, Atom):
        return w in m.valuation.get(phi.name, ())
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Not):
        return not _formula(m, w, phi.body)
    if isinstance(phi, And):
        return _formula(m, w, phi.left) and _formula(m, w, phi.right)
    if isinstance(phi, Or):
        return _formula(m, w, phi.left) or _formula(m, w, phi.right)
    if isinstance(phi, Implies):
        return not _formula(m, w, phi.left) or _formula(m, w, phi.right)
    if isinstance(phi, G):
        return all(_formula(m, v, phi.body) for v in m.later(w))
    if isinstance(phi, H):
        return all(_formula(m, v, phi.body) for v in m.earlier(w))
    if isinstance(phi, F):
        return any(_formula(m, v, phi.body) for v in m.later(w))
    if isinstance(phi, P):
        return any(_formula(m, v, phi.body) for v in m.earlier(w))
    raise TypeError(f"no reference clause for {phi!r}")


def _rel(m, lam, rho):
    if isinstance(rho, Less):
        return (lam[rho.x], lam[rho.y]) in m.prec
    if isinstance(rho, Eq):
        return lam[rho.x] == lam[rho.y]
    if isinstance(rho, Empty):
        return False
    if isinstance(rho, RNot):
        return not _rel(m, lam, rho.body)
    if isinstance(rho, RAnd):
        return _rel(m, lam, rho.left) and _rel(m, lam, rho.right)
    if isinstance(rho, ROr):
        return _rel(m, lam, rho.left) or _rel(m, lam, rho.right)
    if isinstance(rho, RImplies):
        return not _rel(m, lam, rho.left) or _rel(m, lam, rho.right)
    if isinstance(rho, Forall):
        return all(_rel(m, {**lam, rho.var: w}, rho.body) for w in range(m.n))
    if isinstance(rho, Exists):
        return any(_rel(m, {**lam, rho.var: w}, rho.body) for w in range(m.n))
    if isinstance(rho, Prec):
        a, b = lam[rho.x], lam[rho.y]
        return (a, b) in m.prec and not any(
            (a, u) in m.prec and (u, b) in m.prec for u in range(m.n))
    raise TypeError(f"no reference clause for {rho!r}")


def refutes(cm_json: dict, phi, max_worlds: int) -> bool:
    """Is the countermodel (in its JSON wire form) a chain of at most
    ``max_worlds`` worlds where ``phi`` fails?"""
    m = Frame(cm_json["n"], cm_json["prec"], cm_json["valuation"])
    lam = cm_json["lambda"]
    if not 1 <= m.n <= max_worlds or not m.is_chain():
        return False
    if any(not 0 <= w < m.n for w in lam.values()):
        return False
    return not holds(m, lam, phi)
