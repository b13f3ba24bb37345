"""The label operations as the library wrote them before it had one walk
for each, kept verbatim as the references the new code is compared
against: sequential one-pair ``substitute_label``, ``substitute_label_deriv``
and ``rename_freshes`` (now ``syntax.substitute_labels`` and
``derivation.relabel``), the candidate loop of ``match_instantiation`` and
``_matches_instance`` (now ``syntax.match_labels``).  ``_matches_instance``
is kept with its defect: it binds a hole to a label the target binds, and
does not keep bound labels one to one."""

from __future__ import annotations

from typing import Callable, Optional

from tenseproof.derivation import Derivation, fold, with_premises
from tenseproof.syntax import (
    Empty, Eq, Exists, Forall, Label, Less, Lwff, Prec, RAnd, RImplies, RNot,
    ROr, core_eq, fresh_label, is_formula, labels_of,
)


_THEN = object()     # task: substitute in the last result
_BUILD = object()    # task: rebuild a node from the last results


def substitute_label(phi, new: Label, old: Label):
    """Replace every free occurrence of ``old`` by ``new``, capture-avoiding."""
    if new == old:
        return phi
    if isinstance(phi, Lwff):
        return Lwff(new if phi.label == old else phi.label, phi.formula)
    if is_formula(phi):
        return phi
    # tasks: (node, new, old) substitutes in node and pushes the result on
    # ``out``; (_THEN, new, old) substitutes in the last result;
    # (_BUILD, cls, var) rebuilds a node of ``cls`` from the last results
    out: list = []
    todo = [(phi, new, old)]
    while todo:
        n, new, old = todo.pop()
        if n is _THEN:
            todo.append((out.pop(), new, old))
            continue
        if n is _BUILD:
            cls, var = new, old
            if var is not None:
                out.append(cls(var, out.pop()))
            elif cls is RNot:
                out.append(cls(out.pop()))
            else:
                right = out.pop()
                out.append(cls(out.pop(), right))
            continue
        cls = type(n)
        if cls in (Less, Eq, Prec):
            out.append(cls(new if n.x == old else n.x, new if n.y == old else n.y))
        elif cls is Empty:
            out.append(n)
        elif cls in (RImplies, RAnd, ROr):
            todo += [(_BUILD, cls, None), (n.right, new, old), (n.left, new, old)]
        elif cls is RNot:
            todo += [(_BUILD, cls, None), (n.body, new, old)]
        elif cls in (Forall, Exists):
            if n.var == old:
                out.append(n)  # old is bound here, nothing free below
                continue
            free = labels_of(n.body) if n.var == new else ()
            if old in free:
                # the binder would capture the incoming label: rename it first
                v = fresh_label(free | {new, old}, base="u")
                todo += [(_BUILD, cls, v), (_THEN, new, old), (n.body, v, n.var)]
            else:
                todo += [(_BUILD, cls, n.var), (n.body, new, old)]
        else:
            raise TypeError(f"cannot substitute in {n!r}")
    return out.pop()


def _matches_instance(pattern, target) -> bool:
    """Match ``target`` against ``pattern`` with free labels as holes."""
    env: dict = {}
    todo = [(pattern, target, {})]
    while todo:
        pat, tgt, bound = todo.pop()
        cls = type(pat)
        if cls is Empty:
            if type(tgt) is not Empty:
                return False
        elif cls in (Less, Eq):
            if type(tgt) is not cls:
                return False
            for pl, tl in ((pat.x, tgt.x), (pat.y, tgt.y)):
                if (bound[pl] if pl in bound else env.setdefault(pl, tl)) != tl:
                    return False
        elif cls in (RImplies, Forall):
            if type(tgt) is not cls:
                return False
            if cls is Forall:
                todo.append((pat.body, tgt.body, {**bound, pat.var: tgt.var}))
            else:
                todo += [(pat.right, tgt.right, bound), (pat.left, tgt.left, bound)]
        else:
            return False
    return True


def match_instantiation(body, var, target):
    """Find a label ``w`` with ``body[w/var]`` core-equal to ``target``."""
    candidates = set(labels_of(target)) | {var}
    for w in sorted(candidates):
        if core_eq(substitute_label(body, w, var), target):
            return w
    return None


def substitute_label_deriv(d: Derivation, new: str, old: str) -> Derivation:
    """Apply a label substitution to every formula in the tree.  A subtree
    in which ``old`` does not occur is returned as the same object."""
    if new == old:
        return d

    def subst(n: Derivation, premises: list) -> Derivation:
        c = substitute_label(n.conclusion, new, old)
        if n.fresh != old and c == n.conclusion:
            return with_premises(n, premises)
        return Derivation(n.rule, c, tuple(premises), n.marker, n.discharges,
                          new if n.fresh == old else n.fresh, n.position)

    return fold(d, subst)


def rename_freshes(d: Derivation, rename: Callable[[str], Optional[str]]) -> Derivation:
    """Top-down, for each node whose fresh label ``rename`` maps to a name
    (not ``None``), substitute that name for the label throughout the node's
    subtree, then go on into its premises.  ``d`` itself if nothing is
    renamed."""
    def visit(t: Derivation) -> tuple:
        if t.fresh is not None:
            label = rename(t.fresh)
            if label is not None:
                t = substitute_label_deriv(t, label, t.fresh)
        return t, t.premises
    return fold(d, with_premises, visit)
