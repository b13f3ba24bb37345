"""The open-leaf fold and the root path as the library wrote them before
one pre-order index per tree served every whole-tree pass, kept verbatim as
the reference the index is compared against: ``_open_fold`` computes each
subtree's open leaves in post-order by concatenating and filtering its
premises' lists, ``_context`` splits them into a proof context, and
``path_to`` walks down from the root past whole premises."""

from __future__ import annotations

from itertools import chain

from tenseproof.derivation import Derivation, Path
from tenseproof.syntax import Lwff, ProofContext

# rule of the node standing in for premise ``marker`` of a derived node
# while its template is checked; no rule name can equal it
_STANDIN = object()


def _context(opens) -> ProofContext:
    gamma, delta = set(), set()
    for _, _, leaf in opens:
        c = leaf.conclusion
        (gamma if isinstance(c, Lwff) else delta).add(c)
    return ProofContext.make(gamma, delta)


def _open_fold(d: Derivation, visit=None, standins=()) -> list:
    """The open leaves of ``d`` as ``(d, number, leaf)`` triples.  Each
    subtree's open leaves are computed once, in post-order;
    ``visit(k, node, below, starts, end)`` sees node number ``k`` with the
    open leaves and numbers of its premises and the number past its
    subtree.  A stand-in is not entered: it counts as itself and its
    premises, and its open leaves are ``standins[stand-in.marker]``."""
    done: list = []         # open leaves of each finished subtree
    firsts: list = []       # and its number
    stack: list = [d]
    count = 0
    while stack:
        n = stack.pop()
        if n.__class__ is not tuple:
            if n.rule == _STANDIN:
                done.append(standins[n.marker])
                firsts.append(count)
                count += 1 + len(n.premises)
            else:                           # its premises first, then it
                stack.append((count, n))
                count += 1
                stack += n.premises[::-1]
            continue
        k, n = n
        j = len(done) - len(n.premises)
        below, starts = done[j:], firsts[j:]
        del done[j:], firsts[j:]
        if visit is not None:
            visit(k, n, below, starts, count)
        if n.is_assumption():
            opens = [(d, k, n)]
        else:
            opens = below[0] if len(below) == 1 else list(chain.from_iterable(below))
            if n.discharges:
                opens = [e for e in opens if e[2].marker not in n.discharges]
        done.append(opens)
        firsts.append(k)
    return done[0]


def path_to(d: Derivation, k: int) -> Path:
    """The root path of node number ``k`` of ``d`` (see ``nodes``), found by
    walking down from the root past whole premises, whose sizes
    ``node_count`` gives."""
    path = []
    while k:
        k -= 1
        for i, p in enumerate(d.premises):
            if k < p.node_count():
                break
            k -= p.node_count()
        path.append(i)
        d = p
    return tuple(path)
