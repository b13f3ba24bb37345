"""Track structure of normal derivations and the subformula audit.

A track runs downward through major (or only) premises, starting at an
assumption, an axiom, or a universal-falsum conclusion, and ending at the
root, at a universal-falsum premise, or at a minor premise.  In a normal
derivation every track splits into an elimination part, an atomic central
part, and an introduction part; cross-system connections between labeled and
relational tracks happen in exactly four ways.  ``tracks`` finds them in
one reverse loop over the numbers of the tree's index (``derivation.index``,
which the checker and the audit read too), premises before their node.
Reports name a node by its number, as the checker does, and spell its root
path (``path_to``) only in a fault: a ``StructureViolation`` or an audit
violation.

The subformula audit justifies each occurrence by one justifier over the
sort record of :mod:`tenseproof.kernel`: clause ``i``, a subformula of its
sort's pool; ``ii``, a refutation of a pool formula that the sort's
reductio discharges; ``iii``, the falsum such a refutation yields; and the
clauses only one sort has (``1iv``, ``1v``; ``2iv``, ``2v``), which
``_CLAUSES`` lists.  The pools come from the index's open leaves, axioms
and marker tables before the nodes are justified.  The rule names each
connective has come from ``rules.DETOUR_PAIRS`` and ``kernel._TENSE``.
"""

from __future__ import annotations

from .derivation import Derivation, index, path_to
from .kernel import LAB, REL, _TENSE, _sort, _xf
from .normalize import is_normal
from .rules import ELIM_RULES, FALSUM_RULES, INTRO_RULES, RULES
from .syntax import (
    Forall, Lwff, SubformulaPool, _Record, is_atomic, match_labels,
)


class StructureViolation(AssertionError):
    """A normal derivation whose tracks defy the expected shape: this
    signals a normalizer bug, not a user error."""


_UF = ("uf1", "uf2")
_CENTRAL = FALSUM_RULES | {"mon"}
_TENSE_ELIMS = {elim for _, elim, _ in _TENSE.values()}
_FRESH_DISCHARGERS = {intro for _, _, intro in _TENSE.values()}


class Track(_Record):
    __slots__ = ("nodes",         # node numbers, origin first
                 "kind",          # "labeled" | "relational"
                 "origin",        # "assumption" | "axiom" | "uf-conclusion"
                 "terminus",      # "conclusion" | "uf-premise" | "minor-premise"
                 "elimination", "central", "introduction")  # indices into nodes


class TrackLink(_Record):
    __slots__ = ("case",          # "i" | "ii" | "iii" | "iv" | "same-kind"
                 "from_track", "to_track",
                 "at", "detail")  # the connecting rule application: number, rule
    _defaults = ("",)


class TrackReport(_Record):
    __slots__ = ("tracks", "links")


def _is_axiom(n: Derivation) -> bool:
    return RULES[n.rule].kind == "axiom"


def _opens_to(whole, part) -> bool:
    """Is ``part`` (its formula, for an lwff) an immediate part of the core
    of ``whole``, for a universal its body with any label for its variable?"""
    core, part = _xf(whole), _xf(part)
    holes = (core.var,) if isinstance(core, Forall) else ()
    return any(match_labels(k, part, holes) is not None for k in core._kids(core))


def tracks(d: Derivation) -> TrackReport:
    """Extract all tracks of a normal derivation, assert the three-part
    decomposition, and classify every inter-track connection."""
    if not is_normal(d).normal:
        raise ValueError("tracks are defined on normal derivations only")
    return _tracks(d)


def _tracks(d: Derivation) -> TrackReport:
    """``tracks`` of ``d``, which the caller has found normal."""
    ix = index(d)
    nodes = ix.nodes
    chains: list = []       # per track: its node numbers, origin first
    ends: list = []         # per track: origin, terminus, the number below
    on: list = [None] * len(nodes)      # each node's track
    for k, t in enumerate(nodes):
        origin = ("assumption" if t.is_assumption() else "axiom" if _is_axiom(t)
                  else "uf-conclusion" if t.rule in _UF else None)
        if origin:
            on[k] = len(chains)
            chains.append([k])
            ends.append([origin, None, None])
    # premises first: below node ``k`` runs the track it opens, or its major
    # premise's, which it extends; the others end at it
    stray = []              # the numbers of the nodes on no track
    for k in range(len(nodes) - 1, -1, -1):
        above = [on[p] for p in ix.premises(k)]
        if nodes[k].rule in _UF or not above:
            t, closed, terminus = on[k], above, "uf-premise"
        else:
            t, closed, terminus = above[0], above[1:], "minor-premise"
            if t is not None:
                chains[t].append(k)
            on[k] = t
        for u in closed:
            if u is not None:
                ends[u][1:] = terminus, k
        if t is None:
            stray.append(k)
    if on[0] is not None:
        ends[on[0]][1] = "conclusion"

    out = [_decompose(d, nodes, chain, *end) for chain, end in zip(chains, ends)]
    if stray:
        raise StructureViolation(
            f"node {path_to(d, min(stray))} belongs to no track")
    links = _classify_links(nodes, out, ends, on)
    return TrackReport(tuple(out), tuple(links))


def _decompose(d, order, chain, origin, terminus, end) -> Track:
    n = len(chain)
    kind = "labeled" if isinstance(order[chain[0]].conclusion, Lwff) \
        else "relational"

    def below(j):
        """Rule application consuming chain[j], possibly outside the track."""
        k = chain[j + 1] if j + 1 < n else end
        return None if k is None else order[k]

    def at(j):
        return path_to(d, chain[j])

    i = 0
    while i < n - 1 and below(i).rule in ELIM_RULES:
        if not _opens_to(order[chain[i]].conclusion, below(i).conclusion):
            raise StructureViolation(
                f"elimination step at {at(i)} does not shrink the formula")
        i += 1
    elim = tuple(range(0, i))

    # the central part feeds falsum rules and mons, or ends at a uf premise
    j, falsum_apps = i, 0
    while j < n and (below(j).rule in _CENTRAL if j + 1 < n
                     else terminus == "uf-premise"):
        if not is_atomic(order[chain[j]].conclusion):
            raise StructureViolation(
                f"central formula at {at(j)} is not atomic")
        falsum_apps += below(j).rule in FALSUM_RULES
        j += 1
    central = tuple(range(i, j))
    if falsum_apps > 1:
        raise StructureViolation("central part feeds more than one falsum rule")

    for k in range(j, n - 1):
        b = below(k)
        if b.rule not in INTRO_RULES:
            raise StructureViolation(
                f"late track node at {at(k)} feeds a non-introduction rule")
        phi, psi = order[chain[k]].conclusion, b.conclusion
        if not _opens_to(psi, phi):
            raise StructureViolation(
                f"introduction step at {at(k)} does not grow the formula")
    intro = tuple(range(j, n))

    if origin == "uf-conclusion" and elim:
        raise StructureViolation("a universal-falsum track cannot eliminate")
    if terminus == "uf-premise" and intro:
        raise StructureViolation(
            "a track ending in universal falsum cannot introduce")

    return Track(tuple(chain), kind, origin, terminus, elim, central, intro)


def _classify_links(order, track_list, ends, on):
    links = []
    for ti, (t, (_, terminus, at)) in enumerate(zip(track_list, ends)):
        if at is None:                  # the track ends at the root
            continue
        b = order[at]
        tj = on[at]
        if terminus == "uf-premise":
            case = "iv" if b.rule == "uf1" else "iii"
            links.append(TrackLink(case, ti, tj, at, b.rule))
            continue
        if t.kind == track_list[tj].kind:
            links.append(TrackLink("same-kind", ti, tj, at, b.rule))
        elif b.rule in _TENSE_ELIMS:
            links.append(TrackLink("i", ti, tj, at, b.rule))
        elif b.rule == "mon":
            links.append(TrackLink("ii", ti, tj, at, b.rule))
        else:
            raise StructureViolation(
                f"cross-system connection through {b.rule}")
    return links


# ---------------------------------------------------------------------------
# Subformula audit

# each sort's clauses: its tag prefix; the rules that conclude its falsum
# from a falsum and discharge no leaf (1iv, 1v; 2iv); and the rules whose
# every conclusion is justified (2v)
_CLAUSES = {LAB: ("1", {"raa_bot": "iv", "uf2": "v"}, {}),
            REL: ("2", {"uf1": "iv"}, {"mon": "v"})}


class AuditReport(_Record):
    __slots__ = ("ok", "justifications",  # node number -> clause tag
                 "violations")        # root paths


def audit_subformula(d: Derivation) -> AuditReport:
    """Justify every formula occurrence of a normal derivation.

    The labeled pool holds the subformulas of the open labeled assumptions
    and, when labeled, of the conclusion.  The relational pool holds the
    open relational assumptions, the axiom instances used, the conclusion
    when relational, plus the relational assumptions discharged by the
    fresh-label temporal rules (their accessibility side conditions license
    those occurrences; without them even simple normal derivations would
    have unjustifiable atoms).
    """
    ix = index(d)
    nodes = ix.nodes
    # the rule of the last node that discharges each marker
    discharged_by = {m: nodes[ks[-1]].rule for m, ks in ix.dischargers.items()}
    s_l, s_r = [], []                   # a pool drops labels
    for leaf in ix.open_leaves(0):
        c = nodes[leaf].conclusion
        (s_l if isinstance(c, Lwff) else s_r).append(c)
    (s_l if isinstance(d.conclusion, Lwff) else s_r).append(d.conclusion)
    s_r += [n.conclusion for n in nodes if _is_axiom(n)]
    s_r += [nodes[k].conclusion for m, leaves in ix.leaves.items()
            if discharged_by.get(m) in _FRESH_DISCHARGERS for k in leaves
            if not isinstance(nodes[k].conclusion, Lwff)]

    pools = {LAB: SubformulaPool(s_l), REL: SubformulaPool(s_r)}

    def refutes(s, leaf) -> bool:
        """Is ``leaf`` a refutation of a pool formula that a reductio of
        sort ``s`` discharges?"""
        if not (leaf.is_assumption()
                and discharged_by.get(leaf.marker) == s.raa):
            return False
        core = _xf(leaf.conclusion)
        return (isinstance(core, s.imp) and isinstance(core.right, type(s.falsum))
                and core.left in pools[s])

    # the specific clauses come before the generic subformula one so the
    # report names the clause that licenses the occurrence
    def justify(n) -> str | None:
        s = _sort(n.conclusion)
        prefix, bottoms, anything = _CLAUSES[s]
        if refutes(s, n):
            return prefix + "ii"
        if isinstance(_xf(n.conclusion), type(s.falsum)):
            if n.rule == s.imp_e and refutes(s, n.premises[0]):
                return prefix + "iii"
            if n.rule in bottoms and n.discharges.isdisjoint(ix.leaves):
                return prefix + bottoms[n.rule]
        if n.rule in anything:
            return prefix + anything[n.rule]
        if s.split(n.conclusion)[1] in pools[s]:
            return prefix + "i"
        return None

    justifications: dict = {}
    violations: list = []
    for k, n in enumerate(nodes):
        tag = justify(n)
        if tag is None:
            violations.append(path_to(d, k))
        else:
            justifications[k] = tag
    return AuditReport(not violations, justifications, tuple(violations))
