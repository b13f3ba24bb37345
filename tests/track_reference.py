"""Track extraction and the subformula audit as the library wrote them
before they were one numbered fold, kept verbatim as the references the new
code is compared against.  These key every node by its root path
(``dict(d.walk())``, ``path[:-1]``) and find a link's position in its track
by searching the track's path tuple, so they cost a root path per node and
a linear search per link: quadratic and cubic in depth.  Their reports name
nodes by root path where the library names them by number."""

from __future__ import annotations

from tenseproof.derivation import Derivation
from tenseproof.kernel import _sort, _xf
from tenseproof.normalize import is_normal
from tenseproof.rules import ELIM_RULES, FALSUM_RULES, INTRO_RULES
from tenseproof.syntax import Lwff, SubformulaPool, is_atomic
from tenseproof.tracks import (
    _CLAUSES, _FRESH_DISCHARGERS, _TENSE_ELIMS, AuditReport,
    StructureViolation, Track, TrackLink, TrackReport, _is_axiom, _opens_to,
)

_MAJOR_INDEX = 0


def tracks(d: Derivation) -> TrackReport:
    """Extract all tracks of a normal derivation, assert the three-part
    decomposition, and classify every inter-track connection."""
    if not is_normal(d).normal:
        raise ValueError("tracks are defined on normal derivations only")

    nodes = dict(d.walk())          # in path order, as ``walk`` yields them
    origins = []
    for path, n in nodes.items():
        if n.is_assumption():
            origins.append((path, "assumption"))
        elif _is_axiom(n):
            origins.append((path, "axiom"))
        elif n.rule in ("uf1", "uf2"):
            origins.append((path, "uf-conclusion"))

    out: list[Track] = []
    owner: dict[tuple, int] = {}
    for start, origin in origins:
        chain = [start]
        path = start
        terminus = "conclusion"
        while path:
            parent_path = path[:-1]
            parent = nodes[parent_path]
            if parent.rule in ("uf1", "uf2"):
                terminus = "uf-premise"
                break
            if path[-1] != _MAJOR_INDEX:
                terminus = "minor-premise"
                break
            chain.append(parent_path)
            path = parent_path
        kind = "labeled" if isinstance(nodes[chain[0]].conclusion, Lwff) \
            else "relational"
        track = _decompose(nodes, tuple(chain), kind, origin, terminus)
        for p in chain:
            owner[p] = len(out)
        out.append(track)

    for path in nodes:
        if path not in owner:
            raise StructureViolation(f"node {path} belongs to no track")

    links = _classify_links(nodes, out, owner)
    return TrackReport(tuple(out), tuple(links))


def _decompose(nodes, chain, kind, origin, terminus) -> Track:
    n = len(chain)

    def below(j):
        """Rule application consuming chain[j], possibly outside the track."""
        path = chain[j]
        return nodes[path[:-1]] if path else None

    i = 0
    while i < n - 1:
        b = below(i)
        if b.rule in ELIM_RULES and chain[i][-1] == _MAJOR_INDEX:
            phi, psi = nodes[chain[i]].conclusion, b.conclusion
            if not _opens_to(phi, psi):
                raise StructureViolation(
                    f"elimination step at {chain[i]} does not shrink the formula")
            i += 1
        else:
            break
    elim = tuple(range(0, i))

    j = i
    falsum_apps = 0
    while j < n:
        b = below(j)
        if b is None or chain[j][-1] != _MAJOR_INDEX:
            break
        in_track = j + 1 < n            # the consumer is the next track node
        is_falsum = b.rule in FALSUM_RULES
        is_mon = b.rule == "mon"
        if (in_track and (is_falsum or is_mon)) or (
                not in_track and terminus == "uf-premise"):
            if not is_atomic(nodes[chain[j]].conclusion):
                raise StructureViolation(
                    f"central formula at {chain[j]} is not atomic")
            if is_falsum:
                falsum_apps += 1
            j += 1
            if not in_track:
                break
        else:
            break
    central = tuple(range(i, j))
    if falsum_apps > 1:
        raise StructureViolation("central part feeds more than one falsum rule")

    for k in range(j, n - 1):
        b = below(k)
        if b.rule not in INTRO_RULES:
            raise StructureViolation(
                f"late track node at {chain[k]} feeds a non-introduction rule")
        phi, psi = nodes[chain[k]].conclusion, b.conclusion
        if not _opens_to(psi, phi):
            raise StructureViolation(
                f"introduction step at {chain[k]} does not grow the formula")
    intro = tuple(range(j, n))

    if origin == "uf-conclusion" and elim:
        raise StructureViolation("a universal-falsum track cannot eliminate")
    if terminus == "uf-premise" and intro:
        raise StructureViolation(
            "a track ending in universal falsum cannot introduce")

    return Track(chain, kind, origin, terminus, elim, central, intro)


def _classify_links(nodes, track_list, owner):
    links = []
    for ti, t in enumerate(track_list):
        last = t.nodes[-1]
        if t.terminus == "uf-premise":
            uf_path = last[:-1]
            uf = nodes[uf_path]
            tj = owner[uf_path]
            case = "iv" if uf.rule == "uf1" else "iii"
            links.append(TrackLink(case, ti, tj, uf_path, uf.rule))
        elif t.terminus == "minor-premise":
            below_path = last[:-1]
            b = nodes[below_path]
            tj = owner[below_path]
            other = track_list[tj]
            if t.kind == other.kind:
                links.append(TrackLink("same-kind", ti, tj, below_path, b.rule))
                continue
            major_idx = other.nodes.index(below_path) - 1
            if b.rule in _TENSE_ELIMS:
                if major_idx not in other.elimination:
                    raise StructureViolation(
                        "temporal elimination fed outside an elimination part")
                links.append(TrackLink("i", ti, tj, below_path, b.rule))
            elif b.rule == "mon":
                if major_idx not in other.central:
                    raise StructureViolation(
                        "mon minor premise fed outside a central part")
                links.append(TrackLink("ii", ti, tj, below_path, b.rule))
            else:
                raise StructureViolation(
                    f"cross-system connection through {b.rule}")
    return links


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
    from tenseproof.kernel import LAB, REL, open_assumptions

    ctx = open_assumptions(d)
    nodes = dict(d.walk())
    leaf_markers = {n.marker for n in nodes.values() if n.is_assumption()}

    s_l = [x.formula for x in ctx.gamma]
    if isinstance(d.conclusion, Lwff):
        s_l.append(d.conclusion.formula)
    s_r = list(ctx.delta)
    if not isinstance(d.conclusion, Lwff):
        s_r.append(d.conclusion)
    for _, n in nodes.items():
        if _is_axiom(n):
            s_r.append(n.conclusion)

    discharged_by: dict[int, str] = {}
    for _, n in nodes.items():
        for m in n.discharges:
            discharged_by[m] = n.rule
    for _, n in nodes.items():
        if (n.is_assumption() and not isinstance(n.conclusion, Lwff)
                and discharged_by.get(n.marker) in _FRESH_DISCHARGERS):
            s_r.append(n.conclusion)

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
            if n.rule in bottoms and n.discharges.isdisjoint(leaf_markers):
                return prefix + bottoms[n.rule]
        if n.rule in anything:
            return prefix + anything[n.rule]
        if s.split(n.conclusion)[1] in pools[s]:
            return prefix + "i"
        return None

    justifications: dict = {}
    violations: list = []
    for path, n in nodes.items():
        tag = justify(n)
        if tag is None:
            violations.append(path)
        else:
            justifications[path] = tag
    return AuditReport(not violations, justifications, tuple(violations))
