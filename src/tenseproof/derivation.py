"""Derivation trees and tree surgery helpers.

A derivation is a finite immutable tree; premises sit above their rule node,
so ``premises[i]`` is drawn *above* the node in the usual proof-tree picture.
Assumption leaves may carry an integer marker; rule nodes may discharge a set
of markers and may introduce a fresh label.  Paths address nodes as tuples of
premise indices from the root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

from . import parser
from .syntax import Lwff, RFormula, substitute_label

Conclusion = Union[Lwff, RFormula]
Path = tuple

ASSUME = "assume"


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Conclusion
    premises: tuple = ()
    marker: Optional[int] = None          # assumption leaves only
    discharges: frozenset = frozenset()   # markers closed at this node
    fresh: Optional[str] = None           # label introduced by this node
    position: Optional[int] = None        # designated label position for mon

    def is_assumption(self) -> bool:
        return self.rule == ASSUME

    def node_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            n = stack.pop()
            count += 1
            stack.extend(n.premises)
        return count

    def at(self, path: Path) -> "Derivation":
        node = self
        for i in path:
            node = node.premises[i]
        return node

    def walk(self, path: Path = ()) -> Iterator[tuple]:
        """Yield ``(path, node)`` pairs, root first, premises left to right
        (so paths come in lexicographic order)."""
        stack = [(path, self)]
        while stack:
            path, n = stack.pop()
            yield path, n
            premises = n.premises
            for i in range(len(premises) - 1, -1, -1):
                stack.append((path + (i,), premises[i]))


def assume(conclusion: Conclusion, marker: Optional[int] = None) -> Derivation:
    return Derivation(ASSUME, conclusion, (), marker=marker)


def node(rule: str, conclusion: Conclusion, *premises: Derivation,
         discharges=(), fresh: Optional[str] = None,
         position: Optional[int] = None) -> Derivation:
    return Derivation(rule, conclusion, tuple(premises),
                      discharges=frozenset(discharges), fresh=fresh,
                      position=position)


def replace_at(d: Derivation, path: Path, new: Derivation) -> Derivation:
    spine = [d]
    for i in path[:-1]:
        spine.append(spine[-1].premises[i])
    for t, i in zip(reversed(spine), reversed(path)):
        new = Derivation(t.rule, t.conclusion,
                         t.premises[:i] + (new,) + t.premises[i + 1:],
                         t.marker, t.discharges, t.fresh, t.position)
    return new


def map_leaves(d: Derivation, fn: Callable[[Derivation], Derivation]) -> Derivation:
    if d.is_assumption():
        return fn(d)
    return replace(d, premises=tuple(map_leaves(p, fn) for p in d.premises))


def all_labels(d: Derivation) -> set:
    """Every label mentioned anywhere: conclusions, bound variables, fresh
    annotations.  Superset of the free labels; safe avoid-set for fresh names."""
    out: set = set()
    for _, n in d.walk():
        c = n.conclusion
        if isinstance(c, Lwff):
            out.add(c.label)
        else:
            out |= _deep_labels(c)
        if isinstance(c, Lwff):
            out |= _deep_labels(c.formula)
        if n.fresh:
            out.add(n.fresh)
    return out


def _deep_labels(phi) -> set:
    """Labels including bound occurrences (conservative avoid-set)."""
    out: set = set()
    stack = [phi]
    while stack:
        e = stack.pop()
        for attr in ("var", "x", "y"):
            v = getattr(e, attr, None)
            if isinstance(v, str):
                out.add(v)
        for attr in ("left", "right", "body"):
            v = getattr(e, attr, None)
            if v is not None and not isinstance(v, str):
                stack.append(v)
    return out


def all_markers(d: Derivation) -> set:
    out: set = set()
    for _, n in d.walk():
        if n.marker is not None:
            out.add(n.marker)
        out |= n.discharges
    return out


class MarkerGen:
    def __init__(self, avoid=()):
        self.next = max(avoid, default=0) + 1

    def __call__(self) -> int:
        m = self.next
        self.next += 1
        return m


def leaves_with_marker(d: Derivation, marker: int) -> list:
    return [p for p, n in d.walk() if n.is_assumption() and n.marker == marker]


def substitute_label_deriv(d: Derivation, new: str, old: str) -> Derivation:
    """Apply a label substitution to every formula in the tree."""
    if new == old:
        return d
    c = d.conclusion
    c2 = substitute_label(c, new, old)
    fresh = new if d.fresh == old else d.fresh
    return replace(d, conclusion=c2, fresh=fresh,
                   premises=tuple(substitute_label_deriv(p, new, old)
                                  for p in d.premises))


def refresh_internal_markers(d: Derivation, gen: MarkerGen) -> Derivation:
    """Rename markers that are discharged *within* ``d`` so a copied subtree
    cannot collide with its siblings; markers discharged outside stay put."""
    internal: dict[int, int] = {}
    for _, n in d.walk():
        for m in n.discharges:
            if m not in internal:
                internal[m] = gen()

    def rewrite(n: Derivation) -> Derivation:
        premises = tuple(rewrite(p) for p in n.premises)
        marker = internal.get(n.marker, n.marker)
        discharges = frozenset(internal.get(m, m) for m in n.discharges)
        return replace(n, premises=premises, marker=marker, discharges=discharges)

    return rewrite(d)


def graft(d: Derivation, marker: int, replacement: Derivation,
          gen: MarkerGen) -> Derivation:
    """Replace every marker-``marker`` leaf by a copy of ``replacement``."""
    def fn(leaf: Derivation) -> Derivation:
        if leaf.marker == marker:
            return refresh_internal_markers(replacement, gen)
        return leaf
    return map_leaves(d, fn)


# ---------------------------------------------------------------------------
# JSON wire format

def parse_conclusion(text: str) -> Conclusion:
    return parser.parse("any", text)


def to_json(d: Derivation) -> dict:
    out: dict = {"rule": d.rule, "conclusion": parser.render(d.conclusion)}
    if d.premises:
        out["premises"] = [to_json(p) for p in d.premises]
    if d.marker is not None:
        out["marker"] = d.marker
    if d.discharges:
        out["discharges"] = sorted(d.discharges)
    if d.fresh is not None:
        out["fresh"] = d.fresh
    if d.position is not None:
        out["position"] = d.position
    return out


def _field(obj: dict, key: str, kind: type):
    """``obj[key]`` if absent or exactly of ``kind`` (so no bool for int)."""
    value = obj.get(key)
    if value is not None and type(value) is not kind:
        raise ValueError(f"derivation field {key!r} must be {kind.__name__}, "
                         f"not {value!r}")
    return value


def from_json(obj: dict) -> Derivation:
    from .rules import RULES
    if not isinstance(obj, dict):
        raise ValueError(f"derivation node must be a JSON object, not {obj!r:.40}")
    rule = obj.get("rule")
    if not isinstance(rule, str):
        raise ValueError("derivation node lacks a 'rule' string")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    discharges = _field(obj, "discharges", list) or ()
    if not all(type(m) is int for m in discharges):
        raise ValueError(f"derivation field 'discharges' must list ints, "
                         f"not {discharges!r}")
    premises = tuple(from_json(p) for p in _field(obj, "premises", list) or ())
    text = _field(obj, "conclusion", str)
    if text is None:
        template = RULES[rule].axiom_template
        if template is None:
            raise ValueError(f"node for rule {rule!r} lacks a conclusion")
        conclusion: Conclusion = template
    else:
        conclusion = parse_conclusion(text)
    return Derivation(
        rule, conclusion, premises,
        marker=_field(obj, "marker", int),
        discharges=frozenset(discharges),
        fresh=_field(obj, "fresh", str),
        position=_field(obj, "position", int),
    )


def load(path: str) -> Derivation:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(json.load(fh))


def dump(d: Derivation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(d), fh, indent=1)
        fh.write("\n")


def pretty(d: Derivation, indent: int = 0) -> str:
    """Indented text rendering of a proof tree."""
    pad = "  " * indent
    bits = [d.rule]
    if d.marker is not None:
        bits.append(f"[{d.marker}]")
    if d.discharges:
        bits.append("discharges " + ",".join(map(str, sorted(d.discharges))))
    if d.fresh:
        bits.append(f"fresh {d.fresh}")
    head = f"{pad}{parser.render(d.conclusion)}   ({' '.join(bits)})"
    lines = [head]
    for p in d.premises:
        lines.append(pretty(p, indent + 1))
    return "\n".join(lines)
