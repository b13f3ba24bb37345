"""Derivation trees and tree surgery helpers.

A derivation is a finite immutable tree; premises sit above their rule node,
so ``premises[i]`` is drawn *above* the node in the usual proof-tree picture.
Assumption leaves may carry an integer marker; rule nodes may discharge a set
of markers and may introduce a fresh label.  Paths address nodes as tuples of
premise indices from the root.

There are three traversals, none recursive; use the cheapest that serves:

- ``fold`` computes bottom-up: each node's value from its premises' values.
  Every rebuilding helper below is a fold; ``relabel`` also carries its
  label environment down through the fold's pre-order visit.
- ``index`` numbers the nodes once per tree in the order of
  ``Derivation.nodes``, root first, and keeps the result on the root.  A
  number names a node, and its subtree is the range ``[k, k + size)``
  (Dietz, STOC 1982).  The checker, the expander, the tracks and the audit
  read it; ``path_to`` turns a number into a root path for a report.
- ``Derivation.walk`` yields the nodes in the same order with their root
  paths; building a path costs its length, so it serves only
  ``find_redexes``, which names every redex by its path, and tests.

A node is a frozen dataclass whose seven fields and six memos are slots
of the common base ``_Memos``.  ``Derivation(...)`` fills a ``_Open``, an
unguarded sibling class, by plain stores and then gives it its class,
which is cheaper than a dataclass ``__init__`` that writes each field past
the frozen guard.

The memos are left out of the constructor, comparison, ``repr`` and
copies, written past the frozen guard, and unset until asked for:
``_size``, the number of nodes in its subtree (``node_count``);
``_index``, its ``index``; for the normalizer ``_redex``, the key of the
least redex at the node, ``_least``, that of the least redex in its
subtree with the path relative to the node, and ``_mon``, the class of a
``mon`` node; and for the checker ``_clean``, set on a derived node whose
core template checked clean.  Each reads only the node's immutable
subtree, so the memos hold wherever the node sits, in any tree (``_clean``
wherever no leaf the node discharges lies outside it, which the checker
tests).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Union

from . import parser
from .syntax import (
    Eq, Exists, Forall, Less, Lwff, Prec, RFormula, labels_of, post_order,
    substitute_labels,
)

Conclusion = Union[Lwff, RFormula]
Path = tuple

ASSUME = "assume"


class _Memos:
    """The slots of a node: its seven fields, then its six memos (see
    above), which are no dataclass fields and stay unset until written."""

    __slots__ = ("rule", "conclusion", "premises", "marker", "discharges",
                 "fresh", "position", "_size", "_index", "_redex", "_least",
                 "_mon", "_clean")


class _Open(_Memos):
    """A node while it is built: the slots of ``Derivation`` without its
    frozen guard, so its fields are written by plain stores."""

    __slots__ = ()


@dataclass(frozen=True, init=False)
class Derivation(_Memos):
    # no defaults: a default would be a class attribute over the base's slot
    __slots__ = ()
    rule: str
    conclusion: Conclusion
    premises: tuple
    marker: Optional[int]             # assumption leaves only
    discharges: frozenset             # markers closed at this node
    fresh: Optional[str]              # label introduced by this node
    position: Optional[int]           # designated label position for mon

    def __new__(cls, rule, conclusion, premises=(), marker=None,
                discharges=frozenset(), fresh=None, position=None):
        d = _Open()
        d.rule = rule
        d.conclusion = conclusion
        d.premises = premises
        d.marker = marker
        d.discharges = discharges
        d.fresh = fresh
        d.position = position
        d.__class__ = cls
        return d

    def __reduce__(self):
        return self.__class__, (self.rule, self.conclusion, self.premises,
                                self.marker, self.discharges, self.fresh,
                                self.position)

    def is_assumption(self) -> bool:
        return self.rule == ASSUME

    def node_count(self) -> int:
        """The number of nodes in the subtree, memoized on each of its
        nodes: the count stops at nodes already counted."""
        return getattr(self, "_size", None) or fold(self, _count, _uncounted)

    def at(self, path: Path) -> "Derivation":
        node = self
        for i in path:
            node = node.premises[i]
        return node

    def nodes(self) -> Iterator["Derivation"]:
        """Yield every node, root first, premises left to right (the order
        of ``walk``)."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack += n.premises[::-1]

    def walk(self) -> Iterator[tuple]:
        """Yield ``(path, node)`` pairs, root first, premises left to right
        (so paths come in lexicographic order)."""
        stack = [((), self)]
        while stack:
            path, n = stack.pop()
            yield path, n
            premises = n.premises
            for i in range(len(premises) - 1, -1, -1):
                stack.append((path + (i,), premises[i]))


def path_to(d: Derivation, k: int) -> Path:
    """The root path of node number ``k`` of ``d``, read off its parents."""
    ix, path = index(d), []
    while k:
        p = ix.parent[k]
        path.append(ix.premises(p).index(k))
        k = p
    return tuple(reversed(path))


class Index:
    """The pre-order index of a tree: ``nodes`` by number, ``post`` the
    numbers in post-order, the ``size`` and ``parent`` (-1 at the root) of
    each node, and the ascending numbers of the assumptions, of each
    marker's leaves and dischargers, and of the assumptions with premises
    (``blocks``), which close every leaf above them."""

    _free = None            # each label's leaves (``_labels``)

    def __init__(self, d: Derivation):
        self.nodes, self.post, self.size, self.parent = nodes, post, size, parent = [], [], [], []
        self.assumptions, self.leaves, self.dischargers, self.blocks = [], {}, {}, []
        stack = [d]             # the nodes to enter; None leaves one
        above = [-1]            # the number of the node each is above
        while stack:
            n, p = stack.pop(), above.pop()
            if n is None:
                size[p] = len(nodes) - p
                post.append(p)
                continue
            k = len(nodes)
            nodes.append(n)
            parent.append(p)
            size.append(1)
            if n.premises:
                stack.append(None)
                stack += n.premises[::-1]
                above += [k] * (len(n.premises) + 1)
            else:
                post.append(k)
            if n.rule == ASSUME:
                self.assumptions.append(k)
                if n.marker is not None:
                    self.leaves.setdefault(n.marker, []).append(k)
                if n.premises:
                    self.blocks.append(k)
            for m in n.discharges:
                self.dischargers.setdefault(m, []).append(k)

    def premises(self, k: int) -> list:
        """The numbers of the premises of node ``k``."""
        size, out, c = self.size, [], k + 1
        for _ in self.nodes[k].premises:
            out.append(c)
            c += size[c]
        return out

    def closer(self, marker, pos: int) -> int:
        """The deepest proper ancestor of node ``pos`` that discharges
        ``marker`` or is an assumption, which closes a leaf there, or -1."""
        size = self.size
        return max((j for j in chain(self.dischargers.get(marker, ()), self.blocks)
                    if j < pos < j + size[j]), default=-1)

    def open_leaves(self, k: int, label=None) -> Iterator[int]:
        """The numbers of the leaves open in subtree ``k``, in order; with a
        ``label``, only those in which it is free."""
        among = self.assumptions if label is None else self._labels()[0].get(label, ())
        for leaf in among[bisect_left(among, k):bisect_left(among, k + self.size[k])]:
            if self.closer(self.nodes[leaf].marker, leaf) < k:
                yield leaf

    def open_above(self, k: int, label) -> bool:
        """Is ``label`` free in a leaf of subtree ``k`` that is open in the
        subtree of its parent?  Counted, so closed leaves are not scanned:
        those closed in subtree ``k`` or by the parent ``q`` have their
        closer in ``[k, k + size)`` or equal to ``q``."""
        free, shut = self._labels()
        among, shut = free.get(label, ()), shut.get(label, ())
        q, e = self.parent[k], k + self.size[k]
        return (bisect_left(among, e) - bisect_left(among, k)
                > bisect_left(shut, (e,)) - bisect_left(shut, (k,))
                + bisect_left(shut, (q, e)) - bisect_left(shut, (q, k)))

    def _labels(self) -> tuple:
        """Each label's leaves, and the sorted ``(closer, number)`` of those
        a node closes, built on first use."""
        if self._free is None:
            free, shut = {}, {}
            for leaf in self.assumptions:
                c = self.closer(self.nodes[leaf].marker, leaf)
                for x in labels_of(self.nodes[leaf].conclusion):
                    free.setdefault(x, []).append(leaf)
                    if c >= 0:
                        shut.setdefault(x, []).append((c, leaf))
            for pairs in shut.values():
                pairs.sort()
            self._free = free, shut
        return self._free


def index(d: Derivation) -> Index:
    """The ``Index`` of ``d``, built once and kept in its ``_index`` slot."""
    if not hasattr(d, "_index"):
        _Memos._index.__set__(d, Index(d))
    return d._index


def assume(conclusion: Conclusion, marker: Optional[int] = None) -> Derivation:
    return Derivation(ASSUME, conclusion, (), marker=marker)


def node(rule: str, conclusion: Conclusion, *premises: Derivation,
         discharges=(), fresh: Optional[str] = None,
         position: Optional[int] = None) -> Derivation:
    return Derivation(rule, conclusion, tuple(premises),
                      discharges=frozenset(discharges), fresh=fresh,
                      position=position)


def with_premise(t: Derivation, i: int, p: Derivation) -> Derivation:
    """``t`` with ``p`` as its premise ``i``; ``t`` itself if ``p`` is
    already there."""
    return with_premises(t, t.premises[:i] + (p,) + t.premises[i + 1:])


def with_premises(n: Derivation, premises: list) -> Derivation:
    """``n`` over ``premises``; ``n`` itself if they are its own."""
    old = n.premises
    for i, p in enumerate(premises):
        if p is not old[i]:
            return Derivation(n.rule, n.conclusion, tuple(premises), n.marker,
                              n.discharges, n.fresh, n.position)
    return n


def replace_at(d: Derivation, path: Path, new: Derivation) -> Derivation:
    spine = [d]
    for i in path[:-1]:
        spine.append(spine[-1].premises[i])
    for t, i in zip(reversed(spine), reversed(path)):
        new = with_premise(t, i, new)
    return new


def _own_premises(t: Derivation) -> tuple:
    return t, t.premises


def fold(root, combine: Callable, visit: Callable = _own_premises):
    """Fold a tree bottom-up without recursion.  ``visit(t)`` is called on
    each node in pre-order, left to right, and returns the node to keep and
    its children; ``combine(node, results)`` then gets the list of the
    children's results, in order.  Nodes must not be tuples: a tuple on
    the stack is a ``(node, child count)`` waiting for its results."""
    results: list = []
    stack = [root]
    while stack:
        t = stack.pop()
        if t.__class__ is tuple:
            n, k = t
            if k:
                value = combine(n, results[-k:])
                del results[-k:]
            else:
                value = combine(n, [])
            results.append(value)
        else:
            n, kids = visit(t)
            stack.append((n, len(kids)))
            stack += kids[::-1]
    return results[0]


def _uncounted(t: Derivation) -> tuple:
    return t, (() if hasattr(t, "_size") else t.premises)


def _count(t: Derivation, sizes: list) -> int:
    size = getattr(t, "_size", None)
    if size is None:
        size = 1 + sum(sizes)
        object.__setattr__(t, "_size", size)
    return size


def map_leaves(d: Derivation, fn: Callable[[Derivation], Derivation]) -> Derivation:
    """``d`` with every assumption leaf replaced by ``fn(leaf)``.  A subtree
    in which nothing changes is returned as the same object."""
    return fold(d, lambda n, premises: fn(n) if n.is_assumption()
                else with_premises(n, premises))


def all_labels(d: Derivation) -> set:
    """Every label mentioned anywhere: conclusions, bound variables, fresh
    annotations.  Superset of the free labels; safe avoid-set for fresh names."""
    out: set = set()
    seen: set = set()           # relational formula nodes already read
    for n in d.nodes():
        c = n.conclusion
        if isinstance(c, Lwff):
            out.add(c.label)          # a tense formula holds no labels
        else:
            for e in post_order(c, seen.__contains__):
                seen.add(e)
                if isinstance(e, (Forall, Exists)):
                    out.add(e.var)
                elif isinstance(e, (Less, Eq, Prec)):
                    out.update((e.x, e.y))
        if n.fresh:
            out.add(n.fresh)
    return out


def all_markers(d: Derivation) -> set:
    out: set = set()
    for n in d.nodes():
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


def relabel(d: Derivation, env: dict,
            rename: Callable[[str], Optional[str]]) -> Derivation:
    """``d`` with the labels ``env`` maps replaced in every formula and
    fresh label, in one top-down pass.  Where ``rename`` maps a node's fresh
    label, as replaced above it, to a name, that label becomes the name in
    the node's subtree.  Unchanged subtrees are returned as they are."""
    env = dict(env)         # the labels in scope; a rename binds and unbinds

    def bind(t: Derivation) -> tuple:
        label = t.fresh
        name = None if label is None else rename(env.get(label, label))
        if name is None:
            return (t, None, None), t.premises
        saved, env[label] = env.get(label), name
        return (t, label, saved), t.premises

    def rebuild(scope: tuple, premises: list) -> Derivation:
        t, label, saved = scope
        c, fresh = substitute_labels(t.conclusion, env), env.get(t.fresh, t.fresh)
        if saved is not None:
            env[label] = saved
        elif label is not None:
            del env[label]
        if c is t.conclusion and fresh == t.fresh:
            return with_premises(t, premises)
        return Derivation(t.rule, c, tuple(premises), t.marker, t.discharges,
                          fresh, t.position)

    return fold(d, rebuild, bind)


def refresh_internal_markers(d: Derivation, gen: MarkerGen) -> Derivation:
    """Rename markers that are discharged *within* ``d`` so a copied subtree
    cannot collide with its siblings; markers discharged outside stay put.
    ``d`` itself if it discharges nothing."""
    internal: dict[int, int] = {}
    for n in d.nodes():
        for m in n.discharges:
            if m not in internal:
                internal[m] = gen()
    if not internal:
        return d

    def rewrite(n: Derivation, premises: list) -> Derivation:
        if n.marker not in internal and not any(m in internal for m in n.discharges):
            return with_premises(n, premises)
        return Derivation(n.rule, n.conclusion, tuple(premises),
                          internal.get(n.marker, n.marker),
                          frozenset(internal.get(m, m) for m in n.discharges),
                          n.fresh, n.position)

    return fold(d, rewrite)


def copies(d: Derivation, gen: MarkerGen) -> Iterator[Derivation]:
    """``d`` itself, then copies of it, each with the markers discharged
    within it refreshed from ``gen``.  The first keeps ``d``'s memos, so
    ``d`` must occur nowhere else in the tree the copies go into."""
    yield d
    while True:
        yield refresh_internal_markers(d, gen)


def graft(d: Derivation, places: dict) -> Derivation:
    """``d`` with each leaf whose marker ``places`` maps replaced by the
    next derivation of that marker's iterator, leaves left to right, in one
    pass; markers may share an iterator.  ``d`` itself, not walked, if
    ``places`` is empty."""
    if not places:
        return d
    return map_leaves(d, lambda leaf: next(places[leaf.marker])
                      if leaf.marker in places else leaf)


# ---------------------------------------------------------------------------
# JSON wire format

def to_json(d: Derivation) -> dict:
    def encode(n: Derivation, premises: list) -> dict:
        out: dict = {"rule": n.rule, "conclusion": parser.render(n.conclusion)}
        if premises:
            out["premises"] = premises
        if n.marker is not None:
            out["marker"] = n.marker
        if n.discharges:
            out["discharges"] = sorted(n.discharges)
        if n.fresh is not None:
            out["fresh"] = n.fresh
        if n.position is not None:
            out["position"] = n.position
        return out
    return fold(d, encode)


def brief_repr(value) -> str:
    """``repr(value)``, cut to 40 characters, of a value read from JSON;
    built without recursion, so a value of any depth can be named in an
    error message."""
    return _text(value, repr, False)[:40]


_NO_MARKERS = frozenset()
# every field a node may have, and the type of each but the rule
_FIELDS = {"rule": None, "conclusion": str, "premises": list, "marker": int,
           "discharges": list, "fresh": str, "position": int}


def _mistyped(obj: dict, *keys) -> ValueError:
    """The error of the first of ``keys`` whose value in ``obj`` is neither
    ``null`` nor exactly of its type (so no bool for int)."""
    for key in keys:
        value, kind = obj.get(key), _FIELDS[key]
        if value is not None and value.__class__ is not kind:
            return ValueError(f"derivation field {key!r} must be "
                              f"{kind.__name__}, not {brief_repr(value)}")


def from_json(obj: dict) -> Derivation:
    """The derivation a JSON object describes, read in one loop over an
    explicit stack.  A node's rule, discharges and premises are checked
    before its premises are read, its other fields after; a ``null`` field
    counts as absent, one of another name is an error.  Each distinct
    conclusion text is parsed once."""
    from .rules import RULES

    parsed: dict = {}
    built: list = []        # the nodes built whose parent is not yet built
    stack: list = [obj]     # a tuple is a node whose premises are built
    while stack:
        obj = stack.pop()
        if obj.__class__ is tuple:
            obj, rule, discharges, k = obj
            premises = tuple(built[-k:])
            del built[-k:]
        else:
            if not isinstance(obj, dict):
                raise ValueError(f"derivation node must be a JSON object, not {brief_repr(obj)}")
            if not _FIELDS.keys() >= obj.keys():
                key = next(key for key in obj if key not in _FIELDS)
                raise ValueError(f"derivation field {key!r} is not known")
            rule, discharges = obj.get("rule"), obj.get("discharges")
            if not isinstance(rule, str):
                raise ValueError("derivation node lacks a 'rule' string")
            if rule not in RULES:
                raise ValueError(f"unknown rule {rule!r}")
            if discharges is None:
                discharges = _NO_MARKERS
            elif discharges.__class__ is not list:
                raise _mistyped(obj, "discharges")
            elif all(m.__class__ is int for m in discharges):
                discharges = frozenset(discharges)
            else:
                raise ValueError(f"derivation field 'discharges' must list ints, "
                                 f"not {brief_repr(discharges)}")
            premises = obj.get("premises")
            if premises is not None and premises.__class__ is not list:
                raise _mistyped(obj, "premises")
            if premises:
                stack.append((obj, rule, discharges, len(premises)))
                stack += premises[::-1]
                continue
            premises = ()
        text = obj.get("conclusion")
        if text is None:
            conclusion = RULES[rule].axiom_template
            if conclusion is None:
                raise ValueError(f"node for rule {rule!r} lacks a conclusion")
        elif text.__class__ is not str:
            raise _mistyped(obj, "conclusion")
        else:
            conclusion = parsed.get(text)
            if conclusion is None:
                conclusion = parsed[text] = parser.parse("any", text)
        marker, fresh, position = obj.get("marker"), obj.get("fresh"), obj.get("position")
        if not ((marker is None or marker.__class__ is int)
                and (fresh is None or fresh.__class__ is str)
                and (position is None or position.__class__ is int)):
            raise _mistyped(obj, "marker", "fresh", "position")
        d = Derivation(rule, conclusion, premises, marker, discharges, fresh, position)
        built.append(d)
    return built[0]


_SKIP = re.compile(r"[ \t\n\r]*").match      # the whitespace ``json`` skips
_SCALAR = json.JSONDecoder().scan_once
_CLOSER = {"{": "}", "[": "]"}


def decode(text: str):
    """``json.loads(text)``, read without recursion so a document of any
    depth can be read.  Arrays and objects are kept on an explicit stack;
    every other value is decoded by the ``json`` module, so exactly the
    same texts are accepted."""
    stack: list = []        # [container, key] of each open array or object
    i = _SKIP(text, 0).end()
    while True:
        c = text[i:i + 1]
        if c in _CLOSER:
            value = {} if c == "{" else []
            i = _SKIP(text, i + 1).end()
            if text[i:i + 1] != _CLOSER[c]:
                top = [value, None]
                if c == "{":
                    top[1], i = _key(text, i)
                stack.append(top)
                continue
            i += 1
        else:
            try:
                value, i = _SCALAR(text, i)
            except StopIteration as stop:
                raise json.JSONDecodeError("Expecting value", text,
                                           stop.value) from None
        while True:                       # put ``value`` in its container
            i = _SKIP(text, i).end()
            if not stack:
                if i != len(text):
                    raise json.JSONDecodeError("Extra data", text, i)
                return value
            top = stack[-1]
            container, key = top
            if key is None:
                container.append(value)
            else:
                container[key] = value
            c = text[i:i + 1]
            if c == ",":
                i = _SKIP(text, i + 1).end()
                if key is not None:
                    top[1], i = _key(text, i)
                break
            if c != ("]" if key is None else "}"):
                raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
            stack.pop()
            value, i = container, i + 1


def _key(text: str, i: int) -> tuple:
    """The object key at ``i`` and the index past its colon."""
    if text[i:i + 1] != '"':
        raise json.JSONDecodeError(
            "Expecting property name enclosed in double quotes", text, i)
    key, i = json.decoder.scanstring(text, i + 1)
    i = _SKIP(text, i).end()
    if text[i:i + 1] != ":":
        raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
    return key, _SKIP(text, i + 1).end()


def load_json(path: str):
    """The JSON value in the file at ``path``, of any depth: read by
    ``json.loads``, or by ``decode`` if it nests deeper than ``json.loads``
    can read."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:
        return decode(text)


def load(path: str) -> Derivation:
    return from_json(load_json(path))


def dumps(d: Derivation) -> str:
    """``json.dumps(to_json(d), indent=1)``, written without recursion so a
    derivation of any depth can be written."""
    return _text(to_json(d), json.dumps, True)


def _text(value, scalar, indent: bool) -> str:
    """``value`` as text, written without recursion: lists and dicts as
    ``json.dumps`` writes them (with ``indent=1`` if ``indent``), every
    other value, and each key, by ``scalar``."""
    out: list = []
    stack: list = [(value, "")]
    while stack:
        value, pad = stack.pop()
        if pad is None:                   # text between the values
            out.append(value)
        elif value and value.__class__ in (dict, list):
            if value.__class__ is dict:
                items = [(scalar(k) + ": ", v) for k, v in value.items()]
                out.append("{")
                close = "}"
            else:
                items = [("", v) for v in value]
                out.append("[")
                close = "]"
            inner = pad + " "
            comma, first = (",\n" + inner, "\n" + inner) if indent else (", ", "")
            stack.append((("\n" + pad if indent else "") + close, None))
            for i in range(len(items) - 1, -1, -1):
                key, v = items[i]
                stack.append((v, inner))
                stack.append(((comma if i else first) + key, None))
        else:
            out.append(scalar(value))
    return "".join(out)


def dump(d: Derivation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(d) + "\n")
