"""The load path, text to formula and JSON to derivation, against the
parent's verbatim version in ``load_reference``: the same value or the same
error, message and position included, on rendered random entities with
edits, and on JSON trees with one field made wrong.  And the pre-order index
of a tree against the parent's open-leaf fold and root paths in
``open_reference``, and the node ``from_json`` builds: a ``Derivation``
behaves as the plain frozen dataclass of its seven fields."""

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

import load_reference as ref
import open_reference as oref
from helpers import DerivationGen, random_entity
from test_kernel import DERIVED_TREES
from tenseproof import parser
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import (
    Derivation, all_labels, assume, from_json, index, node, path_to, to_json,
)
from tenseproof.kernel import open_assumptions
from tenseproof.parser import ParseError, parse_lwff as pl, render
from tenseproof.syntax import labels_of

# token characters, characters that start no token, and whitespace that
# ``\s`` matches beyond ASCII
_EDIT_CHARS = ("xyzpq_0A:~<.=->/\\()!&|GHFPX $\u00e9\u00df"
               "\t\n\x0b\x1c\x85\u00a0\u2028\u3000")


def _outcome(read, *args):
    """``("value", value)``, or the error with its type, its message and,
    for a ``ParseError``, its position and what it expected."""
    try:
        return "value", read(*args)
    except ParseError as exc:
        return type(exc), str(exc), (exc.line, exc.column, exc.expected)
    except ValueError as exc:
        return type(exc), str(exc)


@seed(26)
@settings(max_examples=400, database=None, deadline=None)
@given(st.data())
def test_texts_parse_as_the_reference_parses_them(data):
    rng = data.draw(st.randoms(use_true_random=False))
    text = render(random_entity(rng, rng.randrange(6)))
    edit = data.draw(st.sampled_from(("none", "cut", "replace", "insert",
                                      "delete")))
    i = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from(_EDIT_CHARS))
    text = {"none": text, "cut": text[:i],
            "replace": text[:i] + c + text[i + 1:],
            "insert": text[:i] + c + text[i:],
            "delete": text[:i] + text[i + 1:]}[edit]
    for kind in ("formula", "rwff", "lwff", "any"):
        assert _outcome(parser.parse, kind, text) == _outcome(ref.parse, kind, text)


def _json_trees() -> list:
    """The corpus and 30 generated derivations, as JSON."""
    gen = DerivationGen(random.Random(26))
    trees = [e.derivation for e in corpus_entries()]
    trees += [gen.derivation(max_nodes=20, steps=10) for _ in range(30)]
    return [json.dumps(to_json(d)) for d in trees]


_TREES = _json_trees()
_ABSENT = object()
# one field made wrong: a missing, null or mistyped field, a bool where an
# int belongs, premises and discharges that are no lists, premises that
# are no objects, and texts that do not parse
_WRONG = (
    ("rule", _ABSENT), ("rule", None), ("rule", 5), ("rule", ["assume"]),
    ("rule", "no_such_rule"), ("conclusion", _ABSENT), ("conclusion", None),
    ("conclusion", 7), ("conclusion", "x : ->"), ("conclusion", "x y"),
    ("conclusion", "x : p $"), ("premises", None), ("premises", {}),
    ("premises", "x"), ("premises", 0), ("premises", {"rule": "assume"}),
    ("premises", [3]), ("premises", [None]), ("premises", [[]]),
    ("premises", []), ("marker", None), ("marker", True), ("marker", "1"),
    ("marker", 1.0), ("marker", 7), ("discharges", None), ("discharges", 1),
    ("discharges", "1"), ("discharges", {}), ("discharges", [True]),
    ("discharges", [1, "2"]), ("discharges", [1, 2]), ("fresh", None),
    ("fresh", 3), ("fresh", "y"), ("position", None), ("position", False),
    ("position", 1.0), ("position", 1),
)


def _loaded(load, obj):
    outcome = _outcome(load, obj)
    return ("value", to_json(outcome[1])) if outcome[0] == "value" else outcome


@seed(27)
@settings(max_examples=300, database=None, deadline=None)
@given(st.data())
def test_json_nodes_load_as_the_reference_loads_them(data):
    obj = json.loads(data.draw(st.sampled_from(_TREES)))
    nodes, todo = [], [obj]
    while todo:
        n = todo.pop()
        nodes.append(n)
        todo += n.get("premises", ())
    n = data.draw(st.sampled_from(nodes))
    key, value = data.draw(st.sampled_from(_WRONG))
    if value is _ABSENT:
        n.pop(key, None)
    else:
        n[key] = value
    assert _loaded(from_json, obj) == _loaded(ref.from_json, obj)


def _chain(k: int):
    """``k`` identity detours, each in the minor premise of the next:
    ``3 k + 1`` nodes, ``k + 1`` deep."""
    d = assume(pl("x : p"))
    for m in range(1, k + 1):
        intro = node("imp_i", pl("x : p -> p"), assume(pl("x : p"), m),
                     discharges={m})
        d = node("imp_e", pl("x : p"), intro, d)
    return d


def _shared_trees() -> list:
    """Trees where one leaf object sits at several places, one marker is
    discharged at two nodes, and an assumption node has premises."""
    leaf, q = assume(pl("x : p"), 1), assume(pl("y : q"))
    inner = node("imp_i", pl("x : p -> p"), leaf, discharges={1})
    both = node("and_i", pl("x : (p -> p) & p"), inner, leaf)
    twice = node("imp_i", pl("x : p -> (p -> p) & p"), both, discharges={1})
    held = Derivation("assume", pl("y : q"), (twice, q, leaf), 2)
    return [both, twice, node("imp_e", pl("y : q"), held, q, leaf)]


def test_index_agrees_with_the_open_fold_reference():
    # the index of each tree, and of its copy loaded from JSON, against the
    # parent's open-leaf fold and root paths: each subtree's size and open
    # leaves in order (also those in which a label is free, and whether a
    # label is free in one that stays open in the parent's subtree), the
    # context, and the root path of each node; on the deep chain, of every
    # 100th
    dgen = DerivationGen(random.Random(30))
    trees = [e.derivation for e in corpus_entries()] + _shared_trees()
    trees += [make() for _, make in DERIVED_TREES]
    trees += [dgen.derivation() for _ in range(200)]
    trees = [t for d in trees for t in (d, from_json(to_json(d)))]
    for t in trees + [_chain(3000)]:
        ix, subtrees = index(t), {}

        def visit(k, n, below, starts, end):
            assert ix.nodes[k] is n and ix.size[k] == end - k
            subtrees.update((s, [e[1] for e in b]) for s, b in zip(starts, below))
        subtrees[0] = [e[1] for e in oref._open_fold(t, visit)]
        assert sorted(subtrees) == list(range(t.node_count()))
        step = 100 if len(ix.nodes) > 1000 else 1
        labels = all_labels(t) if step == 1 else ()
        for k, (path, n) in enumerate(t.walk()):
            if k % step:
                continue
            assert ix.nodes[k] is n
            assert path_to(t, k) == oref.path_to(t, k) == path, k
            assert list(ix.open_leaves(k)) == subtrees[k], k
            for x in labels:
                assert list(ix.open_leaves(k, x)) == [
                    leaf for leaf in subtrees[k]
                    if x in labels_of(ix.nodes[leaf].conclusion)], (k, x)
                assert not k or ix.open_above(k, x) == any(
                    k <= leaf < k + ix.size[k]
                    and x in labels_of(ix.nodes[leaf].conclusion)
                    for leaf in subtrees[ix.parent[k]]), (k, x)
        assert open_assumptions(t) == oref._context(oref._open_fold(t))


_FIELDS = [("rule", str), ("conclusion", object), ("premises", tuple, ()),
           ("marker", object, None), ("discharges", frozenset, frozenset()),
           ("fresh", object, None), ("position", object, None)]
_MEMOS = ("_size", "_index", "_redex", "_least", "_mon", "_clean")


def test_a_derivation_is_its_frozen_dataclass():
    twin_of = dataclasses.make_dataclass("Derivation", _FIELDS, frozen=True)
    twin_of.__qualname__ = Derivation.__qualname__
    names = [f[0] for f in _FIELDS]
    values = ("g_i", pl("x : G p"), (assume(pl("y : p"), 1),), None,
              frozenset({1}), "y", None)
    d, twin = Derivation(*values), twin_of(*values)
    assert type(d) is Derivation and not hasattr(d, "__dict__")
    assert dataclasses.is_dataclass(d)
    assert [f.name for f in dataclasses.fields(d)] == names
    assert repr(d) == repr(twin) and hash(d) == hash(twin)
    assert d == Derivation(**dict(zip(names, values))) and d != twin
    for k in range(2, 8):               # by position, the rest by default
        assert repr(Derivation(*values[:k])) == repr(twin_of(*values[:k]))
        by_name = dict(zip(names, values[:k]))
        assert Derivation(*values[:k]) == Derivation(**by_name)
    assert Derivation(*values[:6]) == d and Derivation(*values[:5]) != d
    for args, kwargs in [(values + (None,), {}), (values[:1], {}),
                         (values, {"rule": "g_i"}), (values[:2], {"size": 1})]:
        with pytest.raises(TypeError):
            Derivation(*args, **kwargs)
    for name, new in zip(names, ("h_i", pl("x : H p"), (), 2, frozenset(),
                                 "z", 1)):
        changed = dataclasses.replace(d, **{name: new})
        assert type(changed) is Derivation and changed != d
        assert repr(changed) == repr(dataclasses.replace(twin, **{name: new}))
    for name in names + list(_MEMOS):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(d, name)
    # the memos: unset on a new node, and outside ==, repr, replace, copies
    assert not any(hasattr(d, m) for m in _MEMOS)
    assert d.node_count() == 2 and d._size == 2
    for m in _MEMOS[1:]:
        object.__setattr__(d, m, m)
    assert d == Derivation(*values) and hash(d) == hash(twin)
    assert repr(d) == repr(twin)
    for made in (dataclasses.replace(d), copy.copy(d), copy.deepcopy(d),
                 pickle.loads(pickle.dumps(d))):
        assert type(made) is Derivation and made == d and made is not d
        assert not any(hasattr(made, m) for m in _MEMOS)
