"""Seeded generators for the synthetic benchmark inputs.

Every family is built so that its expected outcome is known by construction,
not by running the code under test: valid derivations check, each mutant
breaks one field in a way the rule schemas forbid, normal forms of the nested
``imp`` and temporal detours have a known node count, and each validity query
is either a textbook theorem or a formula with a countermodel planted at a
known frame size and valuation.

The seed picks atom and label names, the mutated node and field, and the
low cells of each planted valuation; it never picks sizes or shapes, so the
work per cycle stays about the same from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, replace
from importlib import resources

from tenseproof.derivation import Derivation, assume, node, replace_at, to_json
from tenseproof.parser import render
from tenseproof.syntax import (
    And, Atom, Empty, Eq, F, Falsum, G, H, Implies, Less, Lwff, Or,
)

# Input sizes.  The deepest tree is 321 nodes deep (the conjunction and
# disjunction families at k = 160).  Much deeper inputs hit the recursion
# limit in ``to_json`` and ``check`` (ROADMAP open item 5).
IMP_SIZES = (10, 20, 40, 80, 160)
TEMPORAL_SIZES = (10, 20, 40, 80)
MON_SIZES = (8, 16, 32)
FALSUM_SIZES = (16, 32, 64, 128)
DERIVED_SIZES = (40, 80, 160)

ATOMS = ("p", "q", "r", "s")

# profile extras whose frames are infinite: no bounded search applies
NO_FINITE_FRAMES = {"lser", "rser", "dens", "mtl"}


@dataclass(frozen=True)
class Case:
    """One synthetic derivation with what is known about it by construction."""

    name: str
    derivation: Derivation
    profile: str = "kl"
    expect_nodes: int | None = None


def _markers():
    return itertools.count(1).__next__


# ---------------------------------------------------------------------------
# Detour families (normalizer input)

def imp_detours(k: int, a: str, x: str) -> Derivation:
    """k nested identity detours ``(A -> A)`` applied to the level below;
    the normal form is the single leaf ``x : a``."""
    mk = _markers()
    pa = Lwff(x, Atom(a))
    d = assume(pa, mk())
    for _ in range(k):
        m = mk()
        intro = node("imp_i", Lwff(x, Implies(Atom(a), Atom(a))),
                     assume(pa, m), discharges={m})
        d = node("imp_e", pa, intro, d)
    return d


def temporal_detours(k: int, op: str, a: str, x: str) -> Derivation:
    """k nested ``g_i/g_e`` (or ``h_i/h_e``) detours closed by one more
    elimination at ``z``; the normal form is that elimination on the open
    leaf ``x : G a`` (3 nodes)."""
    mk = _markers()
    cls, intro_rule, elim_rule = ((G, "g_i", "g_e") if op == "g"
                                  else (H, "h_i", "h_e"))

    def rel(y):
        return Less(x, y) if op == "g" else Less(y, x)

    boxed = Lwff(x, cls(Atom(a)))
    d = assume(boxed, mk())
    for i in range(k):
        y, m = f"y{i}", mk()
        inner = node(elim_rule, Lwff(y, Atom(a)), d, assume(rel(y), m))
        d = node(intro_rule, boxed, inner, discharges={m}, fresh=y)
    return node(elim_rule, Lwff("z", Atom(a)), d, assume(rel("z"), mk()))


def mon_chain(k: int, a: str, disorder: bool) -> Derivation:
    """k monotonicity steps on an atom.  ``disorder`` alternates positions
    2, 1, 2, ... on ``l0 < r0`` (every adjacent pair out of order);
    otherwise every step renames the label of ``l0 : a`` (every adjacent
    pair redundant)."""
    mk = _markers()
    if disorder:
        left, right = "l0", "r0"
        d = assume(Less(left, right), mk())
        for i in range(1, k + 1):
            if i % 2:
                new = f"r{i}"
                d = node("mon", Less(left, new), d,
                         assume(Eq(right, new), mk()), position=2)
                right = new
            else:
                new = f"l{i}"
                d = node("mon", Less(new, right), d,
                         assume(Eq(left, new), mk()), position=1)
                left = new
        return d
    label = "l0"
    d = assume(Lwff(label, Atom(a)), mk())
    for i in range(1, k + 1):
        new = f"l{i}"
        d = node("mon", Lwff(new, Atom(a)), d, assume(Eq(label, new), mk()),
                 position=1)
        label = new
    return d


def falsum_chain(k: int, a: str) -> Derivation:
    """k falsum rules from ``x0 : false`` in the repeating order uf1, uf2,
    raa_bot, closed by ``raa_bot`` on an atom."""
    mk = _markers()
    d = assume(Lwff("x0", Falsum()), mk())
    for i in range(1, k):
        step = i % 3
        if step == 1:
            d = node("uf1", Empty(), d)
        else:
            d = node("uf2" if step == 2 else "raa_bot", Lwff(f"x{i}", Falsum()), d)
    if d.rule == "uf1":
        d = node("uf2", Lwff(f"x{k}", Falsum()), d)
    return node("raa_bot", Lwff("z", Atom(a)), d)


def detour_cases(rng) -> list:
    a = rng.choice(ATOMS)
    x = rng.choice(("x", "t", "u"))
    out = [Case(f"imp-{k}", imp_detours(k, a, x), expect_nodes=1)
           for k in IMP_SIZES]
    for op in ("g", "h"):
        out += [Case(f"{op}-{k}", temporal_detours(k, op, a, x), expect_nodes=3)
                for k in TEMPORAL_SIZES]
    for disorder in (True, False):
        tag = "mon-disorder" if disorder else "mon-redundant"
        out += [Case(f"{tag}-{k}", mon_chain(k, a, disorder)) for k in MON_SIZES]
    out += [Case(f"falsum-{k}", falsum_chain(k, a)) for k in FALSUM_SIZES]
    return out


# ---------------------------------------------------------------------------
# Derived-rule families (checker input)

def and_detours(k: int, a: str, b: str, x: str) -> Derivation:
    mk = _markers()
    pa = Lwff(x, Atom(a))
    d = assume(pa, mk())
    for _ in range(k):
        pair = node("and_i", Lwff(x, And(Atom(a), Atom(b))), d,
                    assume(Lwff(x, Atom(b)), mk()))
        d = node("and_e1", pa, pair)
    return d


def f_detours(k: int, a: str, x: str) -> Derivation:
    """Each level eliminates ``F a`` introduced right above it, with the
    level below as the minor premise."""
    mk = _markers()
    fa = Lwff(x, F(Atom(a)))

    def intro(y):
        ma, mb = mk(), mk()
        return node("f_i", fa, assume(Lwff(y, Atom(a)), ma),
                    assume(Less(x, y), mb)), {ma, mb}

    d, opened = intro("y0")
    for i in range(1, k + 1):
        major, new_open = intro(f"y{i}")
        d = node("f_e", fa, major, d, discharges=opened, fresh=f"y{i - 1}")
        opened = new_open
    return d


def or_detours(k: int, a: str, x: str) -> Derivation:
    mk = _markers()
    pa = Lwff(x, Atom(a))
    d = assume(pa, mk())
    for _ in range(k):
        m1, m2 = mk(), mk()
        d = node("or_e", pa, node("or_i1", Lwff(x, Or(Atom(a), Atom(a))), d),
                 assume(pa, m1), assume(pa, m2), discharges={m1, m2})
    return d


def derived_cases(rng) -> list:
    a, b = rng.sample(ATOMS, 2)
    x = rng.choice(("x", "t", "u"))
    out = []
    for k in DERIVED_SIZES:
        out.append(Case(f"and-{k}", and_detours(k, a, b, x)))
        out.append(Case(f"f-{k}", f_detours(k, a, x)))
        out.append(Case(f"or-{k}", or_detours(k, a, x)))
    return out


# ---------------------------------------------------------------------------
# Mutants: one field changed in a way no rule schema admits

NO_SUCH_ATOM = Atom("mutated")

# family -> the rules of the nodes a mutant may change
MUTABLE = {"imp": {"imp_e"}, "or": {"or_e"}, "g": {"g_i"}, "h": {"h_i"},
           "mon": {"mon"}, "falsum": {"uf1", "uf2"}, "and": {"and_e1"},
           "f": {"f_e"}}


def mutate(case: Case, rng) -> Case:
    """Change one field of one node, chosen by ``rng``, so the derivation no
    longer checks.  Each branch says why the change must be rejected."""
    d, family = case.derivation, case.name.split("-")[0]
    path = rng.choice([p for p, n in d.walk() if n.rule in MUTABLE[family]])
    n = d.at(path)
    if family in ("imp", "or"):
        # elimination conclusions are fixed by the premises
        field = "conclusion"
        new = replace(n, conclusion=Lwff(n.conclusion.label, NO_SUCH_ATOM))
    elif family in ("g", "h") and rng.random() < 0.5:
        # the premise is stated at the old label, not the new fresh one
        field, new = "fresh", replace(n, fresh="mutated")
    elif family in ("g", "h"):
        # the order leaf is no longer discharged, so the fresh label occurs
        # in an open assumption
        elim = n.premises[0]
        leaf = replace(elim.premises[1], marker=elim.premises[1].marker + 10 ** 6)
        field = "marker"
        new = replace(n, premises=(replace(elim, premises=(elim.premises[0], leaf)),))
    elif family == "mon":
        # the labels of a chain are pairwise distinct, so the other position
        # never holds the renamed label
        field, new = "position", replace(n, position=3 - n.position)
    elif family == "falsum":
        # uf2 needs ``empty`` as premise; after uf1's premise it sees a
        # labeled falsum (and vice versa)
        field, new = "rule", replace(n, rule="uf2" if n.rule == "uf1" else "uf1")
    elif family == "and":
        # and_e2 concludes the right conjunct, which is another atom
        field, new = "rule", replace(n, rule="and_e2")
    else:
        # f: the discharged assumptions sit at the old fresh label
        field, new = "fresh", replace(n, fresh="mutated")
    return Case(f"mutant-{field}-{case.name}", replace_at(d, path, new), case.profile)


# ---------------------------------------------------------------------------
# Validity queries

# Textbook theorems of the base logic (minimal tense logic over strict linear
# orders), valid on every finite chain.
THEOREMS = (
    "x : G (p -> q) -> G p -> G q",
    "x : H (p -> q) -> H p -> H q",
    "x : p -> G P p",
    "x : p -> H F p",
    "x : G p -> G G p",
    "x : H p -> H H p",
    "x : F p & F q -> F (p & q) | F (p & F q) | F (F p & q)",
    "x : P p & P q -> P (p & q) | P (p & P q) | P (P p & q)",
)


def planted(n: int, atoms, bits) -> str:
    """A formula refuted exactly by the ``n``-world chain carrying the
    valuation ``bits`` (atom-major, the search's cell order) at ``x`` =
    world 0, and by no smaller chain: it denies that such a run of worlds
    starts at a first point."""
    def literals(w):
        lits = [a if bits[j * n + w] else f"~{a}"
                for j, a in enumerate(atoms)]
        return " & ".join(lits)
    body = literals(n - 1)
    for w in range(n - 2, -1, -1):
        body = f"{literals(w)} & F ({body})"
    return f"x : ~(H false & {body})"


@dataclass(frozen=True)
class Query:
    name: str
    formula: str
    worlds: int
    expect: str                   # "valid" | "invalid"
    witness: tuple | None = None  # (n, valuation) planted for "invalid"
    profile: str = "kl"


def validity_queries(rng, corpus_conclusions) -> list:
    """Known theorems at 3 to 5 worlds, and planted non-theorems whose first
    countermodel lies past every smaller frame and past at least half of the
    valuations of its own frame."""
    names = rng.sample(ATOMS, 2)
    rename = {"p": names[0], "q": names[1]}

    def renamed(text):
        return "".join(rename.get(c, c) for c in text)

    out = []
    for i, text in enumerate(THEOREMS):
        out.append(Query(f"axiom{i}", renamed(text), 4, "valid"))
    for cid, text, profile in corpus_conclusions:
        out.append(Query(f"corpus-{cid}", text, 4, "valid", profile=profile))
        if cid == "g4":
            # countermodel search grows about 5x per world on this formula
            out += [Query(f"corpus-g4-{n}", text, n, "valid") for n in (5, 6)]
    for n, atoms in ((3, names[:1]), (4, names[:1]), (4, names), (5, names[:1])):
        cells = n * len(atoms)
        # the first cell is set, so every valuation with it clear comes first
        # in the search order; the seed picks the last three cells only
        bits = [True] + [False] * (cells - 1)
        for c in range(max(1, cells - 3), cells):
            bits[c] = rng.random() < 0.5
        valuation = {a: sorted(w for w in range(n) if bits[j * n + w])
                     for j, a in enumerate(atoms)}
        out.append(Query(f"planted-{n}x{len(atoms)}", planted(n, atoms, bits),
                         n + 1, "invalid", (n, valuation)))
    return out


# ---------------------------------------------------------------------------
# Input files

def corpus_files() -> list:
    root = resources.files("tenseproof") / "corpus"
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(root.iterdir(), key=lambda p: p.name)
            if p.name.endswith(".json")]


def _encode(name, d, **fields):
    """An inputs-file entry, or an error entry when the derivation is too
    deep for ``to_json`` (the benchmark then counts the item as failed)."""
    try:
        return {"name": name, "derivation": to_json(d), **fields}
    except RecursionError:
        return {"name": name, "error": "RecursionError in to_json"}


def _dump(workdir, name, obj):
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Generate the inputs of one workload from ``seed`` into ``workdir``:
    ``<workload>.json`` for the items, plus ``cli.json`` (and
    ``cli-input.json``) for the CLI verb."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    if workload == "corpus":
        return
    if workload == "detours":
        cases = detour_cases(rng)
        _dump(workdir, "detours.json", [
            _encode(c.name, c.derivation, profile=c.profile,
                    expect_nodes=c.expect_nodes) for c in cases])
        cli = next(c for c in cases if c.name == "imp-80")
        _dump(workdir, "cli-input.json", to_json(cli.derivation))
        _dump(workdir, "cli.json", {"steps": 80,
                                    "normal_form": render(cli.derivation.conclusion)})
    elif workload == "check":
        entries = [{"name": f"corpus-{obj['id']}", "profile": obj["profile"],
                    "expect": "theorem", "text": json.dumps(obj["derivation"])}
                   for obj in corpus_files()]
        cases = detour_cases(rng) + derived_cases(rng)
        cases += [mutate(c, rng) for c in cases]
        for c in cases:
            entry = _encode(c.name, c.derivation, profile=c.profile,
                            expect="reject" if c.name.startswith("mutant")
                            else "ok")
            if "derivation" in entry:
                entry["text"] = json.dumps(entry.pop("derivation"))
            entries.append(entry)
        _dump(workdir, "check.json", entries)
        cli = next(c for c in cases if c.name == f"f-{DERIVED_SIZES[-1]}")
        _dump(workdir, "cli-input.json", to_json(cli.derivation))
    elif workload == "validity":
        corpus = [(obj["id"], obj["conclusion"], obj["profile"])
                  for obj in corpus_files()
                  if not set(obj["profile"].split("+")) & NO_FINITE_FRAMES]
        queries = validity_queries(rng, corpus)
        _dump(workdir, "validity.json", [
            {"name": q.name, "formula": q.formula, "worlds": q.worlds,
             "profile": q.profile, "expect": q.expect} for q in queries])
        g4 = next(text for cid, text, _ in corpus if cid == "g4")
        _dump(workdir, "cli.json", {"formula": g4, "worlds": 5})
    else:
        raise ValueError(f"unknown workload {workload!r}")
