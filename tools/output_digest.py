#!/usr/bin/env python3
"""Print a digest of what the library outputs on a fixed set of inputs.

One line per derivation tree names the tree and gives a short hash of each
output: the check report (violation kinds, paths and messages), the open
context, the raw ``expand_derived`` text and the ``find_redexes`` list; for
a tree that checks, also the normal form, the normalization trace, the
canonical form of the normal form, the ``restrict`` result raw and in
canonical form, the normal form and the ``restrict`` result with only their
markers renumbered (``*_renum``: 1.. in first-mention order, as
``canonical_form`` numbers them, conclusions and fresh labels left raw), and
the ``tracks`` and ``audit_subformula`` reports on the normal form, and
the ``soundness_probe`` verdict and countermodel at 4 worlds (``probe``,
for trees whose entailment names at most 10 labels: the search tries every
interpretation of the labels, 4 ** labels of them).  Two raw outputs whose
``*_renum`` fields agree differ only in marker numbers.  Further lines
digest ``render``, ``parse`` and the ``ParseError`` text on seeded random
entities and broken strings, ``find_countermodel``'s verdict and
countermodel on seeded random queries (``cm-*``), the check report of
2000 seeded mutants of a derived node (``dmut-*``: ``derived_mutant`` of
the kernel tests over their ``derived_bases``), the check report of 150
seeded derived chains whose levels are label renamings of one another,
one to one or merging labels (``dren-*``), the rule tables
(``rules``: the ``RULES`` entries in order, the detour pairs and the
introduction, elimination and falsum rules), and the ``check_frame``
verdicts on the relations of ``helpers.all_frames`` under ``kl``, each
``kl+<extra>`` and ``mtl`` (``frame-*``).  Last, one line per command line
call (``cli-*``), run in this process through ``cli.main`` on fixed
inputs, gives its exit code and a hash of its stdout and of its stderr:
``check`` with and without ``--probe``, ``normalize`` with ``--trace``,
``eval`` (also of an unbound label), ``valid`` on a theorem, a
non-theorem and a formula that does not parse, and ``corpus`` on a prefix.

The trees are the bundled corpus, ``DERIVED_TREES`` of the kernel tests,
the detour and derived-rule benchmark families of seeds 1-3 with one
``perfbench/gen.mutate`` mutant each, 200 ``DerivationGen`` trees and 3000
seeded one-field mutants of the corpus, ``DERIVED_TREES`` and the seed-1
family trees of at most 400 nodes, a tenth of them swapping a rule with its
twin of the other sort, and 300 seeded ``mon`` applications that take a
random relational formula through a random equality ``a = b`` to its full
substitution (``rmon-*``), so that ``restrict`` transports them, 300
seeded reductios (``raa-*``) that ``restrict`` opens at every connective of
both sorts, three deep trees whose violations lie thousands of levels from
the root, two deep chains of case splits that rename markers at every
level, two deep reductios that ``restrict`` opens, and a deep chain of
``g_e`` steps (``deep-*``).  The ``tracks`` and ``audit`` fields name nodes
by root path.
Only the library comes from ``--src``; the generators come from this
checkout, so two checkouts digest the same inputs:

    python3 tools/output_digest.py --src ../old/src > old.txt
    python3 tools/output_digest.py --src src > new.txt
    diff old.txt new.txt

An identical digest is the evidence that a change keeps every output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parents[1]

# each rule with its twin of the other sort
TWINS = dict(p for pair in [
    ("imp_i", "rimp_i"), ("imp_e", "rimp_e"), ("raa_bot", "raa_empty"),
    ("not_i", "rnot_i"), ("not_e", "rnot_e"), ("and_i", "rand_i"),
    ("and_e1", "rand_e1"), ("and_e2", "rand_e2"), ("or_i1", "ror_i1"),
    ("or_i2", "ror_i2"), ("or_e", "ror_e"), ("uf1", "uf2"),
] for p in (pair, pair[::-1]))


def _hash(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _attempt(fn):
    """``fn()``, or the text of the exception it raises."""
    try:
        return fn()
    except Exception as exc:            # the digest records any failure
        return f"raised {type(exc).__name__}: {exc}"


def _trees(lib):
    """``(name, derivation, profile)`` for every tree of the digest."""
    import gen
    from test_kernel import DERIVED_TREES
    from helpers import DerivationGen

    KL = lib.rules.KL
    out = [(f"corpus-{e.id}", e.derivation, e.profile)
           for e in lib.corpus.corpus_entries()]
    out += [(f"derived-{name}", tree(), KL) for name, tree in DERIVED_TREES]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for case in gen.detour_cases(rng) + gen.derived_cases(rng):
            mutant = gen.mutate(case, rng)
            for c in (case, mutant):
                out.append((f"s{seed}-{c.name}", c.derivation,
                            lib.rules.parse_profile(c.profile)))
    dgen = DerivationGen(random.Random(7))
    out += [(f"gen-{i}", dgen.derivation(), KL) for i in range(200)]
    bases = [t for t in out if t[0].startswith(("corpus-", "derived-"))
             or t[0].startswith("s1-") and "mutant" not in t[0]
             and t[1].node_count() <= 400]
    rng = random.Random(11)
    count = 0
    while count < 3000:
        name, d, profile = rng.choice(bases)
        mutant = _mutant(rng, d, lib)
        if mutant is not None:
            out.append((f"mut{count}-{name}", mutant, profile))
            count += 1
    return (out + _relational_mons(lib, 300) + _reductios(lib, 300)
            + _deep_trees(lib))


def _relational_mons(lib, count: int) -> list:
    """``count`` mons from a seeded random rwff through ``a = b`` to its
    full substitution, ``a`` free in the rwff; ``b`` may be a name that the
    rwff binds or that a fresh-label generator hands out."""
    from helpers import random_rwff
    syntax, derivation = lib.syntax, lib.derivation
    rng = random.Random(13)
    out = []
    while len(out) < count:
        rho = random_rwff(rng, rng.randrange(1, 5))
        free = syntax.labels_of(rho)
        a, b = rng.sample(sorted(free | {"u1", "w1"}), 2)
        if a in free:
            target = syntax.substitute_label(syntax.expand(rho), b, a)
            mon = derivation.node("mon", target, derivation.assume(rho, 1),
                                  derivation.assume(syntax.Eq(a, b), 2))
            out.append((f"rmon-{len(out)}", mon, lib.rules.KL))
    return out


def _tense_formula(syntax, rng, depth: int, atoms=("p", "q", "r")):
    """A seeded random tense formula over ``atoms`` in which ``X`` occurs
    too."""
    from helpers import random_formula
    op = rng.choice([syntax.X, syntax.G, syntax.H, syntax.Implies, None])
    if depth <= 0 or op is None:
        return random_formula(rng, depth, atoms)
    if op is syntax.Implies:
        return op(_tense_formula(syntax, rng, depth - 1, atoms),
                  _tense_formula(syntax, rng, depth - 1, atoms))
    return op(_tense_formula(syntax, rng, depth - 1, atoms))


def _reductios(lib, count: int) -> list:
    """``count`` reductios: every other one a ``raa_bot`` on ``x : a`` for a
    seeded random tense formula ``a`` under ``mtl``, the others a
    ``raa_empty`` on a random rwff or, one in five, on ``empty``.  The
    premise contradicts the refutation leaf with a leaf of the conclusion;
    the reductio discharges no marker, that leaf's, or that leaf's and the
    one of a second refutation leaf under a nested reductio."""
    from helpers import random_rwff
    syntax, node, assume = lib.syntax, lib.derivation.node, lib.derivation.assume
    rng = random.Random(19)
    out = []
    for i in range(count):
        if i % 2 == 0:
            c = syntax.Lwff("x", _tense_formula(syntax, rng, rng.randrange(1, 4)))
            neg = syntax.Lwff("x", syntax.Implies(c.formula, syntax.Falsum()))
            bottom, rules = syntax.Lwff("x", syntax.Falsum()), ("raa_bot", "imp_e")
            profile = lib.rules.parse_profile("mtl")
        else:
            c = (syntax.Empty() if rng.random() < 0.2
                 else random_rwff(rng, rng.randrange(1, 4)))
            neg = syntax.RImplies(c, syntax.Empty())
            bottom, rules = syntax.Empty(), ("raa_empty", "rimp_e")
            profile = lib.rules.KL
        raa, elim = rules
        markers = i // 2 % 3
        inner = assume(c)
        if markers == 2:
            inner = node(raa, c, node(elim, bottom, assume(neg, 2), assume(c)))
        body = node(elim, bottom, assume(neg, 1 if markers else None), inner)
        out.append((f"raa-{i}", node(raa, c, body,
                                     discharges=set(range(1, markers + 1))),
                    profile))
    return out


def _deep_trees(lib) -> list:
    """Trees that report violation paths and freshness messages far from
    the root: the 3000-level ``imp`` chain of ``_nested_imp`` with the leaf
    of its tenth detour from the top given the marker of its fifth,
    whose introduction lies above it; and 1000 ``f_e`` nested through the
    minor premise whose innermost conclusion, or innermost open leaf,
    mentions the innermost fresh label.  Then two chains that check, whose
    case splits each rename a marker: 1000 ``or_e`` nested through the
    second branch, whose two branches share a marker, and 200 ``f_e``
    nested through the minor premise, whose two shapes share a marker.
    Last, a reductio on ``x : p -> q`` discharging 400 markers under 399
    nested reductios, a reductio on ``x : G^2000 p`` from an open
    ``x : false``, and the normal chain of 1000 ``g_e`` steps under
    ``x0 : G^1000 p``, whose ``tracks`` and ``audit`` fields are the
    deepest of the digest."""
    from test_kernel import _f_chain, _or_chain
    from test_normalize import _many_marker_reductio, _nested_imp
    from test_tracks import _ge_chain
    node, assume = lib.derivation.node, lib.derivation.assume
    parse = lib.parser.parse
    d = _nested_imp(3000, ["q"], False)
    path = (1,) * 2990 + (0, 0)
    leaf = d.at(path)
    out = [("deep-imp-marker", lib.derivation.replace_at(
        d, path, replace(leaf, marker=leaf.marker - 5)), lib.rules.KL)]
    k = 1000
    y = f"y{k}"
    own = node("f_e", parse("any", f"{y} : p"), assume(parse("any", "x : F p")),
               assume(parse("any", f"{y} : p"), k), discharges={k}, fresh=y)
    bot = node("imp_e", parse("any", f"{y} : false"),
               assume(parse("any", f"{y} : p -> false")),
               assume(parse("any", f"{y} : p"), k))
    leaf = node("f_e", parse("any", "z : p"), assume(parse("any", "x : F p")),
                node("raa_bot", parse("any", "z : p"), bot),
                discharges={k}, fresh=y)
    for name, d in (("deep-fe-conclusion", own), ("deep-fe-leaf", leaf)):
        for i in range(k - 1, 0, -1):
            d = node("f_e", d.conclusion, assume(parse("any", "x : F p")), d,
                     fresh=f"y{i}")
        out.append((name, d, lib.rules.KL))
    out += [("deep-or-shared", _or_chain(1000, shared=True), lib.rules.KL),
            ("deep-fe-shared", _f_chain(200, shared=True), lib.rules.KL),
            ("deep-raa-markers", _many_marker_reductio(400), lib.rules.KL)]
    syntax = lib.syntax
    boxed = syntax.Atom("p")
    for _ in range(2000):
        boxed = syntax.G(boxed)
    out.append(("deep-g-raa", node("raa_bot", syntax.Lwff("x", boxed),
                                   assume(syntax.Lwff("x", syntax.Falsum()))),
                lib.rules.KL))
    out.append(("deep-ge-tracks", _ge_chain(1000), lib.rules.KL))
    return out


def _mutant(rng, d, lib):
    """``d`` with one field of one node changed, or None."""
    nodes = list(d.walk())
    path, n = rng.choice(nodes)
    labels = sorted(set().union(*(lib.syntax.labels_of(m.conclusion)
                                  for _, m in nodes)))
    markers = sorted(lib.derivation.all_markers(d) | {0})
    if rng.random() < 0.1:
        twins = [(p, m) for p, m in nodes if m.rule in TWINS]
        if not twins:
            return None
        path, n = rng.choice(twins)
        new = replace(n, rule=TWINS[n.rule])
        return lib.derivation.replace_at(d, path, new)
    field = rng.choice(["rule", "conclusion", "label", "marker", "discharges",
                        "fresh", "position", "premises"])
    if field == "rule":
        new = replace(n, rule=rng.choice(sorted(
            r for r, s in lib.rules.RULES.items()
            if s.n_premises == len(n.premises))))
    elif field == "conclusion":
        new = replace(n, conclusion=rng.choice(nodes)[1].conclusion)
    elif field == "label" and labels:
        new = replace(n, conclusion=lib.syntax.substitute_label(
            n.conclusion, rng.choice(labels), rng.choice(labels)))
    elif field == "marker":
        new = replace(n, marker=rng.choice(markers + [None]))
    elif field == "discharges":
        new = replace(n, discharges=n.discharges ^ {rng.choice(markers)})
    elif field == "fresh":
        new = replace(n, fresh=rng.choice(labels + [None]))
    elif field == "position":
        new = replace(n, position=rng.choice([None, 1, 2]))
    elif field == "premises" and len(n.premises) > 1:
        new = replace(n, premises=n.premises[::-1])
    else:
        return None
    return None if new == n else lib.derivation.replace_at(d, path, new)


def _renumbered(lib, d) -> str:
    """``d`` as ``dumps`` writes it with its markers renumbered 1.. in
    first-mention order, as ``canonical_form`` numbers them, and nothing
    else changed."""
    order: dict = {}
    for n in d.nodes():
        for m in sorted(n.discharges):
            order.setdefault(m, len(order) + 1)
        if n.marker is not None:
            order.setdefault(n.marker, len(order) + 1)

    def renumber(t, premises):
        return replace(t, premises=tuple(premises), marker=order.get(t.marker),
                       discharges=frozenset(order[m] for m in t.discharges))
    return lib.derivation.dumps(lib.derivation.fold(d, renumber))


def _tree_line(lib, name, d, profile) -> str:
    from test_tracks import _by_path
    render = lib.parser.render
    redexes = _hash(_attempt(lambda: [[r.kind, list(r.path), r.detail]
                                      for r in lib.normalize.find_redexes(d)]))
    report = _attempt(lambda: lib.kernel.check(d, profile))
    if isinstance(report, str):
        return f"{name} check={_hash(report)} redexes={redexes}"
    parts = {
        "check": _hash([report.ok, report.is_theorem,
                        [[v.kind, list(v.path), v.message]
                         for v in report.violations]]),
        "open": _hash(sorted(map(render, report.open))),
        "expand": _hash(_attempt(
            lambda: lib.derivation.dumps(lib.kernel.expand_derived(d)))),
        "redexes": redexes,
    }
    if report.ok:
        trace: list = []
        nf = _attempt(lambda: lib.normalize.normalize(d, trace=trace))
        if isinstance(nf, str):
            parts["nf"] = _hash(nf)
        else:
            parts["nf"] = _hash(lib.derivation.dumps(nf))
            parts["nf_renum"] = _hash(_renumbered(lib, nf))
            parts["canon"] = _hash(lib.derivation.dumps(
                lib.normalize.canonical_form(nf)))
            parts["tracks"] = _hash(_attempt(
                lambda: repr(_by_path(nf, lib.tracks.tracks(nf)))))
            parts["audit"] = _hash(_attempt(
                lambda: repr(_by_path(nf, lib.tracks.audit_subformula(nf)))))
        parts["trace"] = _hash(trace)
        if len(lib.syntax.labels_of(report.open)
               | lib.syntax.labels_of(report.conclusion)) <= 10:
            probe = _attempt(lambda: lib.semantics.soundness_probe(
                report, 4, profile))
            cm = not isinstance(probe, str) and probe.countermodel
            parts["probe"] = _hash(probe if isinstance(probe, str) else [
                probe.status, cm and cm.to_json()])
        restricted = _attempt(lambda: lib.normalize.restrict(d))
        if isinstance(restricted, str):
            parts["restrict"] = parts["canon_restrict"] = _hash(restricted)
            parts["restrict_renum"] = parts["restrict"]
        else:
            parts["restrict"] = _hash(lib.derivation.dumps(restricted))
            parts["restrict_renum"] = _hash(_renumbered(lib, restricted))
            parts["canon_restrict"] = _hash(lib.derivation.dumps(
                lib.normalize.canonical_form(restricted)))
    return name + " " + " ".join(f"{k}={v}" for k, v in parts.items())


def _broken(rng, text: str) -> str:
    """``text`` with one character deleted, doubled or replaced."""
    i = rng.randrange(len(text) + 1)
    pick = rng.choice("()<=:.~!&|-> xpGF\\/")
    how = rng.randrange(3)
    if how == 0:
        return text[:i] + text[i + 1:]
    if how == 1:
        return text[:i] + pick + text[i:]
    return text[:i] + pick + text[i + 1:]


def _syntax_lines(lib):
    from helpers import random_entity
    parse, render = lib.parser.parse, lib.parser.render
    rng = random.Random(17)
    entities = [random_entity(rng, rng.randrange(1, 6)) for _ in range(20000)]
    for start in range(0, len(entities), 1000):
        chunk = entities[start:start + 1000]
        texts = [render(e) for e in chunk]
        back = [_attempt(lambda t=t: render(parse("any", t))) for t in texts]
        same = [parse("any", t) == e for t, e in zip(texts, chunk)]
        yield (f"render-{start} render={_hash(texts)} parse={_hash(back)} "
               f"roundtrip={all(same)}")
    broken = [_broken(rng, render(rng.choice(entities))) for _ in range(3000)]
    for start in range(0, len(broken), 500):
        results = [_attempt(lambda t=t: render(parse("any", t)))
                   for t in broken[start:start + 500]]
        yield f"broken-{start} parse={_hash(results)}"


FINITE_PROFILES = ("kl", "kl+first", "kl+final", "kl+ldiscr", "kl+rdiscr",
                   "kl+first+final+ldiscr+rdiscr")


def _countermodel_lines(lib, count: int):
    """``find_countermodel`` on ``count`` seeded queries: up to two labelled
    hypotheses and one relational one, and a labelled goal or, one time in
    four, a relational one, over labels ``x``, ``y``, ``z`` and exactly 1-3
    atoms, with a bound of 1-6 worlds, the finite profiles in turn."""
    from helpers import atoms_of, random_rwff
    syntax, labels = lib.syntax, ("x", "y", "z")
    rng = random.Random(23)
    for i in range(count):
        atoms = ("p", "q", "r")[:rng.randint(1, 3)]

        def lwff():
            return syntax.Lwff(rng.choice(labels), _tense_formula(
                syntax, rng, rng.randrange(1, 4), atoms))
        while True:
            gamma = [lwff() for _ in range(rng.randrange(3))]
            delta = [random_rwff(rng, rng.randrange(1, 3), labels)
                     for _ in range(rng.randrange(2))]
            goal = (lwff() if rng.random() < 0.75
                    else random_rwff(rng, 2, labels))
            if set().union(*map(atoms_of, gamma + [goal])) == set(atoms):
                break
        worlds, profile = rng.randint(1, 6), FINITE_PROFILES[i % 6]
        cm = _attempt(lambda: lib.semantics.find_countermodel(
            syntax.ProofContext.make(gamma, delta), goal, worlds,
            lib.rules.parse_profile(profile)))
        verdict = cm if isinstance(cm, str) else [cm is None,
                                                  cm and cm.to_json()]
        yield f"cm-{i} {profile} n={worlds} cm={_hash(verdict)}"


def _check_hash(lib, d) -> str:
    """The hash of ``d``'s check report under ``kl``: its verdicts and each
    violation's kind, path and message."""
    report = _attempt(lambda: lib.kernel.check(d, lib.rules.KL))
    return _hash(report if isinstance(report, str) else [
        report.ok, report.is_theorem,
        [[v.kind, list(v.path), v.message] for v in report.violations]])


def _derived_mutant_lines(lib, count: int):
    """The check report of ``count`` seeded mutants of a derived node."""
    from test_kernel import derived_bases, derived_mutant
    rng = random.Random(29)
    bases = derived_bases()
    done = 0
    while done < count:
        base = rng.randrange(len(bases))
        d = derived_mutant(rng, bases[base])
        if d is None:
            continue
        yield f"dmut-{done}-{base} check=" + _check_hash(lib, d)
        done += 1


def _renamed_chain_lines(lib, count: int):
    """The check report of ``count`` seeded derived chains whose levels are
    label renamings of one another (``dren-*``).  In an ``f_e`` chain each
    level holds the leaves ``y : p`` and ``x < y`` of the level below and
    takes ``y`` as its fresh label; then, at one or two levels, the fresh
    label becomes ``x``, the level's own ``y`` or the next level's, the
    held leaves move to ``x`` (with the fresh label or without), both move
    to another level's ``y``, or every level uses one ``y``.  In a
    ``rand_i``/``rand_e1`` chain on ``x < y`` each level's conjunction
    ``x < y /\\ y < c`` takes ``c`` new or ``x`` or ``y``, and its leaf
    ``y < c`` mostly the same ``c``.  A renaming that merges two labels
    keeps a level's schema key out of ``check``'s memo; a one-to-one one
    finds it."""
    node, assume = lib.derivation.node, lib.derivation.assume
    parse = lambda text: lib.parser.parse("any", text)
    fa = parse("x : F p")

    def f_chain(held, fresh):
        def f_i(y, m):
            return node("f_i", fa, assume(parse(f"{y} : p"), m),
                        assume(parse(f"x < {y}"), m + 1))
        d = f_i(held[0], 1)
        for i in range(1, len(held)):
            d = node("f_e", fa, f_i(held[i], 2 * i + 1), d,
                     discharges={2 * i - 1, 2 * i}, fresh=fresh[i])
        return d

    def rand_chain(thirds):
        d = assume(parse("x < y"))
        for c, leaf in thirds:
            d = node("rand_e1", parse("x < y"), node(
                "rand_i", parse(f"x < y /\\ y < {c}"), d,
                assume(parse(f"y < {leaf}"))))
        return d

    rng = random.Random(31)
    for i in range(count):
        k = rng.choice((3, 5, 8))
        if i % 3 == 2:
            thirds = []
            for j in range(k):
                c = rng.choice(("x", "y", f"z{j}", "z"))
                thirds.append((c, c if rng.random() < 0.8
                               else rng.choice(("x", "y", "z"))))
            yield f"dren-{i}-rand-{'.'.join(map(''.join, thirds))} check=" \
                + _check_hash(lib, rand_chain(thirds))
            continue
        held = [f"y{j}" for j in range(k)]
        fresh = [None, *held[:-1]]
        edits = rng.sample(("fresh-x", "fresh-own", "fresh-next", "held-x",
                            "held-fresh-x", "reuse", "one"), rng.choice((1, 2)))
        for edit in edits:
            j = rng.randrange(1, k)
            if edit == "fresh-x":
                fresh[j] = "x"
            elif edit == "fresh-own":
                fresh[j] = held[j]
            elif edit == "fresh-next":
                fresh[j] = held[(j + 1) % k]
            elif edit == "held-x":
                held[j - 1] = "x"
            elif edit == "held-fresh-x":
                held[j - 1] = fresh[j] = "x"
            elif edit == "reuse":
                held[j - 1] = fresh[j] = held[rng.randrange(k)]
            else:
                held, fresh = ["y"] * k, [None] + ["y"] * (k - 1)
        yield f"dren-{i}-f-{'+'.join(edits)} check=" \
            + _check_hash(lib, f_chain(held, fresh))


def _table_lines(lib):
    from helpers import all_frames
    rules = lib.rules
    yield "rules " + _hash([
        list(rules.RULES.items()), list(rules.DETOUR_PAIRS.items()),
        sorted(rules.INTRO_RULES), sorted(rules.ELIM_RULES),
        sorted(rules.FALSUM_RULES)])
    frames = list(all_frames())
    for name in ["kl", *(f"kl+{x}" for x in rules.EXTRAS if x != "mtl"),
                 "mtl"]:
        profile = rules.parse_profile(name)
        yield f"frame-{name} verdicts=" + _hash(
            [list(lib.semantics.check_frame(m, profile).items())
             for m in frames])


def _cli_lines(lib):
    parse = lib.parser.parse_lwff
    node, assume = lib.derivation.node, lib.derivation.assume
    detour = node("imp_e", parse("x : p"),
                  node("imp_i", parse("x : q -> p"),
                       node("raa_bot", parse("x : p"), assume(parse("y : false"))),
                       discharges={1}),
                  assume(parse("x : q")))
    with tempfile.TemporaryDirectory() as tmp:
        def written(name, text):
            path = pathlib.Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            return str(path)
        g4 = written("g4.json", lib.derivation.dumps(
            lib.corpus.corpus_entries("g4")[0].derivation))
        model = written("model.json", json.dumps(
            {"n": 3, "prec": [[0, 1], [0, 2], [1, 2]],
             "valuation": {"p": [1], "q": [0, 2]}}))
        lam = written("lam.json", json.dumps({"x": 0, "y": 2}))
        calls = {
            "check": ["check", g4],
            "check-probe": ["check", g4, "--probe", "3"],
            "normalize-trace": ["normalize", written("detour.json",
                                                     lib.derivation.dumps(detour)),
                                "--trace"],
            "eval": ["eval", model, lam, "x : F (p & ~q) & G (q -> p)"],
            "eval-unbound": ["eval", model, lam, "z : p"],
            "valid-theorem": ["valid", "x : G (p -> q) -> G p -> G q",
                              "--max-worlds", "4"],
            "valid-refuted": ["valid", "x : F p -> G p", "--max-worlds", "4"],
            "valid-parse-error": ["valid", "x : (p -> q", "--max-worlds", "2"],
            "corpus": ["corpus", "g"],
        }
        for name, argv in calls.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(argv)
            yield (f"cli-{name} exit={code} out={_hash(out.getvalue())} "
                   f"err={_hash(err.getvalue())}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the tenseproof package to digest")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(pathlib.Path(args.src).resolve()),
                    str(ROOT / "tests"), str(ROOT / "perfbench")]
    import importlib
    lib = argparse.Namespace(**{
        m: importlib.import_module(f"tenseproof.{m}")
        for m in ("cli", "corpus", "derivation", "kernel", "normalize",
                  "parser", "rules", "semantics", "syntax", "tracks")})
    for name, d, profile in _trees(lib):
        print(_tree_line(lib, name, d, profile), flush=True)
    for line in _syntax_lines(lib):
        print(line, flush=True)
    for line in _countermodel_lines(lib, 400):
        print(line, flush=True)
    for line in _derived_mutant_lines(lib, 2000):
        print(line, flush=True)
    for line in _renamed_chain_lines(lib, 150):
        print(line, flush=True)
    for line in _table_lines(lib):
        print(line, flush=True)
    for line in _cli_lines(lib):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
