import itertools
import random
import time

import pytest

from helpers import (
    all_frames, all_interpretations, all_models, atoms_of, random_formula,
    random_rwff,
)
from tenseproof.corpus import corpus_entries
from tenseproof.derivation import assume, node
from tenseproof.kernel import check
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import AXIOMS, EXTRAS, KL, parse_profile
from tenseproof.semantics import (
    BLOCK_BITS, Countermodel, FinitelyVacuous, Model, UnboundLabel, _compile,
    _eval_rwff, _holds, _label_block, _relational_part_refutes,
    _require_finite, _split, check_frame, entails, eval_entity,
    find_countermodel, soundness_probe,
)
from tenseproof.syntax import (
    Atom, Eq, Exists, Falsum, Forall, G, H, Implies, Less, Lwff, ProofContext,
    RAnd, RImplies, X, expand, labels_of,
)


def test_chain_is_a_frame():
    m = Model.chain(3)
    verdicts = check_frame(m)
    assert verdicts["ok"]
    assert verdicts["irreflexive"] and verdicts["transitive"] and verdicts["connected"]


def test_missing_transitivity_detected():
    m = Model(3, frozenset({(0, 1), (1, 2)}))
    verdicts = check_frame(m)
    assert not verdicts["transitive"]
    assert not verdicts["ok"]


def test_no_finite_frame_is_serial():
    for n in range(1, 6):
        m = Model.chain(n)
        verdicts = check_frame(m, parse_profile("kl+rser"))
        assert verdicts["rser"] is False
        verdicts = check_frame(m, parse_profile("kl+lser"))
        assert verdicts["lser"] is False


def test_chains_satisfy_point_and_discreteness_extras():
    # the extras a finite frame can have, which find_countermodel does not
    # test chain by chain
    for n in range(1, 9):
        m = Model.chain(n)
        for extra in ("first", "final", "ldiscr", "rdiscr",
                      "first+final+ldiscr+rdiscr"):
            assert check_frame(m, parse_profile(f"kl+{extra}"))["ok"]


def test_density_fails_on_proper_chains():
    assert check_frame(Model.chain(1), parse_profile("kl+dens"))["ok"]
    for n in range(2, 5):
        assert not check_frame(Model.chain(n), parse_profile("kl+dens"))["dens"]


# ---------------------------------------------------------------------------
# eval

def test_vacuous_future_on_single_world():
    m = Model.chain(1)
    assert eval_entity(m, {"x": 0}, pl("x : G p"))


def test_future_diamond_on_two_chain():
    m = Model.chain(2, {"p": {1}})
    assert eval_entity(m, {"x": 0}, pl("x : F p"))
    assert not eval_entity(m, {"x": 1}, pl("x : F p"))


def test_connectedness_template_true_on_every_frame():
    for n in range(1, 5):
        m = Model.chain(n)
        assert eval_entity(m, {}, AXIOMS["conn"])
        assert eval_entity(m, {}, AXIOMS["trans_lt"])
        assert eval_entity(m, {}, AXIOMS["irrefl_lt"])
        assert eval_entity(m, {}, AXIOMS["refl_eq"])


def _frame_properties(m: Model) -> dict:
    """Each frame condition as a predicate on the relation: the reference
    for ``check_frame``, which evaluates the axioms instead."""
    worlds, lt = m.worlds, m.prec

    def immediate(a, b):        # a < b with no world between
        return (a, b) in lt and not any((a, u) in lt and (u, b) in lt
                                        for u in worlds)
    return {
        "irreflexive": all((w, w) not in lt for w in worlds),
        "transitive": all((a, c) in lt for a, b in lt for b2, c in lt if b == b2),
        "connected": all(a == b or (a, b) in lt or (b, a) in lt
                         for a in worlds for b in worlds),
        "first": any(all((v, w) not in lt for v in worlds) for w in worlds),
        "final": any(all((w, v) not in lt for v in worlds) for w in worlds),
        "lser": all(any((v, w) in lt for v in worlds) for w in worlds),
        "rser": all(any((w, v) in lt for v in worlds) for w in worlds),
        "dens": all(any((a, z) in lt and (z, b) in lt for z in worlds)
                    for a, b in lt),
        "ldiscr": all(any(immediate(z, b) for z in worlds) for a, b in lt),
        "rdiscr": all(any(immediate(a, z) for z in worlds) for a, b in lt),
    }


def test_frame_condition_matches_axiom_template():
    # on every relation over up to 3 worlds and 300 seeded 4-world ones,
    # each verdict of check_frame, under kl, kl plus each extra and mtl,
    # is the frame property written on the relation
    extras = [x for x in EXTRAS if x != "mtl"]
    profiles = [parse_profile(p) for p in
                ["kl", *(f"kl+{x}" for x in extras), "mtl"]]
    for m in all_frames():
        props = _frame_properties(m)
        for profile in profiles:
            names = ["irreflexive", "transitive", "connected",
                     *sorted(profile.extras - {"mtl"})]
            expected = {name: props[name] for name in names}
            expected["ok"] = all(expected.values())
            assert check_frame(m, profile) == expected, (m, profile)


def test_eval_unbound_label():
    with pytest.raises(UnboundLabel):
        eval_entity(Model.chain(2), {}, pl("x : p"))


def test_eval_of_a_bare_tense_formula_asks_for_a_label():
    with pytest.raises(TypeError, match="needs a label"):
        eval_entity(Model.chain(2), {"x": 0}, G(Atom("p")))


def test_truth_of_a_formula_that_is_not_core_is_a_type_error():
    # eval_entity expands first; the evaluators below it read core only
    m = Model.chain(2)
    with pytest.raises(TypeError, match="not a core formula"):
        _holds(m, pl("x : F p").formula)
    with pytest.raises(TypeError, match="not a core rwff"):
        _eval_rwff(m, {"x": 0, "y": 1}, pr("x <. y"))


def test_eval_independent_of_irrelevant_labels():
    m = Model.chain(3, {"p": {1}})
    phi = pl("x : F p")
    for extra in range(3):
        assert eval_entity(m, {"x": 0, "z": extra}, phi) == \
            eval_entity(m, {"x": 0}, phi)


def test_eval_independent_of_irrelevant_labels_random():
    from helpers import atoms_of, random_entity
    from tenseproof.syntax import labels_of
    rng = random.Random(404)
    for _ in range(60):
        e = random_entity(rng, 3)
        labels = sorted(labels_of(e) if not isinstance(e, Lwff)
                        else {e.label} | labels_of(e.formula))
        m = Model.chain(2, {a: {rng.randrange(2)} for a in atoms_of(e)})
        for lam in all_interpretations(m, labels):
            base = eval_entity(m, lam, e)
            for w in m.worlds:
                assert eval_entity(m, {**lam, "spare": w}, e) == base


def test_vacuous_binders_evaluate_their_body_once(monkeypatch):
    # a forall whose variable is not free below is its body: 11 vacuous
    # binders over one real one read the body on 3 worlds, not on 3^12
    from tenseproof import semantics
    calls = []

    def counted(lam, label, real=semantics._world):
        calls.append(label)
        return real(lam, label)
    monkeypatch.setattr(semantics, "_world", counted)
    rho = pr("forall y. " * 12 + "x < y => x < y")
    assert eval_entity(Model.chain(3), {"x": 0}, rho)
    assert len(calls) <= 12


def test_next_step_operator_eval():
    m = Model.chain(3, {"p": {1}})
    assert eval_entity(m, {"x": 0}, pl("x : X p"))
    assert not eval_entity(m, {"x": 1}, pl("x : X p"))
    assert eval_entity(m, {"x": 0, "y": 1}, pr("x <. y"))
    assert not eval_entity(m, {"x": 0, "y": 2}, pr("x <. y"))


def test_mon_soundness_by_enumeration():
    # whenever an atomic formula and an equality hold, the positionally
    # replaced formula holds as well
    from tenseproof.kernel import replace_position
    from tenseproof.syntax import Atom
    candidates = (Less("x", "y"), Less("y", "x"), Eq("x", "x"),
                  Lwff("x", Atom("p")))
    for m in all_models(3, ("p",)):
        for lam in all_interpretations(m, ("x", "y")):
            if not eval_entity(m, lam, Eq("x", "y")):
                continue
            for phi in candidates:
                if not eval_entity(m, lam, phi):
                    continue
                positions = [1] if isinstance(phi, Lwff) else [1, 2]
                for pos in positions:
                    old = phi.label if isinstance(phi, Lwff) else (
                        phi.x if pos == 1 else phi.y)
                    if old != "x":
                        continue
                    moved = replace_position(phi, pos, "y")
                    assert eval_entity(m, lam, moved)


# ---------------------------------------------------------------------------
# entails / countermodels

def test_entails_empty_context():
    m = Model.chain(2, {"p": {0, 1}})
    phi = pl("x : p")
    ctx = ProofContext.make()
    for lam in all_interpretations(m, ("x",)):
        assert entails(m, lam, ctx, phi) == eval_entity(m, lam, phi)


def test_entails_vacuous_on_unsatisfiable_context():
    m = Model.chain(2)
    ctx = ProofContext.make([pl("x : false")], [])
    assert entails(m, {"x": 0}, ctx, pl("y : q")) or True
    assert entails(m, {"x": 0, "y": 1}, ctx, pl("y : q"))


def test_future_box_entailment_valid_everywhere():
    ctx = ProofContext.make([pl("x : G p")], [pr("x < y")])
    phi = pl("y : p")
    for m in all_models(3, ("p",)):
        for lam in all_interpretations(m, ("x", "y")):
            assert entails(m, lam, ctx, phi)
    assert find_countermodel(ctx, phi, 3) is None


def test_reflexivity_axiom_refuted():
    cm = find_countermodel(ProofContext.make(), pl("x : G p -> p"), 2)
    assert cm is not None
    # the first refutation in enumeration order: one world, p false there
    assert cm.model.n == 1
    assert cm.model.valuation["p"] == frozenset()
    assert cm.lam == {"x": 0}


def test_transitivity_axiom_validated():
    assert find_countermodel(ProofContext.make(), pl("x : G p -> G G p"), 5) is None


def test_density_axiom_refuted_on_chains():
    cm = find_countermodel(ProofContext.make(), pl("x : F p -> F F p"), 2)
    assert cm is not None
    assert cm.model.n == 2
    assert cm.model.prec == frozenset({(0, 1)})
    assert cm.model.valuation["p"] == frozenset({1})
    assert cm.lam == {"x": 0}


def test_serial_profiles_rejected():
    for name in ("kl+rser", "kl+lser", "kl+dens", "mtl"):
        with pytest.raises(FinitelyVacuous):
            find_countermodel(ProofContext.make(), pl("x : p"),
                              2, parse_profile(name))


def test_countermodel_serialization():
    cm = find_countermodel(ProofContext.make(), pl("x : G p -> p"), 2)
    obj = cm.to_json()
    assert set(obj) == {"n", "prec", "valuation", "lambda", "failing"}
    assert obj["failing"] == "x : G p -> p"
    assert Model.from_json(obj).n == cm.model.n


def test_countermodel_refutes_as_packaged():
    ctx = ProofContext.make([pl("x : G p")], [])
    cm = find_countermodel(ctx, pl("x : p"), 3)
    assert cm is not None
    assert not entails(cm.model, cm.lam, ctx, cm.failing)


# ---------------------------------------------------------------------------
# probe

def test_probe_passes_on_theorem():
    entry = corpus_entries("g1")[0]
    report = soundness_probe(check(entry.derivation), 4)
    assert report.status == "PASS"


def test_probe_skips_serial_profile():
    entry = corpus_entries("rser")[0]
    report = soundness_probe(check(entry.derivation, entry.profile), 4,
                             entry.profile)
    assert report.status == "SKIPPED-SEMANTICS"


def test_probe_fails_where_the_oracle_refutes_the_conclusion():
    # a report that no check gives: ``x : p`` with nothing open
    from tenseproof.kernel import CheckReport
    goal = pl("x : p")
    probe = soundness_probe(CheckReport((), ProofContext.make(), goal, True), 2)
    assert probe.status == "FAIL" and probe.max_worlds == 2
    cm = probe.countermodel
    assert cm.failing == goal and not eval_entity(cm.model, cm.lam, goal)


def test_probe_requires_valid_derivation():
    bad = node("imp_e", pl("x : q"), assume(pl("x : p -> q")), assume(pl("x : r")))
    with pytest.raises(ValueError):
        soundness_probe(check(bad), 3)


def test_corrupted_elimination_caught_by_probe():
    # a wrong-label temporal elimination, force-accepted: the conclusion
    # claims truth at an unrelated world, and enumeration finds the witness
    from tenseproof.kernel import open_assumptions
    bad = node("g_e", pl("z : p"), assume(pl("x : G p")), assume(pr("x < y")))
    cm = find_countermodel(open_assumptions(bad), bad.conclusion, 3)
    assert cm is not None


def test_random_checked_derivations_never_refuted():
    # the finite surrogate of soundness: whatever the checker accepts, the
    # exhaustive search must fail to refute
    import random as random_mod
    from helpers import DerivationGen
    from tenseproof.kernel import open_assumptions
    rng = random_mod.Random(2718)
    gen = DerivationGen(rng)
    for _ in range(100):
        d = gen.derivation(max_nodes=25, steps=14)
        assert find_countermodel(open_assumptions(d), d.conclusion, 6) is None


# ---------------------------------------------------------------------------
# mask labeling against the reference evaluator and the former search

def _with_next(rng, phi):
    """``phi`` with random subformulas wrapped in ``X``."""
    out = type(phi)(*(_with_next(rng, getattr(phi, f))
                      if f in ("left", "right", "body") else getattr(phi, f)
                      for f in phi._fields))
    return X(out) if rng.random() < 0.25 else out


def test_mask_labeling_agrees_with_eval_entity():
    # each model is one valuation, so a block of one bit; the nested
    # operators are vacuous or not at the ends of the chain, one world
    # included
    rng = random.Random(4242)
    atoms = ["p", "q"]
    formulas = [_with_next(rng, random_formula(rng, 4, atoms)) for _ in range(40)]
    p, q = Atom("p"), Atom("q")
    formulas += [G(H(p)), H(G(p)), X(X(p)), G(X(p)), X(G(p)), H(X(p)),
                 X(H(p)), G(G(Implies(p, q))), H(H(Implies(X(p), q))),
                 Implies(G(p), X(p)), Implies(H(Falsum()), G(Falsum()))]
    program, slots = _compile([expand(f) for f in formulas])
    for m in all_models(4, atoms):
        cells = {a: [int(w in m.valuation.get(a, ())) for w in m.worlds]
                 for a in atoms}
        truth = _label_block(program, cells, m.n, 1)
        for f, s in zip(formulas, slots):
            for w in m.worlds:
                expected = eval_entity(m, {"x": w}, Lwff("x", f))
                assert truth[s][w] == expected, (m, w, f)


def _relation_masks(m: Model) -> dict:
    """Per operator, ``(world bit, relation mask)`` for every world: the
    worlds ``G``, ``H`` and ``X`` quantify over (successors, predecessors,
    immediate successors)."""
    succ, pred = [0] * m.n, [0] * m.n
    for i, j in m.prec:
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    imm = []
    for s in succ:
        beyond = 0
        for u in m.worlds:
            if s >> u & 1:
                beyond |= succ[u]
        imm.append(s & ~beyond)
    bits = [1 << w for w in m.worlds]
    return {G: list(zip(bits, succ)), H: list(zip(bits, pred)),
            X: list(zip(bits, imm))}


def _reference_find_countermodel(ctx, phi, max_worlds=5, profile=KL):
    """The search before mask labeling, verbatim but for the atom
    collector (now ``helpers.atoms_of``): ``entails`` for every frame,
    valuation and interpretation."""
    _require_finite(profile)
    atoms = set(atoms_of(phi))
    for e in ctx:
        atoms |= atoms_of(e)
    atoms = sorted(atoms)
    labels = sorted(labels_of(ctx) | labels_of(phi))

    for n in range(1, max_worlds + 1):
        frame = Model.chain(n)
        if not check_frame(frame, profile)["ok"]:
            continue
        cells = [(a, w) for a in atoms for w in range(n)]
        for bits in itertools.product((False, True), repeat=len(cells)):
            valuation: dict = {a: set() for a in atoms}
            for (a, w), bit in zip(cells, bits):
                if bit:
                    valuation[a].add(w)
            m = Model(frame.n, frame.prec,
                      {a: frozenset(ws) for a, ws in valuation.items()})
            for assignment in itertools.product(range(n), repeat=len(labels)):
                lam = dict(zip(labels, assignment))
                if not entails(m, lam, ctx, phi):
                    return Countermodel(m, lam, phi)
    return None


def _same_search(ctx, phi, max_worlds, profile=KL):
    got = find_countermodel(ctx, phi, max_worlds, profile)
    want = _reference_find_countermodel(ctx, phi, max_worlds, profile)
    assert (got and got.to_json()) == (want and want.to_json()), (ctx, phi)
    return want


def _label(program, atom_masks: dict, rel, full: int) -> list:
    """The world mask of every slot under one valuation: bit ``w`` of slot
    ``i`` is the truth of instruction ``i``'s formula at world ``w``."""
    masks: list = []
    for kind, a, b in program:
        if kind is Implies:
            m = (full & ~masks[a]) | masks[b]
        elif kind is Atom:
            m = atom_masks[a]
        elif kind is Falsum:
            m = 0
        else:
            # G, H, X: the worlds whose related worlds all satisfy the body
            out = full & ~masks[a]
            m = 0
            for bit, related in rel[kind]:
                if not related & out:
                    m |= bit
        masks.append(m)
    return masks


def _enumerated_find_countermodel(ctx, phi, max_worlds=5, profile=KL):
    """The search before block labeling, verbatim: one run of the compiled
    program per valuation, in ``itertools.product`` order."""
    _require_finite(profile)
    labels = sorted(labels_of(ctx) | labels_of(phi))
    index = {x: i for i, x in enumerate(labels)}

    hyps = [_split(e) for e in ctx]
    goal, goal_rel = _split(phi)
    lwffs = [h for h, _ in hyps if h is not None]
    if goal is not None:
        lwffs.append(goal)
    program, slots = _compile([h.formula for h in lwffs])
    atoms = sorted({a for kind, a, _ in program if kind is Atom})
    tests = [(index[h.label], s) for h, s in zip(lwffs, slots)]
    goal_test = tests.pop() if goal is not None else None
    rels = [r for _, r in hyps if r is not None]
    relational = bool(rels) or goal_rel is not None

    for n in range(1, max_worlds + 1):
        frame = Model.chain(n)
        full = (1 << n) - 1
        rel = _relation_masks(frame)
        if relational:
            lams = [a for a in itertools.product(range(n), repeat=len(labels))
                    if _relational_part_refutes(frame, dict(zip(labels, a)),
                                                rels, goal_rel)]
            if not lams:
                continue
        per_atom = [sum(1 << w for w in range(n) if c >> (n - 1 - w) & 1)
                    for c in range(1 << n)]
        for valuation in itertools.product(per_atom, repeat=len(atoms)):
            masks = _label(program, dict(zip(atoms, valuation)), rel, full)
            allowed = [full] * len(labels)
            for i, s in tests:
                allowed[i] &= masks[s]
            if goal_test is not None:
                i, s = goal_test
                allowed[i] &= ~masks[s]
            if not all(allowed):
                continue
            if not relational:
                hit = tuple((m & -m).bit_length() - 1 for m in allowed)
            else:
                hit = next((a for a in lams
                            if all(m >> w & 1 for m, w in zip(allowed, a))),
                           None)
            if hit is not None:
                worlds = {a: frozenset(w for w in range(n) if m >> w & 1)
                          for a, m in zip(atoms, valuation)}
                return Countermodel(Model(n, frame.prec, worlds),
                                    dict(zip(labels, hit)), phi)
    return None


PROFILES = ("kl", "kl+first", "kl+final", "kl+ldiscr", "kl+rdiscr")


def test_search_matches_former_search_on_random_contexts():
    rng = random.Random(9090)
    atoms, labels = ("p", "q"), ("x", "y", "z")
    found = 0
    for i in range(150):
        gamma = [Lwff(rng.choice(labels),
                      _with_next(rng, random_formula(rng, 3, atoms)))
                 for _ in range(rng.randrange(3))]
        delta = [random_rwff(rng, 2, labels) for _ in range(rng.randrange(3))]
        if rng.random() < 0.8:
            goal = Lwff(rng.choice(labels),
                        _with_next(rng, random_formula(rng, 3, atoms)))
        else:
            goal = random_rwff(rng, 2, labels)
        worlds = rng.randint(1, 4 if i % 3 == 0 else 3)
        ctx = ProofContext.make(gamma, delta)
        found += _same_search(ctx, goal, worlds,
                              parse_profile(PROFILES[i % len(PROFILES)])) is not None
    assert 20 < found < 130       # both outcomes are exercised


def test_search_matches_former_search_on_corpus():
    for entry in corpus_entries():
        report = check(entry.derivation, entry.profile)
        try:
            assert _same_search(report.open, report.conclusion, 4,
                                entry.profile) is None
        except FinitelyVacuous:
            continue
    for name in PROFILES[1:]:
        for entry in corpus_entries("g"):
            report = check(entry.derivation)
            _same_search(report.open, report.conclusion, 3, parse_profile(name))


def _past_first_block(rng, atoms, n, i):
    """A seeded query over all of ``atoms`` that no chain below ``n`` worlds
    refutes.  A relational hypothesis puts ``n - 2`` worlds between ``x``
    and ``y``, so smaller chains have no interpretation and ``x``, ``y`` are
    the first and last world of the ``n``-chain.  Random labelled
    hypotheses at ``x``, ``y`` and a free ``w`` go with a labelled goal or,
    one time in three, a relational goal over ``x``, ``y`` and ``w``.  In a
    planted query (every other one) the hypothesis ``x : X^t p``, for ``p``
    the first atom, sets a cell that lies past the block's low bits, so the
    first countermodel, if any, lies past the first block."""
    between = [f"u{k}" for k in range(n - 2)]
    spans = Less(between[-1], "y")
    for a, u in reversed(list(zip(["x"] + between, between))):
        spans = Exists(u, RAnd(RAnd(Less(a, u), Less(u, "y")), spans))
    labels, gamma = ["x", "y", "w"], []
    if i % 2 == 0:
        # cell (atom 0, world t) is bit n A - 1 - t, high for t up to
        # n A - 1 - BLOCK_BITS
        planted = Atom(atoms[0])
        for _ in range(rng.randint(0, len(atoms) * n - 1 - BLOCK_BITS)):
            planted = X(planted)
        gamma.append(Lwff("x", planted))
    while True:
        extra = [Lwff(rng.choice(labels),
                      _with_next(rng, random_formula(rng, 2, atoms)))
                 for _ in range(rng.randrange(1, 3))]
        if i % 3 == 2:
            goal = random_rwff(rng, 2, labels)
        else:
            goal = Lwff(rng.choice(labels),
                        _with_next(rng, random_formula(rng, 3, atoms)))
        ctx = ProofContext.make(gamma + extra, [spans])
        if set(atoms_of(goal)).union(*map(atoms_of, ctx)) == set(atoms):
            return ctx, goal


def test_block_search_matches_enumeration_across_blocks():
    rng = random.Random(6161)
    past = 0
    for i in range(12):
        atoms, n = (("p", "q", "r"), 5) if i % 4 < 2 else (("p", "q"), 7)
        ctx, goal = _past_first_block(rng, atoms, n, i)
        profile = parse_profile(PROFILES[i % len(PROFILES)])
        got = find_countermodel(ctx, goal, n, profile)
        want = _enumerated_find_countermodel(ctx, goal, n, profile)
        assert (got and got.to_json()) == (want and want.to_json()), (ctx, goal)
        if want is not None:
            index = sum(1 << (n * (len(atoms) - 1 - k) + n - 1 - w)
                        for k, a in enumerate(atoms)
                        for w in want.model.valuation.get(a, ()))
            past += index >> BLOCK_BITS > 0
    assert past >= 5, past


def _equality_query(rng, atoms):
    """A seeded query whose hypotheses equate labels: a chain of ``a = b``
    over two to four of the labels, each written in a random order, at
    times an ``a = a``, at times an ``=`` under ``=>`` or ``forall`` (which
    joins no labels), at times an ``a < b``; labelled hypotheses and a
    labelled goal (or, one time in five, a relational one) over the same
    labels, so some equalities join labels that only they use."""
    labels = ["w", "x", "y", "z"]
    chain = rng.sample(labels, rng.randint(2, 4))
    delta = [Eq(a, b) if rng.random() < 0.5 else Eq(b, a)
             for a, b in zip(chain, chain[1:])]
    if rng.random() < 0.3:
        delta.append(Eq(*[rng.choice(labels)] * 2))
    if rng.random() < 0.4:
        a, b = rng.sample(labels, 2)
        delta.append(rng.choice([RImplies(Less(a, b), Eq(a, b)),
                                 Forall("v", RImplies(Less(a, "v"),
                                                      Eq(b, "v")))]))
    if rng.random() < 0.3:
        delta.append(Less(*rng.sample(labels, 2)))
    rng.shuffle(delta)
    gamma = [Lwff(rng.choice(labels),
                  _with_next(rng, random_formula(rng, 2, atoms)))
             for _ in range(rng.randrange(3))]
    if rng.random() < 0.8:
        goal = Lwff(rng.choice(labels),
                    _with_next(rng, random_formula(rng, 3, atoms)))
    else:
        goal = random_rwff(rng, 2, labels)
    return ProofContext.make(gamma, delta), goal


def test_label_classes_keep_the_first_countermodel():
    # one world per class of equated labels: the same first countermodel
    # as the former search, which tries every interpretation of every label
    rng = random.Random(7373)
    found = nested = alone = 0
    for i in range(200):
        ctx, goal = _equality_query(rng, ("p", "q") if i % 2 else ("p",))
        worlds = 5 if i % 4 == 0 else rng.randint(1, 4)
        profile = parse_profile(PROFILES[i % len(PROFILES)])
        got = find_countermodel(ctx, goal, worlds, profile)
        want = _enumerated_find_countermodel(ctx, goal, worlds, profile)
        assert (got and got.to_json()) == (want and want.to_json()), (ctx, goal)
        found += want is not None
        nested += any(type(r) in (RImplies, Forall) for r in ctx.delta)
        # a label that an equality joins and no other rwff uses
        joined = {x for r in ctx.delta if type(r) is Eq and r.x != r.y
                  for x in (r.x, r.y)}
        alone += bool(joined.difference(
            *(labels_of(r) for r in ctx.delta if type(r) is not Eq)))
    assert 30 < found < 170 and nested > 30 and alone > 100, (
        found, nested, alone)


def test_probe_of_long_mon_chains():
    # 34 labels in two classes (disorder) or one (redundant): 16 or 4
    # interpretations at 4 worlds, not 4 ** 34
    from test_normalize import _mon_chain
    reports = [check(_mon_chain(32, disorder)) for disorder in (True, False)]
    start = time.perf_counter()
    for report in reports:
        assert report.ok and len(labels_of(report.open)) > 30
        assert soundness_probe(report, 4).status == "PASS"
    assert time.perf_counter() - start < 1
