import copy
import dataclasses
import gc
import pickle
import random
import sys
import weakref

import pytest

import label_reference as ref
import pool_reference as pool_ref
from helpers import (
    all_interpretations, all_models, atoms_of, eval_shortcut, random_entity,
    random_formula, random_rwff,
)
from tenseproof import syntax
from tenseproof.parser import parse_formula, parse_lwff, parse_rwff, render
from tenseproof.rules import KL, RULES, LogicProfile
from tenseproof.semantics import Countermodel, Model, ProbeReport, eval_entity
from tenseproof.syntax import (
    And, Atom, Empty, Eq, Exists, F, Falsum, Forall, G, H, Implies, Less, Lwff,
    Not, Or, LabelGen, P, Prec, ProofContext, RAnd, RImplies, RNot, ROr, Top, X,
    canon, core_eq, expand, fresh_label, grade, is_atomic, is_formula,
    is_subformula, label_skeleton, labels_of, match_labels, subformulas,
    substitute_label, substitute_labels, SubformulaPool,
)


def test_expand_negation():
    assert expand(parse_formula("~a")) == Implies(Atom("a"), Falsum())


def test_expand_core_is_identity():
    phi = parse_formula("p")
    assert expand(phi) == phi
    psi = parse_formula("G (p -> false) -> false")
    assert expand(psi) == psi


def test_expand_future():
    assert expand(parse_formula("F p")) == parse_formula("(G (p -> false)) -> false")


def test_expand_relational_disjunction():
    got = expand(parse_rwff("x < y \\/ x = y"))
    assert got == parse_rwff("((x < y) => empty) => x = y")


def test_expand_exists_and_prec():
    got = expand(parse_rwff("exists z. x < z"))
    assert got == expand(parse_rwff("!(forall z. !(x < z))"))
    prec = expand(parse_rwff("s <. t"))
    assert prec == expand(parse_rwff("s < t /\\ forall u1. !(s < u1) \\/ !(u1 < t)"))


@pytest.mark.parametrize("seed", range(8))
def test_expand_idempotent_random(seed):
    rng = random.Random(seed)
    for _ in range(50):
        e = random_entity(rng, 4)
        assert expand(expand(e)) == expand(e)


def test_expand_preserves_truth_small_models():
    # oracle: a native shortcut evaluator for the derived forms, checked
    # against evaluation of the expansion on every model up to 3 worlds
    rng = random.Random(99)
    for _ in range(120):
        e = random_entity(rng, 3)
        atoms = sorted(atoms_of(e)) or ["p"]
        labels = sorted(labels_of(e) if not isinstance(e, Lwff) else {e.label})
        for m in all_models(3, atoms):
            for lam in all_interpretations(m, labels):
                assert eval_entity(m, lam, expand(e)) == eval_shortcut(m, lam, e)


def test_grade_examples():
    assert grade(parse_lwff("x : false")) == 0
    assert grade(parse_rwff("forall x. !(x < x)")) == 2
    assert grade(parse_formula("G (a -> b) -> (G a -> G b)")) == 6


def test_grade_of_derived_forms_counts_expansion():
    assert grade(parse_formula("p & q")) == 3
    assert grade(parse_formula("F p")) == 3


def test_grade_invariant_under_substitution():
    rng = random.Random(3)
    for _ in range(60):
        rho = random_rwff(rng, 4)
        assert grade(substitute_label(rho, "y", "x")) == grade(rho)


def test_subformula_examples():
    a = parse_formula("a")
    assert is_subformula(a, G(a))
    assert is_subformula(a, a)
    assert not is_subformula(parse_formula("G p"), parse_formula("p"))


def test_subformula_ignores_labels_on_lwffs():
    assert is_subformula(parse_lwff("y : p"), parse_lwff("x : G p"))


def test_subformula_partial_order():
    rng = random.Random(5)
    forms = [expand(random_formula(rng, 3)) for _ in range(25)]
    for a in forms:
        assert is_subformula(a, a)
        for b in forms:
            if is_subformula(a, b) and is_subformula(b, a):
                assert canon(a) == canon(b)
            for c in forms:
                if is_subformula(a, b) and is_subformula(b, c):
                    assert is_subformula(a, c)


def test_substitution_examples():
    assert substitute_label(parse_lwff("x : p"), "y", "x") == parse_lwff("y : p")
    assert substitute_label(Less("x", "x"), "y", "x") == Less("y", "y")
    bound = parse_rwff("forall x. x < z")
    assert substitute_label(bound, "y", "x") == bound


def test_substitution_identity():
    rng = random.Random(6)
    for _ in range(40):
        rho = random_rwff(rng, 4)
        assert substitute_label(rho, "x", "x") == rho


def test_substitution_capture_avoiding():
    rho = parse_rwff("forall y. x < y")
    got = substitute_label(rho, "y", "x")
    # the binder must be renamed so the incoming label stays free
    assert isinstance(got, Forall)
    assert got.var != "y"
    assert labels_of(got) == frozenset({"y"})


def _binders(rho) -> set:
    out, todo = set(), [rho]
    while todo:
        n = todo.pop()
        out.add(getattr(n, "var", None))
        todo += n._kids(n)
    return out


# the labels ``fresh_label`` renames a binder to are among these, so that
# renamed binders meet binders of the same name below them
CAPTURING = ("x", "y", "u1", "u2")


def test_substitute_labels_agrees_with_sequential_substitution():
    # one pair: the very node the old one-pair walk built, binder names
    # included; two or three pairs: the old walk run through labels that
    # occur nowhere, up to bound names
    rng = random.Random(41)
    captured = 0
    for _ in range(3000):
        rho = random_rwff(rng, rng.randrange(1, 6), CAPTURING)
        old, new = rng.choice(CAPTURING), rng.choice(CAPTURING + ("z",))
        got = substitute_labels(rho, {old: new})
        assert got is ref.substitute_label(rho, new, old)
        assert substitute_label(rho, new, old) is got
        captured += old in labels_of(rho) and new in _binders(rho)
        keys = rng.sample(CAPTURING, rng.randint(2, 3))
        env = {k: rng.choice(CAPTURING + ("z",)) for k in keys}
        seq = rho
        for i, k in enumerate(keys):
            seq = ref.substitute_label(seq, f"t{i}", k)
        for i, k in enumerate(keys):
            seq = ref.substitute_label(seq, env[k], f"t{i}")
        assert core_eq(substitute_labels(rho, env), seq)
    assert captured > 150


def test_substitute_labels_returns_untouched_subtrees():
    rho = parse_rwff("(forall v. x < v) => y < z")
    got = substitute_labels(rho, {"y": "w"})
    assert got.left is rho.left and got is parse_rwff("(forall v. x < v) => w < z")
    assert substitute_labels(rho, {"v": "w", "q": "w"}) is rho
    lwff, tense = parse_lwff("x : G p"), parse_formula("G p")
    assert substitute_labels(lwff, {"x": "y"}) is parse_lwff("y : G p")
    assert substitute_labels(tense, {"x": "y"}) is tense


def test_match_labels_finds_exactly_the_instances():
    # a match is an instance, and where no labels of the target make one,
    # none is found
    import itertools
    rng = random.Random(43)
    found = 0
    for _ in range(1500):
        pattern = random_rwff(rng, rng.randrange(1, 4), CAPTURING)
        holes = sorted(labels_of(pattern))
        if rng.random() < 0.5:
            target = substitute_labels(pattern, dict(zip(
                holes, (rng.choice(CAPTURING) for _ in holes))))
        else:
            target = random_rwff(rng, rng.randrange(1, 4), CAPTURING)
        env = match_labels(pattern, target, holes)
        if env is not None:
            found += 1
            assert set(env) <= set(holes)
            assert core_eq(substitute_labels(pattern, env), target)
        else:
            for labels in itertools.product(sorted(labels_of(target)),
                                            repeat=len(holes)):
                env = dict(zip(holes, labels))
                assert not core_eq(substitute_labels(pattern, env), target)
    assert found > 500


def test_label_instances_do_not_capture():
    # a hole takes no label the target binds, and bound labels stay one to
    # one: no substitution for x, nor any for y, yields these targets
    for target, pattern in [
            ("forall v. (v < v) => (y < y)", "forall v. (v < x) => (y < y)"),
            ("forall a. forall a. (a < a) => (y < y)",
             "forall v. forall w. (v < w) => (y < y)")]:
        target, pattern = parse_rwff(target), parse_rwff(pattern)
        assert ref._matches_instance(pattern, target)
        assert match_labels(pattern, target, labels_of(pattern)) is None
        assert target not in SubformulaPool([pattern])
    assert parse_rwff("forall a. forall b. (a < b) => (z < z)") in SubformulaPool(
        [parse_rwff("forall v. forall w. (v < w) => (y < y)")])


def _rename_bound(rho, names):
    """An alpha-variant of ``rho``: each binder's variable renamed to the
    next of ``names``, which occur nowhere in ``rho``."""
    if isinstance(rho, (Forall, Exists)):
        var = next(names)
        return type(rho)(var, substitute_labels(_rename_bound(rho.body, names),
                                                {rho.var: var}))
    kids = {f: _rename_bound(getattr(rho, f), names)
            for f in rho._fields if f in ("left", "right", "body")}
    return type(rho)(*(kids.get(f, getattr(rho, f)) for f in rho._fields))


def test_pool_agrees_with_the_unfiled_reference():
    # the pool filed by class and grade answers has_variant and ``in`` as
    # the pool that scanned every subformula did: on the subformulas of its
    # members, their label instances (free labels renamed, or two merged),
    # their alpha-variants, and formulas of either sort that are no members
    import itertools
    rng = random.Random(29)
    names = (f"v{i}" for i in itertools.count())
    counts = dict.fromkeys(("variant", "instance", "neither"), 0)
    for _ in range(120):
        formulas = [random_rwff(rng, rng.randrange(1, 5), CAPTURING)
                    for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            formulas += [random_formula(rng, 3), random_entity(rng, 3)]
        queries = [*formulas, *(s for f in formulas for s in subformulas(f))]
        for q in list(queries):
            if isinstance(q, Lwff) or is_formula(q):
                continue
            queries.append(_rename_bound(q, names))
            free = sorted(labels_of(q))
            if free:
                queries.append(substitute_labels(q, {
                    x: rng.choice(CAPTURING + ("z",)) for x in free}))
            if len(free) > 1:
                a, b = rng.sample(free, 2)
                queries.append(substitute_labels(q, {a: b}))
        queries += [random_rwff(rng, 3, CAPTURING), random_formula(rng, 3),
                    random_entity(rng, 3)]
        new, old = SubformulaPool(formulas), pool_ref.SubformulaPool(formulas)
        for q in queries:
            variant = new.has_variant(q)
            assert variant == old.has_variant(q), q
            assert (q in new) == (q in old), q
            counts["variant" if variant else
                   "instance" if q in new else "neither"] += 1
    assert min(counts.values()) > 100, counts


def test_label_skeleton_of_a_tense_formula_is_the_formula():
    # a tense formula holds no labels; an lwff's skeleton holds its formula
    tense, labels = parse_formula("G p -> q"), []
    assert label_skeleton(tense, labels) == (tense,) and labels == []
    assert label_skeleton(parse_lwff("x : G p -> q"), labels) == (Lwff, tense)
    assert labels == ["x"]


def test_labels_of_examples():
    assert labels_of(parse_lwff("x : G p")) == frozenset({"x"})
    assert labels_of(parse_rwff("forall x. x < y")) == frozenset({"y"})
    ctx = ProofContext.make([parse_lwff("x : p")], [Less("x", "y")])
    assert labels_of(ctx) == frozenset({"x", "y"})


def test_fresh_label_never_collides():
    avoid = {"w1", "w2", "w3"}
    assert fresh_label(avoid) == "w4"
    assert fresh_label(set()) == "w1"


def test_label_gen_yields_what_repeated_fresh_label_yields():
    # the generator resumes its counter instead of rescanning from w1; on
    # seeded avoid sets it hands out what fresh_label gives over the set
    # grown by each name it gave
    rng = random.Random(29)
    for _ in range(100):
        avoid = {f"{rng.choice('wuv')}{i}" for i in range(rng.randrange(60))
                 if rng.random() < 0.6} | {"x", "w0", "w"}
        base = rng.choice("wu")
        gen, grown = LabelGen(avoid, base), set(avoid)
        for _ in range(40):
            name = fresh_label(grown, base)
            assert gen() == name and name not in avoid
            grown.add(name)


def test_is_atomic():
    assert is_atomic(parse_lwff("x : p"))
    assert is_atomic(parse_lwff("x : false"))
    assert not is_atomic(parse_lwff("x : ~p"))
    assert is_atomic(parse_rwff("x = y"))
    assert not is_atomic(parse_rwff("x <. y"))


def test_canon_alpha_equivalence():
    a = parse_rwff("forall x. !(x < x)")
    b = parse_rwff("forall z. !(z < z)")
    assert canon(a) == canon(b)
    assert core_eq(a, b)
    c = parse_rwff("forall x. !(x < y)")
    assert canon(a) != canon(c)


def test_subformulas_of_quantified():
    rho = parse_rwff("forall x. x < y => empty")
    subs = {canon(s) for s in subformulas(rho)}
    assert canon(parse_rwff("x < y")) in subs
    assert canon(parse_rwff("empty")) in subs


# ---------------------------------------------------------------------------
# Hash-consing

def test_equal_formulas_are_one_node_however_built():
    text = "x : F (p & q) -> G ~r"
    built = Lwff("x", Implies(F(And(Atom("p"), Atom("q"))), G(Not(Atom("r")))))
    assert parse_lwff(text) is built
    assert parse_lwff(text) is parse_lwff(text)
    core = parse_lwff(
        "x : ((G (((p -> q -> false) -> false) -> false)) -> false) -> G (r -> false)")
    assert expand(built) is core
    assert canon(built) is core
    assert substitute_label(parse_lwff("y : F (p & q) -> G ~r"), "x", "y") is built
    rho = parse_rwff("forall u. x < u")
    assert canon(rho) is canon(parse_rwff("forall v. x < v"))
    assert substitute_label(parse_rwff("forall u. z < u"), "x", "z") is rho
    assert expand(parse_rwff("!(x < y)")) is RImplies(Less("x", "y"), Empty())


def test_classes_with_equal_fields_stay_apart():
    p = Atom("p")
    for nodes in ([G(p), H(p), X(p)],
                  [Less("x", "y"), Eq("x", "y"), Prec("x", "y")],
                  [Lwff("x", p), Lwff("y", p)]):
        assert len({id(n) for n in nodes}) == len(nodes)
        assert len(set(nodes)) == len(nodes)


def test_copies_and_pickles_are_the_interned_node():
    for e in (parse_lwff("x : G (p -> F q)"), parse_rwff("forall u. x <. u"),
              Falsum(), Empty()):
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e


def test_nodes_are_frozen():
    phi = Implies(Atom("p"), Atom("q"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        phi.left = Atom("r")


# one node of each formula class, with its repr
_EACH_CLASS = {
    Atom("p"): "Atom(name='p')",
    Falsum(): "Falsum()",
    Implies(Atom("p"), Atom("q")):
        "Implies(left=Atom(name='p'), right=Atom(name='q'))",
    G(Atom("p")): "G(body=Atom(name='p'))",
    H(Atom("p")): "H(body=Atom(name='p'))",
    X(Atom("p")): "X(body=Atom(name='p'))",
    Not(Atom("p")): "Not(body=Atom(name='p'))",
    And(Atom("p"), Atom("q")): "And(left=Atom(name='p'), right=Atom(name='q'))",
    Or(Atom("p"), Atom("q")): "Or(left=Atom(name='p'), right=Atom(name='q'))",
    Top(): "Top()",
    F(Atom("p")): "F(body=Atom(name='p'))",
    P(Atom("p")): "P(body=Atom(name='p'))",
    Less("x", "y"): "Less(x='x', y='y')",
    Eq("x", "y"): "Eq(x='x', y='y')",
    Empty(): "Empty()",
    RImplies(Less("x", "y"), Empty()):
        "RImplies(left=Less(x='x', y='y'), right=Empty())",
    Forall("u", Less("x", "u")): "Forall(var='u', body=Less(x='x', y='u'))",
    RNot(Less("x", "y")): "RNot(body=Less(x='x', y='y'))",
    RAnd(Less("x", "y"), Empty()):
        "RAnd(left=Less(x='x', y='y'), right=Empty())",
    ROr(Less("x", "y"), Empty()): "ROr(left=Less(x='x', y='y'), right=Empty())",
    Exists("u", Less("u", "y")): "Exists(var='u', body=Less(x='u', y='y'))",
    Prec("x", "y"): "Prec(x='x', y='y')",
    Lwff("x", G(Atom("p"))): "Lwff(label='x', formula=G(body=Atom(name='p')))",
}


def test_every_formula_class_is_a_plain_frozen_positional_node():
    assert {type(n) for n in _EACH_CLASS} == {*syntax.FORMULA_TYPES, Lwff,
                                              *syntax._Rel.__subclasses__()}
    assert len(_EACH_CLASS) == 12 + 10 + 1
    for n, text in _EACH_CLASS.items():
        cls, fields = type(n), type(n)._fields
        assert not dataclasses.is_dataclass(cls)
        assert repr(n) == text
        values = tuple(getattr(n, f) for f in fields)
        assert cls(*values) is n
        with pytest.raises(TypeError):
            cls(*values, None)
        if fields:
            with pytest.raises(TypeError):
                cls(*values[:-1])
            with pytest.raises(TypeError):
                cls(*values[:-1], **{fields[-1]: values[-1]})
        assert cls._kids(n) == tuple(v for v in values
                                     if isinstance(v, syntax._Node))
        for f in fields + ("_x",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(n, f, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(n, f)
        assert tuple(getattr(n, f) for f in fields) == values


def test_table_drops_a_node_once_unreferenced():
    key = (Atom, "p_only_here")
    phi = Atom("p_only_here")
    assert syntax._REFS[key]() is phi
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None
    assert key not in syntax._REFS


def test_a_node_leaves_the_table_as_its_last_reference_goes():
    # a formula node is in no reference cycle, so it dies, and its entry
    # goes, with its last reference, before any node of its key is built;
    # one that only garbage in a cycle holds goes at the collection
    gc.disable()
    try:
        key = (G, Atom("p_only_here"))
        phi = G(key[1])
        del phi
        assert key not in syntax._REFS
        cycle = [G(key[1])]
        cycle.append(cycle)
        del cycle
        assert key in syntax._REFS
        gc.collect()
        assert key not in syntax._REFS
    finally:
        gc.enable()


def test_a_node_rebuilt_after_its_predecessor_died_is_the_one_returned():
    key = (Less, "x", "y_only_here")
    first = Less("x", "y_only_here")
    dead = weakref.ref(first)
    del first
    assert dead() is None
    second = Less("x", "y_only_here")
    assert syntax._REFS[key]() is second
    assert Less("x", "y_only_here") is second
    assert parse_rwff("x < y_only_here") is second


def test_the_table_returns_to_its_size_once_fresh_formulas_die():
    gc.collect()
    start = len(syntax._REFS)
    gc.disable()
    try:
        formulas = [(parse_lwff(f"x : G (p{i} -> H ~q{i})"),
                     parse_rwff(f"forall u. x{i} < u => !(exists v. u = v)"))
                    for i in range(1000)]
        for phi, rho in formulas:
            expand(phi), canon(rho), grade(phi), labels_of(rho)
        assert len(syntax._REFS) > start + 1000
        del formulas, phi, rho
        assert len(syntax._REFS) == start
    finally:
        gc.enable()


def _fresh_args(n) -> tuple:
    """Fields for a node of ``n``'s class that no live node has: each label
    and name made new, each kid a new atom of its sort."""
    return tuple(v + "_fresh" if isinstance(v, str)
                 else Less("a", "a_kid") if isinstance(v, syntax._Rel)
                 else Atom("a_kid") for v in
                 (getattr(n, f) for f in n._fields))


def test_a_fresh_node_is_built_by_no_python_call_but_its_constructor():
    built = [(type(n), _fresh_args(n)) for n in _EACH_CLASS if n._fields]
    assert not [args for cls, args in built if (cls, *args) in syntax._REFS]
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_qualname)

    nodes = []
    sys.setprofile(profile)
    try:
        for cls, args in built:         # a comprehension would be a call
            nodes.append(cls(*args))
    finally:
        sys.setprofile(None)
    assert calls == ["_Node.__new__"] * len(built)
    assert all(syntax._REFS[(cls, *args)]() is n
               for (cls, args), n in zip(built, nodes))


def test_formula_functions_reject_what_is_no_formula():
    with pytest.raises(TypeError, match="not a formula: 3"):
        expand(3)
    with pytest.raises(TypeError, match="no labels in 3"):
        labels_of(3)
    with pytest.raises(TypeError, match="not a formula: 3"):
        canon(3)


def test_formulas_of_any_depth():
    n = 10000
    phi = parse_formula("F " * n + "p")
    rho = parse_rwff("forall y. " * n + "x < y")
    chain = parse_rwff("x < y => " * n + "empty")
    for e in (phi, rho, chain):
        assert (parse_formula if e is phi else parse_rwff)(render(e)) is e
        assert expand(expand(e)) is expand(e)
        assert hash(canon(e)) == hash(canon(e))
        assert is_subformula(e, e)
        assert len(repr(e)) > n
    assert grade(phi) == 3 * n and grade(rho) == n and grade(chain) == n
    assert len(subformulas(phi)) == 3 * n + 2
    assert labels_of(rho) == {"x"} and labels_of(chain) == {"x", "y"}
    assert labels_of(substitute_label(rho, "y", "x")) == {"y"}
    assert substitute_label(chain, "z", "y") in SubformulaPool([chain])
    m = Model.chain(2, {"p": {1}})
    assert eval_entity(m, {"x": 0}, Lwff("x", Implies(phi, phi)))
    assert eval_entity(m, {"x": 1, "y": 0}, chain)
    assert not eval_entity(m, {"x": 0, "y": 1}, chain)


def _records():
    """One record of each record class, and the dataclass it replaced:
    its fields with their defaults (a ``dataclasses.field`` for a default
    factory)."""
    model = Model(2, frozenset({(0, 1)}), {"p": frozenset({1})})
    cm = Countermodel(model, {"x": 0}, parse_lwff("x : F p"))
    return [
        (ProofContext.make([parse_lwff("x : p")], [parse_rwff("x < y")]),
         [("gamma", frozenset), ("delta", frozenset)]),
        (KL, [("extras", frozenset, frozenset())]),
        (LogicProfile.make("first", "final"),
         [("extras", frozenset, frozenset())]),
        (RULES["g_i"], [("name", str), ("kind", str), ("n_premises", int),
                        ("discharging", bool, False), ("fresh", bool, False),
                        ("requires", object, None),
                        ("axiom_template", object, None)]),
        (RULES["first"], [("name", str), ("kind", str), ("n_premises", int),
                          ("discharging", bool, False),
                          ("fresh", bool, False), ("requires", object, None),
                          ("axiom_template", object, None)]),
        (model, [("n", int), ("prec", frozenset, frozenset()),
                 ("valuation", dict, dataclasses.field(default_factory=dict))]),
        (cm, [("model", Model), ("lam", dict), ("failing", object)]),
        (ProbeReport("FAIL", 3, cm), [("status", str), ("max_worlds", int),
                                      ("countermodel", object, None)]),
        (ProbeReport("PASS", 3), [("status", str), ("max_worlds", int),
                                  ("countermodel", object, None)]),
    ]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:            # a record holding a dict
        return str(exc)


def test_records_compare_hash_and_print_as_their_dataclasses():
    for record, fields in _records():
        cls = type(record)
        assert not dataclasses.is_dataclass(cls)
        reference = dataclasses.make_dataclass(cls.__name__, fields,
                                               frozen=True)
        reference.__qualname__ = cls.__qualname__
        values = tuple(getattr(record, f[0]) for f in fields)
        twin = reference(*values)
        assert cls.__slots__ == tuple(f[0] for f in fields)
        assert repr(record) == repr(twin)
        assert cls(*values) == record and record != twin
        assert cls(**dict(zip(cls.__slots__, values))) == record
        assert _hash_or_error(record) == _hash_or_error(twin)
        # a default, where the dataclass had one, and a changed field
        required = sum(len(f) == 2 for f in fields)
        assert repr(cls(*values[:required])) == repr(reference(*values[:required]))
        assert cls(*values[:-1], None) != record or values[-1] is None
        with pytest.raises(TypeError):
            cls(*values, None)
        if required:
            with pytest.raises(TypeError):
                cls(*values[:required - 1])
        with pytest.raises(TypeError):
            cls(*values, **{cls.__slots__[0]: values[0]})
        for f in cls.__slots__:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f)
        for copied in (copy.copy(record), copy.deepcopy(record),
                       pickle.loads(pickle.dumps(record))):
            assert type(copied) is cls and copied == record
    assert Model(1).valuation is not Model(1).valuation
