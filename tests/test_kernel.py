import functools
import json
import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings, strategies as st

from tenseproof.derivation import (
    Derivation, MarkerGen, all_labels, all_markers, assume, dumps, from_json,
    map_leaves, node, relabel, replace_at, to_json,
)
from tenseproof import kernel
from tenseproof.kernel import check, expand_derived, open_assumptions
from tenseproof.normalize import canonical_form
from tenseproof.parser import parse_lwff as pl, parse_rwff as pr
from tenseproof.rules import AXIOMS, KL, RULES, parse_profile
from tenseproof.syntax import (
    And, Atom, Empty, Eq, Exists, F as FutureF, Falsum, Forall, G, H, Implies,
    Less, Lwff, Not, Or, P as PastP, ProofContext, RAnd, RImplies, RNot, ROr,
    X, core_eq, expand, labels_of, substitute_label,
)

E = Empty()
F = Falsum()


def g1_tree():
    a1 = assume(pl("t : G (p -> q)"), 1)
    a2 = assume(pl("t : G p"), 2)
    ge1 = node("g_e", pl("s : p -> q"), a1, assume(pr("t < s"), 3))
    ge2 = node("g_e", pl("s : p"), a2, assume(pr("t < s"), 3))
    impe = node("imp_e", pl("s : q"), ge1, ge2)
    gi = node("g_i", pl("t : G q"), impe, discharges={3}, fresh="s")
    i2 = node("imp_i", pl("t : G p -> G q"), gi, discharges={2})
    return node("imp_i", pl("t : G (p -> q) -> (G p -> G q)"), i2, discharges={1})


def test_theorem_tree_checks():
    report = check(g1_tree(), KL)
    assert report.ok and report.is_theorem
    assert report.open.is_empty()
    # deterministic and stable under re-checking
    assert check(g1_tree(), KL) == report


def test_single_leaf_is_not_a_theorem():
    report = check(assume(pl("x : p")), KL)
    assert report.ok and not report.is_theorem
    assert report.open == ProofContext.make([pl("x : p")], [])


def test_freshness_violation_minimal_tree():
    # a fresh label that still occurs in an open assumption of the premise
    bad = node("g_i", pl("x : G p"),
               node("raa_bot", pl("y : p"), assume(pl("y : false"))),
               fresh="y")
    report = check(bad, KL)
    assert not report.ok
    assert {v.kind for v in report.violations} == {"FreshnessViolation"}


def test_fresh_annotation_is_structural():
    missing = node("g_i", pl("x : G p"), assume(pl("y : p")))
    assert any(v.kind == "StructuralError" for v in check(missing, KL).violations)
    extra = replace(node("imp_e", pl("x : q"), assume(pl("x : p -> q")),
                         assume(pl("x : p"))), fresh="z")
    assert any(v.kind == "StructuralError" for v in check(extra, KL).violations)


def test_fresh_label_must_differ_from_subject():
    bad = node("g_i", pl("x : G p"), assume(pl("x : p")), fresh="x")
    report = check(bad, KL)
    assert any(v.kind in ("FreshnessViolation", "PatternMismatch")
               for v in report.violations)


def test_fresh_label_must_not_be_free_in_the_conclusion():
    # z = z, then forall u. u = z at the fresh label z: the body checks, the
    # eigenlabel does not
    zz = node("all_e", pr("z = z"), node("refl_eq", AXIOMS["refl_eq"]))
    bad = node("all_i", pr("forall u. u = z"), zz, fresh="z")
    assert [(v.kind, v.path) for v in check(bad, KL).violations] \
        == [("FreshnessViolation", ())]
    good = node("all_i", pr("forall u. u = u"), zz, fresh="z")
    assert check(good, KL).ok and check(good, KL).is_theorem


def test_elimination_reports_one_mismatch():
    # both the conclusion and the minor premise of this g_e mismatch: one
    # violation says its premises do not open to its conclusion
    bad = node("g_e", pl("y : q"), assume(pl("x : G p")), assume(pr("y < x")))
    assert [(v.kind, v.path) for v in check(bad, KL).violations] \
        == [("PatternMismatch", ())]
    for c, minor in (("y : q", "x < y"), ("y : p", "y < x")):
        one = node("g_e", pl(c), assume(pl("x : G p")), assume(pr(minor)))
        assert [v.kind for v in check(one, KL).violations] == ["PatternMismatch"]
    assert check(node("g_e", pl("y : p"), assume(pl("x : G p")),
                      assume(pr("x < y"))), KL).ok


def test_pattern_mismatch_reported_with_path():
    bad = node("imp_e", pl("x : q"), assume(pl("x : p -> q")), assume(pl("x : r")))
    report = check(bad, KL)
    assert not report.ok
    assert report.violations[0].kind == "PatternMismatch"
    assert report.violations[0].path == ()


def test_discharge_shape_enforced():
    bad = node("imp_i", pl("x : p -> q"), assume(pl("x : q"), 1), discharges={1})
    report = check(bad, KL)
    assert any(v.kind == "BadDischarge" for v in report.violations)


def test_discharge_must_stay_in_designated_subtree():
    minor = assume(pl("x : p"), 1)
    major = node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1), discharges={1})
    bad = node("imp_e", pl("x : p"), major, minor)
    report = check(bad, KL)
    assert any(v.kind == "BadDischarge" for v in report.violations)


def test_double_discharge_rejected():
    inner = node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1), discharges={1})
    bad = node("imp_i", pl("x : p -> (p -> p)"), inner, discharges={1})
    report = check(bad, KL)
    assert any(v.kind == "BadDischarge" for v in report.violations)


def test_zero_use_discharge_is_legal():
    vacuous = node("imp_i", pl("x : q -> p"), assume(pl("x : p"), 9),
                   discharges={1})
    report = check(vacuous, KL)
    assert report.ok


def test_axiom_profile_gating():
    d = node("first", AXIOMS["first"])
    assert not check(d, KL).ok
    assert any(v.kind == "AxiomNotInProfile" for v in check(d, KL).violations)
    assert check(d, parse_profile("kl+first")).ok


def test_axiom_conclusion_verified():
    bad = node("conn", AXIOMS["trans_lt"])
    assert not check(bad, KL).ok


def test_universal_falsum():
    d = node("uf1", E, assume(pl("x : false")))
    assert check(d, KL).ok
    d2 = node("uf2", pl("z : false"), assume(E))
    assert check(d2, KL).ok


def test_mon_accepts_positional_and_replace_all():
    # single position on an atomic relational formula
    d = node("mon", pr("z < y"), assume(pr("x < y")), assume(pr("x = z")),
             position=1)
    assert check(d, KL).ok
    # replace-all on a non-atomic formula (pre-restriction form)
    d2 = node("mon", pl("y : G p"), assume(pl("x : G p")), assume(pr("x = y")))
    assert check(d2, KL).ok
    # a wrong conclusion is rejected
    d3 = node("mon", pr("y < x"), assume(pr("x < y")), assume(pr("x = z")))
    assert not check(d3, KL).ok


def test_mon_infers_single_position():
    d = node("mon", pr("y < x"), assume(pr("x < x")), assume(pr("x = y")))
    assert check(d, KL).ok  # position 1 replacement
    d2 = node("mon", pr("x < y"), assume(pr("x < x")), assume(pr("x = y")))
    assert check(d2, KL).ok  # position 2 replacement
    d3 = node("mon", pr("y < y"), assume(pr("x < x")), assume(pr("x = y")))
    assert check(d3, KL).ok  # both positions: the unrestricted reading


def test_instantiation_agrees_with_the_candidate_loop():
    # the matcher against the loop that substituted each candidate label
    # and compared: with vacuous variables, where the least candidate is
    # kept, and with the variable's place bound in the target, or its
    # label captured by a binder of the body
    import random
    import label_reference as ref
    from helpers import random_rwff
    from tenseproof.kernel import match_instantiation
    cases = [("forall a. v < a", "v", "forall b. a < b", "a"),
             ("forall a. v < a", "v", "forall a. a < a", None),
             ("forall a. v < a => v = a", "v", "forall b. c < b => a = b", None),
             ("forall a. a < a", "v", "forall b. b < b", "v"),
             ("y < y", "v", "y < y", "v"), ("y < y", "z", "y < y", "y")]
    for body, var, target, w in cases:
        body, target = pr(body), pr(target)
        assert match_instantiation(body, var, target) == w
        assert ref.match_instantiation(body, var, target) == w
    labels = ("x", "y", "u1", "u2")
    rng = random.Random(53)
    vacuous = found = 0
    for _ in range(2000):
        body = random_rwff(rng, rng.randrange(1, 5), labels)
        var = rng.choice(labels)
        if rng.random() < 0.7:
            target = substitute_label(body, rng.choice(labels + ("z",)), var)
        else:
            target = random_rwff(rng, rng.randrange(1, 4), labels)
        w = match_instantiation(body, var, target)
        assert w == ref.match_instantiation(body, var, target)
        found += w is not None
        vacuous += w is not None and var not in labels_of(body)
    assert found > 1000 and vacuous > 100


def test_next_step_rules_need_mtl():
    mtl = parse_profile("mtl")
    xi = node("x_i", pl("x : X p"), assume(pl("y : p")), discharges={1}, fresh="y")
    assert not check(xi, KL).ok
    # with the discharged immediate-successor assumption present
    xi2 = node("x_i", pl("x : X p"),
               node("x_e", pl("y : p"), assume(pl("x : X p"), 2),
                    assume(pr("x <. y"), 1)),
               discharges={1}, fresh="y")
    report = check(xi2, mtl)
    assert report.ok
    assert report.open == ProofContext.make([pl("x : X p")], [])


def test_next_step_distribution_theorem():
    # X (p -> q) -> (X p -> X q), the analogue of the G distribution law
    mtl = parse_profile("mtl")
    a1 = assume(pl("t : X (p -> q)"), 1)
    a2 = assume(pl("t : X p"), 2)
    xe1 = node("x_e", pl("s : p -> q"), a1, assume(pr("t <. s"), 3))
    xe2 = node("x_e", pl("s : p"), a2, assume(pr("t <. s"), 3))
    impe = node("imp_e", pl("s : q"), xe1, xe2)
    xi = node("x_i", pl("t : X q"), impe, discharges={3}, fresh="s")
    i2 = node("imp_i", pl("t : X p -> X q"), xi, discharges={2})
    d = node("imp_i", pl("t : X (p -> q) -> (X p -> X q)"), i2, discharges={1})
    report = check(d, mtl)
    assert report.ok and report.is_theorem, [str(v) for v in report.violations]
    assert not check(d, KL).ok
    from tenseproof.normalize import is_normal, normalize
    assert is_normal(normalize(d)).normal


def test_open_assumptions_examples():
    leaf = assume(pl("x : p"))
    assert open_assumptions(leaf) == ProofContext.make([pl("x : p")], [])
    closed = node("imp_i", pl("x : p -> p"), assume(pl("x : p"), 1), discharges={1})
    assert open_assumptions(closed).is_empty()
    ge = node("g_e", pl("y : p"), assume(pl("x : G p")), assume(pr("x < y")))
    assert open_assumptions(ge) == ProofContext.make(
        [pl("x : G p")], [pr("x < y")])


# ---------------------------------------------------------------------------
# Derived-rule expansion

def fi_tree():
    return node("f_i", pl("x : F p"), assume(pl("y : p")), assume(pr("x < y")))


def test_fi_expansion_matches_core_template():
    expanded = expand_derived(fi_tree())
    m = max(all_markers(expanded))
    template = node(
        "imp_i", pl("x : F p"),
        node("raa_bot", pl("x : false"),
             node("imp_e", pl("y : false"),
                  node("g_e", pl("y : p -> false"),
                       assume(pl("x : G (p -> false)"), m),
                       assume(pr("x < y"))),
                  assume(pl("y : p")))),
        discharges={m})
    assert canonical_form(expanded) == canonical_form(template)
    report = check(expanded, KL)
    assert report.ok
    assert expanded.conclusion == fi_tree().conclusion
    assert open_assumptions(expanded) == open_assumptions(fi_tree())


def test_expansion_is_fixpoint_on_core_trees():
    d = g1_tree()
    assert expand_derived(d) == d


def test_fe_expansion_rechecks():
    inner = node("h_e", pl("t : p"), assume(pl("s : H p"), 2), assume(pr("t < s"), 2))
    fe = node("f_e", pl("t : p"), assume(pl("t : F H p"), 1), inner,
              discharges={2}, fresh="s")
    expanded = expand_derived(fe)
    report = check(expanded, KL)
    assert report.ok
    assert expanded.conclusion == fe.conclusion
    assert open_assumptions(expanded) == open_assumptions(fe)
    rules = {n.rule for _, n in expanded.walk()}
    assert rules <= {"assume", "imp_i", "imp_e", "raa_bot", "g_i", "g_e",
                     "h_e", "uf1", "uf2"}


DERIVED_TREES = [
    ("and_i", lambda: node("and_i", pl("x : p & q"),
                           assume(pl("x : p")), assume(pl("x : q")))),
    ("and_e1", lambda: node("and_e1", pl("x : p"), assume(pl("x : p & q")))),
    ("and_e2", lambda: node("and_e2", pl("x : q"), assume(pl("x : p & q")))),
    ("or_i1", lambda: node("or_i1", pl("x : p | q"), assume(pl("x : p")))),
    ("or_i2", lambda: node("or_i2", pl("x : p | q"), assume(pl("x : q")))),
    ("not_i", lambda: node("not_i", pl("x : ~p"), assume(pl("x : false")),
                           discharges={1})),
    ("not_e", lambda: node("not_e", pl("x : false"),
                           assume(pl("x : ~p")), assume(pl("x : p")))),
    ("rand_i", lambda: node("rand_i", pr("x < y /\\ y < z"),
                            assume(pr("x < y")), assume(pr("y < z")))),
    ("rand_e1", lambda: node("rand_e1", pr("x < y"),
                             assume(pr("x < y /\\ y < z")))),
    ("rand_e2", lambda: node("rand_e2", pr("y < z"),
                             assume(pr("x < y /\\ y < z")))),
    ("ror_i1", lambda: node("ror_i1", pr("x < y \\/ x = y"),
                            assume(pr("x < y")))),
    ("ror_i2", lambda: node("ror_i2", pr("x < y \\/ x = y"),
                            assume(pr("x = y")))),
    ("rnot_i", lambda: node("rnot_i", pr("!(x < x)"), assume(E),
                            discharges={1})),
    ("rnot_e", lambda: node("rnot_e", E,
                            assume(pr("!(x < y)")), assume(pr("x < y")))),
    ("ex_i", lambda: node("ex_i", pr("exists z. x < z"), assume(pr("x < y")))),
    ("p_i", lambda: node("p_i", pl("x : P p"),
                         assume(pl("y : p")), assume(pr("y < x")))),
]


def _ex_falso(t, c):
    """``c`` from ``t``, a derivation of either falsum."""
    if isinstance(c, Lwff):
        if not isinstance(t.conclusion, Lwff):
            t = node("uf2", Lwff(c.label, F), t)
        return node("raa_bot", c, t)
    if isinstance(t.conclusion, Lwff):
        t = node("uf1", E, t)
    return node("raa_empty", c, t)


def _case_tree(rule, c):
    """A ``rule`` node concluding ``c``: each minor premise contradicts
    a leaf the node discharges and concludes ``c`` ex falso."""
    if rule == "or_e":
        minors = [_ex_falso(node("imp_e", pl("x : false"), assume(pl(f"x : ~{a}")),
                                 assume(pl(f"x : {a}"), m)), c)
                  for a, m in (("p", 2), ("q", 3))]
        return node("or_e", c, assume(pl("x : p | q"), 1), *minors,
                    discharges={2, 3})
    if rule == "ror_e":
        minors = [_ex_falso(node("rimp_e", E, assume(pr(f"!({r})")),
                                 assume(pr(r), m)), c)
                  for r, m in (("x < y", 2), ("y < x", 3))]
        return node("ror_e", c, assume(pr("x < y \\/ y < x"), 1), *minors,
                    discharges={2, 3})
    if rule in ("f_e", "p_e"):
        op, elim, rel = (("F", "g_e", "x < y"), ("P", "h_e", "y < x"))[rule == "p_e"]
        past = "G" if op == "F" else "H"
        not_p = node(elim, pl("y : ~p"), assume(pl(f"x : {past} ~p")),
                     assume(pr(rel), 3))
        bot = node("imp_e", pl("y : false"), not_p, assume(pl("y : p"), 2))
        return node(rule, c, assume(pl(f"x : {op} p"), 1), _ex_falso(bot, c),
                    discharges={2, 3}, fresh="y")
    not_xy = node("all_e", pr("!(x < y)"), assume(pr("forall u. !(x < u)")))
    bot = node("rimp_e", E, not_xy, assume(pr("x < y"), 2))
    return node("ex_e", c, assume(pr("exists v. x < v"), 1), _ex_falso(bot, c),
                discharges={2}, fresh="y")


# each case rule concluding at the major premise's label x, at another
# label, and a relational formula
CASE_TREES = [
    (f"{rule}-{tag}", lambda rule=rule, c=c: _case_tree(rule, c))
    for rule in ("or_e", "ror_e", "f_e", "p_e", "ex_e")
    for tag, c in (("x", pl("x : r")), ("z", pl("z : r")), ("rel", pr("z < x")))
]
PINNED_EXPANSIONS = pathlib.Path(__file__).parent / "data" / "expansions.json"


def _gen():
    """``perfbench/gen.py``, the benchmark's input generators."""
    import sys
    perfbench = str(pathlib.Path(__file__).parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import gen
    return gen


def derived_bases() -> list:
    """``DERIVED_TREES``, ``CASE_TREES`` and the benchmark's derived-rule
    families of seed 1 (``perfbench/gen.py``) of at most 400 nodes."""
    import random
    cases = [c.derivation for c in _gen().derived_cases(random.Random(1))]
    return ([tree() for _, tree in DERIVED_TREES + CASE_TREES]
            + [d for d in cases if d.node_count() <= 400])


def derived_mutant(rng, d):
    """``d`` with one derived node changed: its rule, its conclusion (for
    another node's or with a label renamed), a premise's conclusion, a leaf
    it discharges (its conclusion or marker), its discharges, its fresh
    label, or the order of its premises; None if nothing changed."""
    nodes = list(d.walk())
    path, n = rng.choice([(p, t) for p, t in nodes
                          if RULES[t.rule].kind == "derived"])
    formulas = [t.conclusion for _, t in nodes]
    labels = sorted(set().union(*map(labels_of, formulas)))
    markers = sorted(all_markers(d) | {0})
    held = [(q, t) for q, t in n.walk() if t.is_assumption()
            and t.marker in n.discharges]
    field = rng.choice(["rule", "conclusion", "label", "premise", "leaf",
                        "discharges", "fresh", "swap"])
    if field == "rule":
        new = replace(n, rule=rng.choice(sorted(
            r for r, s in RULES.items() if s.n_premises == len(n.premises))))
    elif field == "conclusion":
        new = replace(n, conclusion=rng.choice(formulas))
    elif field == "label" and labels:
        new = replace(n, conclusion=substitute_label(
            n.conclusion, rng.choice(labels), rng.choice(labels)))
    elif field == "premise":
        i = rng.randrange(len(n.premises))
        new = replace_at(n, (i,), replace(n.premises[i],
                                          conclusion=rng.choice(formulas)))
    elif field == "leaf" and held:
        q, leaf = rng.choice(held)
        new = replace_at(n, q, replace(leaf, conclusion=rng.choice(formulas))
                         if rng.random() < 0.5 else
                         replace(leaf, marker=rng.choice(markers)))
    elif field == "discharges":
        new = replace(n, discharges=n.discharges ^ {rng.choice(markers)})
    elif field == "fresh":
        new = replace(n, fresh=rng.choice(labels + [None]))
    elif field == "swap" and len(n.premises) > 1:
        new = replace(n, premises=n.premises[::-1])
    else:
        return None
    return None if new == n else replace_at(d, path, new)


@pytest.mark.parametrize("rule,tree", DERIVED_TREES + CASE_TREES)
def test_each_derived_rule_checks_and_expands(rule, tree):
    d = tree()
    report = check(d, KL)
    assert report.ok, (rule, [str(v) for v in report.violations])
    expanded = expand_derived(d)
    report2 = check(expanded, KL)
    assert report2.ok, (rule, [str(v) for v in report2.violations])
    assert expanded.conclusion == d.conclusion
    assert open_assumptions(expanded) == open_assumptions(d)
    assert all(RULES[n.rule].kind != "derived" for _, n in expanded.walk())


def _expansions() -> dict:
    return {name: dumps(expand_derived(tree()))
            for name, tree in DERIVED_TREES + CASE_TREES}


def test_expansions_are_pinned():
    # the raw expansion text, not only its validity: a needless rule
    # application or a different bridge between the sorts changes it
    pinned = json.loads(PINNED_EXPANSIONS.read_text())
    got = _expansions()
    assert sorted(got) == sorted(pinned)
    for name, text in got.items():
        assert text == pinned[name], name


def test_case_split_expansion_with_shared_marker():
    # one marker discharging a different shape in each branch
    major = assume(pr("x < y \\/ x = y"), 9)
    br1 = node("uf2", pl("t : false"),
               node("rimp_e", E, assume(pr("!(x < y)"), 2), assume(pr("x < y"), 1)))
    br2 = node("uf2", pl("t : false"),
               node("rimp_e", E, assume(pr("!(x = y)"), 3), assume(pr("x = y"), 1)))
    ror = node("ror_e", pl("t : false"), major, br1, br2, discharges={1})
    report = check(ror, KL)
    assert report.ok
    expanded = expand_derived(ror)
    report2 = check(expanded, KL)
    assert report2.ok, [str(v) for v in report2.violations]
    assert open_assumptions(expanded) == open_assumptions(ror)


def test_or_elim_with_labeled_conclusion_expands():
    major = assume(pl("x : p | q"), 1)
    br1 = node("imp_e", pl("x : false"), assume(pl("x : ~p"), 2),
               assume(pl("x : p"), 4))
    br2 = node("imp_e", pl("x : false"), assume(pl("x : ~q"), 3),
               assume(pl("x : q"), 4))
    ore = node("or_e", pl("x : false"), major, br1, br2, discharges={4})
    assert check(ore, KL).ok
    expanded = expand_derived(ore)
    assert check(expanded, KL).ok
    assert open_assumptions(expanded) == open_assumptions(ore)


def _kinds_at(report, path):
    return {v.kind for v in report.violations if v.path == path}


def test_derived_discharge_of_a_leaf_outside_the_node():
    # markers are global: the or_e at (0,) discharges marker 4, which also
    # labels the leaf at (1,), outside the or_e
    major = assume(pl("x : p | q"), 1)
    br1 = node("imp_e", pl("x : false"), assume(pl("x : ~p"), 2),
               assume(pl("x : p"), 4))
    br2 = node("imp_e", pl("x : false"), assume(pl("x : ~q"), 3),
               assume(pl("x : q"), 4))
    ore = node("or_e", pl("x : false"), major, br1, br2, discharges={4})
    d = node("and_i", pl("x : false & p"), ore, assume(pl("x : p"), 4))
    assert _kinds_at(check(d, KL), (0,)) == {"BadDischarge"}


@pytest.mark.parametrize("tree", [
    # a case rule whose minor premise has the wrong kind
    lambda: node("or_e", pl("x : false"), assume(pl("x : p | q")),
                 assume(pr("x < y")), assume(pl("x : false"))),
    lambda: node("or_e", pr("x < y"), assume(pl("x : p | q")),
                 assume(pr("x < y")), assume(pl("x : p"))),
    lambda: node("ror_e", pr("x < y"), assume(pr("x < y \\/ x = y")),
                 assume(pl("x : p")), assume(pr("x < y"))),
    # or_i2 needs a disjunction, not just an implication
    lambda: node("or_i2", pl("x : p -> q"), assume(pl("x : q"))),
    # the premise of ex_i must instantiate the body
    lambda: node("ex_i", pr("exists z. x < z"), assume(pr("y < x"))),
])
def test_derived_shape_mismatch(tree):
    report = check(tree(), KL)
    assert {v.kind for v in report.violations} == {"PatternMismatch"}
    assert all(v.path == () for v in report.violations)


def test_derived_freshness_sees_every_open_leaf():
    # f_e gives its y : p leaves of marker 2 a new marker, apart from its
    # x < y leaf; the open leaf at marker 3 still mentions the fresh label
    body, order = assume(pl("y : p"), 2), assume(pr("x < y"), 2)
    bot = node("imp_e", pl("y : false"), assume(pl("y : p -> false"), 3), body)
    both = node("rand_i", pr("x < y /\\ empty"), order, node("uf1", E, bot))
    minor = node("uf2", pl("z : false"), node("rand_e2", E, both))
    fe = node("f_e", pl("z : false"), assume(pl("x : F p"), 1), minor,
              discharges={2}, fresh="y")
    assert _kinds_at(check(fe, KL), ()) == {"FreshnessViolation"}


def test_deep_tree_check():
    # 3000 nested detours, each through the minor premise of the next
    a = pl("x : p")
    d = assume(a, 1)
    for i in range(3000):
        m = i + 2
        d = node("imp_e", a, node("imp_i", pl("x : p -> p"), assume(a, m),
                                  discharges={m}), d)
    report = check(d, KL)
    assert report.ok and report.open == ProofContext.make([a], [])
    assert open_assumptions(d) == report.open
    # the same chain with the innermost detour's leaf not its consequent:
    # the violations name the intro 3000 levels deep by its full path
    d = assume(a, 1)
    for i in range(3000):
        m = i + 2
        leaf = assume(pl("x : q") if i == 0 else a, m)
        d = node("imp_e", a, node("imp_i", pl("x : p -> p"), leaf,
                                  discharges={m}), d)
    deep = (1,) * 2999 + (0,)
    assert [(v.kind, v.path) for v in check(d, KL).violations] == [
        ("PatternMismatch", deep), ("BadDischarge", deep)]
    # and 3000 derived nodes deep: conjunctions built and taken apart
    d = assume(a, 1)
    for _ in range(1500):
        d = node("and_e1", a, node("and_i", pl("x : p & q"), d,
                                   assume(pl("x : q"))))
    report = check(d, KL)
    assert report.ok
    assert report.open == open_assumptions(d) == ProofContext.make(
        [a, pl("x : q")], [])


def _mutant(rng, d):
    """``d`` with one field of one node changed, or None."""
    nodes = list(d.walk())
    path, n = rng.choice(nodes)
    labels = sorted(set().union(*(labels_of(m.conclusion) for _, m in nodes)))
    markers = sorted(all_markers(d) | {0})
    field = rng.choice(["rule", "conclusion", "label", "marker", "discharges",
                        "fresh", "position", "premises"])
    if field == "rule":
        new = replace(n, rule=rng.choice(sorted(
            r for r, s in RULES.items() if s.n_premises == len(n.premises))))
    elif field == "conclusion":
        new = replace(n, conclusion=rng.choice(nodes)[1].conclusion)
    elif field == "label" and labels:
        new = replace(n, conclusion=substitute_label(
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
    return None if new == n else replace_at(d, path, new)


def test_checked_mutants_expand_and_survive_the_probe():
    import random
    from tenseproof.corpus import corpus_entries
    from tenseproof.semantics import soundness_probe
    trees = [(e.derivation, e.profile) for e in corpus_entries()]
    trees += [(tree(), KL) for _, tree in DERIVED_TREES] + [(fi_tree(), KL)]
    rng = random.Random(31)
    accepted = 0
    for _ in range(1500):
        d, profile = rng.choice(trees)
        mutant = _mutant(rng, d)
        if mutant is None:
            continue
        report = check(mutant, profile)
        if not report.ok:
            continue
        accepted += 1
        expanded = expand_derived(mutant)
        assert check(expanded, profile).ok, mutant
        assert expanded.conclusion == mutant.conclusion
        assert open_assumptions(expanded) == report.open
        assert soundness_probe(report, 3, profile).status != "FAIL", mutant
    assert accepted >= 20


# ---------------------------------------------------------------------------
# Derived shapes read off their expansions, against the parent's predicates

_need = kernel._need
LAB, REL = kernel.LAB, kernel.REL
# each sort's prefix of the connectives' names in the parent's messages
_SHAPE = {LAB: "", REL: "relational "}


def _and_parts(s, core):
    imp, bot = s.imp, type(s.falsum)
    _need(isinstance(core, imp) and isinstance(core.right, bot)
          and isinstance(core.left, imp)
          and isinstance(core.left.right, imp)
          and isinstance(core.left.right.right, bot), f"a {_SHAPE[s]}conjunction")
    return core.left.left, core.left.right.left


def _or_parts(s, core):
    imp = s.imp
    _need(isinstance(core, imp) and isinstance(core.left, imp)
          and isinstance(core.left.right, type(s.falsum)),
          f"a {_SHAPE[s]}disjunction")
    return core.left.left, core.right


def _fp_part(op, what: str, core):
    """``a`` of the expanded ``F a`` (``op`` is G) or ``P a`` (H)."""
    _need(isinstance(core, Implies) and isinstance(core.right, Falsum)
          and isinstance(core.left, op) and isinstance(core.left.body, Implies)
          and isinstance(core.left.body.right, Falsum), what)
    return core.left.body.left


def _exists_parts(core):
    _need(isinstance(core, RImplies) and isinstance(core.right, Empty)
          and isinstance(core.left, Forall)
          and isinstance(core.left.body, RImplies)
          and isinstance(core.left.body.right, Empty), "an existential")
    return core.left.var, core.left.body.left


def _not_part(s, core):
    # the negation test of the parent's ``_exp_not_i``
    _need(isinstance(core, s.imp) and isinstance(core.right, type(s.falsum)),
          f"a {_SHAPE[s]}negation")
    return core.left


# each derived connective with the parent's reader of its expansion
REFERENCE_SHAPES = [
    (Not, functools.partial(_not_part, LAB)),
    (RNot, functools.partial(_not_part, REL)),
    (And, functools.partial(_and_parts, LAB)),
    (RAnd, functools.partial(_and_parts, REL)),
    (Or, functools.partial(_or_parts, LAB)),
    (ROr, functools.partial(_or_parts, REL)),
    (FutureF, functools.partial(_fp_part, G, "an F-formula")),
    (PastP, functools.partial(_fp_part, H, "a P-formula")),
    (Exists, _exists_parts),
]


def _read(reader, core):
    """The parts ``reader`` reads off ``core``, as a tuple, or the text of
    its mismatch."""
    try:
        parts = reader(core)
    except kernel._Mismatch as exc:
        return str(exc)
    return tuple(parts) if isinstance(parts, (tuple, list)) else (parts,)


def _subformulas(phi) -> list:
    out, todo = [], [phi]
    while todo:
        n = todo.pop()
        out.append(n)
        todo += n._kids(n)
    return out


def _near_misses() -> list:
    p, q, x, y = Atom("p"), Atom("q"), "x", "y"
    lt, eq = Less(x, y), Eq(x, y)
    neg = lambda a: Implies(a, F)
    rneg = lambda a: RImplies(a, E)
    return [
        # X or H where G belongs, and G where H belongs
        neg(X(neg(p))), neg(H(neg(p))), neg(G(neg(p))),
        # a tail that is not falsum, at each place it sits
        Implies(G(neg(p)), q), neg(G(Implies(p, q))), neg(G(p)),
        Implies(Implies(p, Implies(q, F)), q),
        neg(Implies(p, Implies(q, p))), neg(Implies(p, G(q))),
        Implies(Implies(p, q), p), Implies(p, q), neg(neg(p)), neg(F), F,
        RImplies(Forall("u", rneg(Less(x, "u"))), eq),
        rneg(Forall("u", RImplies(Less(x, "u"), eq))),
        RImplies(RImplies(lt, RImplies(eq, E)), lt),
        rneg(RImplies(lt, RImplies(eq, lt))), RImplies(RImplies(lt, eq), lt),
        RImplies(lt, eq), rneg(lt), E,
        # Implies where RImplies belongs, and the other way about
        Implies(Forall("u", rneg(Less(x, "u"))), E),
        RImplies(Implies(Forall("u", rneg(Less(x, "u"))), E), E),
        rneg(Forall("u", Implies(Less(x, "u"), E))),
        RImplies(Implies(lt, RImplies(eq, E)), E),
        RImplies(RImplies(lt, Implies(eq, E)), E),
        Implies(RImplies(p, F), q), RImplies(Implies(lt, E), eq),
        rneg(G(rneg(p))), RImplies(neg(p), F), Implies(lt, E),
        neg(Implies(p, Implies(q, E))), neg(Forall("u", neg(p))),
    ]


def test_derived_shapes_read_as_the_parent_predicates():
    import random
    from helpers import random_formula, random_rwff
    rng = random.Random(23)
    cores = set(_near_misses())
    for _ in range(300):
        cores.update(_subformulas(expand(random_formula(rng, 5))))
        cores.update(_subformulas(expand(random_rwff(rng, 4))))
    matched = dict.fromkeys((cls for cls, _ in REFERENCE_SHAPES), 0)
    for core in sorted(cores, key=repr):
        for cls, reference in REFERENCE_SHAPES:
            expected = _read(reference, core)
            assert _read(functools.partial(kernel._unexpand, cls), core) \
                == expected, (cls, core)
            matched[cls] += type(expected) is tuple
    # every shape matches often, and fails often
    assert all(20 < k < len(cores) - 20 for k in matched.values()), matched


# ---------------------------------------------------------------------------
# Case-split expanders: one pass per branch, as the per-marker versions

def _split_shapes_per_marker(p1, markers, first_shape, mgen):
    """The per-marker version of ``kernel._split`` by the shapes of a
    two-pattern rule."""
    firsts, seconds = set(), set()
    tree = p1
    for m in sorted(markers):
        paths = [p for p, nd in tree.walk()
                 if nd.is_assumption() and nd.marker == m]
        match = [p for p in paths if core_eq(tree.at(p).conclusion, first_shape)]
        rest = [p for p in paths if p not in match]
        if match and rest:
            fresh_m = mgen()
            for p in match:
                tree = replace_at(tree, p, replace(tree.at(p), marker=fresh_m))
            firsts.add(fresh_m)
            seconds.add(m)
        elif match:
            firsts.add(m)
        else:
            seconds.add(m)
    return tree, firsts, seconds


def _split_branches_per_marker(n, mgen):
    """The per-marker version of ``kernel._split`` by the branches of a
    case split."""
    p1, p2 = n.premises[1], n.premises[2]
    m1, m2 = set(), set()
    for m in sorted(n.discharges):
        in1 = any(nd.marker == m for _, nd in p1.walk() if nd.is_assumption())
        in2 = any(nd.marker == m for _, nd in p2.walk() if nd.is_assumption())
        if in1 and in2:
            fresh = mgen()
            p2 = map_leaves(p2, lambda leaf, m=m, fresh=fresh:
                            replace(leaf, marker=fresh) if leaf.marker == m
                            else leaf)
            m1.add(m)
            m2.add(fresh)
        elif in2:
            m2.add(m)
        else:
            m1.add(m)
    return (n.premises[0], p1, p2), frozenset(m1), frozenset(m2)


def _hand_built_splits():
    """Case splits with markers in both branches, in one, and in none, and
    temporal eliminations with a marker mixing both shapes."""
    ore = node("or_e", pl("x : r"), assume(pl("x : p | q")),
               node("imp_e", pl("x : r"), assume(pl("x : p -> r"), 1),
                    assume(pl("x : p"), 2)),
               node("imp_e", pl("x : r"), assume(pl("x : q -> r"), 1),
                    node("imp_e", pl("x : q"), assume(pl("x : q -> q"), 3),
                         assume(pl("x : q"), 2))),
               discharges={1, 2, 3, 4})
    ror = node("ror_e", pl("t : false"), assume(pr("x < y \\/ x = y")),
               node("uf2", pl("t : false"), node(
                   "rimp_e", E, assume(pr("!(x < y)"), 5), assume(pr("x < y"), 1))),
               node("uf2", pl("t : false"), node(
                   "rimp_e", E, assume(pr("!(x = y)"), 5), assume(pr("x = y"), 1))),
               discharges={1, 5, 6})
    minor = node("imp_e", pl("x : q"),
                 node("imp_e", pl("x : p -> q"), assume(pl("y : p -> p -> q"), 1),
                      assume(pl("y : p"), 1)),
                 node("g_e", pl("y : p"), assume(pl("x : G p"), 2),
                      assume(pr("x < y"), 1)))
    mixed = minor.premises[0]
    splits = [ore, ror]
    shapes = [(minor, {1, 2, 3}, pl("y : p")), (mixed, {1, 4}, pl("y : p")),
              (minor, {1}, pr("x < y")), (minor, {1, 2}, pl("y : q"))]
    return splits, shapes


def _random_splits(count):
    """Pairs of generated trees whose leaf markers are folded onto 1..5, so
    markers are shared between branches and mix shapes."""
    import random
    from helpers import DerivationGen
    rng = random.Random(41)
    gen = DerivationGen(rng)
    fold5 = lambda leaf: replace(leaf, marker=leaf.marker % 5 + 1) \
        if leaf.marker is not None else leaf
    splits, shapes = [], []
    for _ in range(count):
        p1 = map_leaves(gen.derivation(), fold5)
        p2 = map_leaves(gen.derivation(), fold5)
        discharges = set(rng.sample(range(1, 8), rng.randint(1, 6)))
        splits.append(node("or_e", p1.conclusion, assume(pl("x : p | q")),
                           p1, p2, discharges=discharges))
        leaves = [n for n in p1.nodes() if n.is_assumption()]
        shapes.append((p1, discharges, rng.choice(leaves).conclusion))
    return splits, shapes


def _leaves_of(p, markers):
    """The leaves of ``p`` that carry one of ``markers``."""
    return [t for t in p.nodes() if t.is_assumption() and t.marker in markers]


def _moved(p, held, moves):
    """``p`` with each leaf of ``held`` that ``kernel._split`` moved given
    the marker it noted under the leaf's place."""
    new = {id(held[i][j]): m for (i, j), m in moves.items()}
    return map_leaves(p, lambda leaf: replace(leaf, marker=new[id(leaf)])
                      if id(leaf) in new else leaf)


def test_case_splits_match_the_per_marker_versions():
    from tenseproof.kernel import _split

    def by_branch(n, mgen):
        held, moves = [_leaves_of(p, n.discharges) for p in n.premises], {}
        m2, m1 = _split(n.discharges, [
            ((i, j), t.marker, i == 2) for i in (1, 2)
            for j, t in enumerate(held[i])], mgen, moves)
        p0, p1, p2 = n.premises
        return (p0, p1, _moved(p2, held, moves)), m1, m2

    def by_shape(p1, markers, shape, mgen):
        held, moves = [_leaves_of(p1, markers)], {}
        firsts, seconds = _split(markers, [
            ((0, j), t.marker, core_eq(t.conclusion, shape))
            for j, t in enumerate(held[0])], mgen, moves)
        return _moved(p1, held, moves), firsts, seconds

    hand_splits, hand_shapes = _hand_built_splits()
    rand_splits, rand_shapes = _random_splits(150)
    renamed = 0
    for n in hand_splits + rand_splits:
        g1, g2 = MarkerGen((100,)), MarkerGen((100,))
        assert by_branch(n, g1) == _split_branches_per_marker(n, g2)
        assert g1.next == g2.next
        renamed += g1.next > 101
    for p1, markers, shape in hand_shapes + rand_shapes:
        g1, g2 = MarkerGen((100,)), MarkerGen((100,))
        assert (by_shape(p1, markers, shape, g1)
                == _split_shapes_per_marker(p1, markers, shape, g2))
        assert g1.next == g2.next
        renamed += g1.next > 101
    assert renamed > 50
    # markers 1 and 2 are in both branches, 3 in the second, 4 in neither
    assert by_branch(hand_splits[0], MarkerGen((100,)))[1:] \
        == ({1, 2, 4}, {101, 102, 3})
    # marker 1 has leaves of both shapes, 2 of the second, 3 none
    p1, markers, shape = hand_shapes[0]
    assert by_shape(p1, markers, shape, MarkerGen((100,)))[1:] \
        == ({101}, {1, 2, 3})


def _or_chain(k, shared=False):
    """``k`` case splits, each nested in the second branch of the next, with
    a marker of its own in each branch, or one marker in both if
    ``shared``."""
    pa = pl("x : p")
    d = assume(pa, 1)
    for i in range(k):
        m1 = 2 * i + 2
        m2 = m1 if shared else m1 + 1
        minor = node("imp_e", pa, node("imp_i", pl("x : p -> p"), d),
                     assume(pa, m2))
        d = node("or_e", pa, assume(pl("x : p | p")), assume(pa, m1), minor,
                 discharges={m1, m2})
    return d


def _f_chain(k, shared=False, one=False):
    """``k`` F-eliminations, each with the one below as its minor premise,
    whose two leaves carry one marker if ``shared``; every level opens at
    its own label ``yi``, or at one label ``y`` if ``one``."""
    fa = pl("x : F p")
    markers = iter(range(1, 2 * k + 3))
    y = (lambda i: "y") if one else (lambda i: f"y{i}")

    def intro(i):
        ma, mb = next(markers), next(markers)
        mb = ma if shared else mb
        return node("f_i", fa, assume(pl(f"{y(i)} : p"), ma),
                    assume(pr(f"x < {y(i)}"), mb)), {ma, mb}

    d, opened = intro(0)
    for i in range(1, k + 1):
        major, new_open = intro(i)
        d = node("f_e", fa, major, d, discharges=opened, fresh=y(i - 1))
        opened = new_open
    return d


def _ex_chain(k):
    """``k`` existential eliminations, each with the one below as its minor
    premise, discharging the leaf ``x < yi`` the level below introduced its
    ``exists`` from and taking ``yi`` as its fresh label: the levels are
    label renamings of one another."""
    ex = pr("exists u. x < u")
    d = node("ex_i", ex, assume(pr("x < y0"), 1))
    for i in range(1, k + 1):
        major = node("ex_i", ex, assume(pr(f"x < y{i}"), i + 1))
        d = node("ex_e", ex, major, d, discharges={i}, fresh=f"y{i - 1}")
    return d


def test_expansion_builds_each_template_once(monkeypatch):
    # ``expand_derived`` runs each expander once, over the expanded
    # premises, and builds no template over stand-ins
    from tenseproof.corpus import corpus_entries

    def refused(*args):
        raise AssertionError("a template over stand-ins")
    monkeypatch.setattr(kernel, "_standin_template", refused)
    trees = [e.derivation for e in corpus_entries()]
    trees += [tree() for _, tree in DERIVED_TREES + CASE_TREES]
    trees += [chain(k, shared) for chain in (_or_chain, _f_chain)
              for k in (1, 5) for shared in (False, True)]
    for d in trees:
        expanded = expand_derived(d)
        assert expanded.conclusion == d.conclusion
        assert all(RULES[t.rule].kind != "derived" for t in expanded.nodes())


def test_expansion_uses_the_leaves_the_fold_indexed(monkeypatch):
    from tenseproof.derivation import Derivation
    d = _or_chain(500)
    calls = []
    nodes = Derivation.nodes
    monkeypatch.setattr(Derivation, "nodes",
                        lambda self: calls.append(1) or nodes(self))
    assert expand_derived(d).conclusion == d.conclusion
    assert len(calls) <= 1


@pytest.mark.parametrize("chain", [lambda: _or_chain(500), lambda: _f_chain(300),
                                   lambda: _or_chain(100, shared=True),
                                   lambda: _f_chain(100, shared=True)],
                         ids=["or_e-500", "f_e-300", "or_e-shared-100",
                              "f_e-shared-100"])
def test_deep_case_splits_expand(chain):
    d = chain()
    report = check(d, KL)
    assert report.ok
    expanded = expand_derived(d)
    assert expanded.conclusion == d.conclusion
    expanded_report = check(expanded, KL)
    assert expanded_report.ok
    assert expanded_report.open == report.open


# ---------------------------------------------------------------------------
# A derived node's clean verdict, kept on the node and by label renaming

def _by_templates(d, profile=KL):
    """``check`` with every derived node checked through its own template,
    reading and writing neither the ``_clean`` slot nor the renaming keys:
    the reference path."""
    def template(self, k, n):
        held = kernel._held(self.ix, k)
        return self._expand(k, n, [[self.ix.nodes[j] for j in h] for h in held])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel._Checker, "_template", template)
        return check(d, profile)


def _report(r) -> tuple:
    return r.ok, r.is_theorem, r.violations


def _fresh(d):
    """A copy of ``d`` that shares no node object with it, so no memo slot
    of the copy is set."""
    return from_json(to_json(d))


def _derived(d) -> list:
    return [t for t in d.nodes() if RULES[t.rule].kind == "derived"]


def test_schemas_agree_with_the_templates():
    import random
    rng = random.Random(1)
    bases = derived_bases()
    mutants = [m for m in (derived_mutant(rng, rng.choice(bases))
                           for _ in range(500)) if m is not None]
    accepted = 0
    for d in bases + mutants:
        report = check(d, KL)
        assert _report(report) == _report(_by_templates(d)), d
        accepted += report.ok
        # a tree that checks has every derived node's verdict on the node
        assert not report.ok or all(t._clean for t in _derived(d))
    assert len(mutants) > 300 and 30 < accepted < len(mutants)


def test_a_rejected_schema_is_not_kept():
    bad = node("and_e2", pl("x : p"), assume(pl("x : p & q")))
    first = check(bad, KL)
    assert not first.ok and not hasattr(bad, "_clean")
    assert _report(check(bad, KL)) == _report(first)
    assert not hasattr(bad, "_clean")
    good = replace(bad, rule="and_e1")
    assert check(good, KL).ok and good._clean


def test_a_clean_verdict_holds_only_inside_its_subtree():
    # a case split whose verdict is kept on the node, then put where a leaf
    # of a marker it discharges lies outside it
    pa = pl("x : p")
    split = node("or_e", pa, assume(pl("x : p | p")), assume(pa, 1),
                 assume(pa, 2), discharges={1, 2})
    assert check(split, KL).ok and split._clean
    outer = node("and_i", pl("x : p & p"), split, assume(pa, 1))
    report = check(outer, KL)
    assert _report(report) == _report(_by_templates(outer))
    assert [(v.kind, v.path) for v in report.violations] \
        == [("BadDischarge", (0,))]


def test_a_derived_node_costs_few_core_validations(monkeypatch):
    gen = _gen()
    calls = {"core": 0, "_standin_template": 0}
    for owner, name in ((kernel._Checker, "core"), (kernel, "_standin_template")):
        def counted(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    families = [lambda k: gen.and_detours(k, "p", "q", "x"),
                lambda k: gen.f_detours(k, "p", "x"),
                lambda k: gen.or_detours(k, "p", "x")]
    for family in families:
        expanded = []
        for k in (50, 100):
            d = family(k)
            derived = len(_derived(d))
            cores = sum(RULES[t.rule].kind != "derived" and not t.is_assumption()
                        for t in d.nodes())
            calls.update(dict.fromkeys(calls, 0))
            assert check(d, KL).ok
            # every core node once, and at most 3 more per derived node
            assert calls["core"] - cores <= 3 * derived
            expanded.append(calls["_standin_template"])
        # one template per rule, however long the chain
        assert expanded[0] == expanded[1] <= 4


# ---------------------------------------------------------------------------
# Renaming keys: a node up to one-to-one label renamings

def _keys(d, profile=KL) -> tuple:
    """The report of ``check`` on a fresh copy of ``d``, and the renaming
    key of each derived node it looked up."""
    keys = []
    key = kernel._Checker._key
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel._Checker, "_key", lambda self, n, held: keys.append(
            key(self, n, held)) or keys[-1])
        return check(_fresh(d), profile), keys


def test_the_memo_agrees_with_schema():
    import random
    from tenseproof.corpus import corpus_entries
    rng = random.Random(2)
    bases = derived_bases()
    mutants = []
    while len(mutants) < 320:
        mutant = derived_mutant(rng, rng.choice(bases))
        if mutant is not None:
            mutants.append(mutant)
    trees = [(e.derivation, e.profile) for e in corpus_entries()]
    trees += [(tree(), KL) for _, tree in DERIVED_TREES]
    trees += [(chain(k, shared), KL) for chain in (_or_chain, _f_chain)
              for k in (5, 60) for shared in (False, True)]
    trees += [(_f_chain(k, one=True), KL) for k in (5, 60)]
    trees += [(_ex_chain(k), KL) for k in (5, 60)]
    trees += [(m, KL) for m in mutants]
    for d, profile in trees:
        reference = _report(_by_templates(d, profile))
        # the second check reads the verdicts the first kept on the nodes
        assert _report(check(d, profile)) == reference, d
        assert _report(check(d, profile)) == reference, d


def test_schema_runs_once_per_shape_of_a_check(monkeypatch):
    # the levels of a chain are label renamings of one another, so a fresh
    # copy takes one template per rule however long the chain, also where
    # every level reuses one fresh label and under binders; a second check
    # of the same object finds every verdict on its node
    gen = _gen()
    calls = []
    expand = kernel._Checker._expand
    monkeypatch.setattr(kernel._Checker, "_expand",
                        lambda self, *args: calls.append(1) or expand(self, *args))
    counts = []
    for d in (gen.f_detours(160, "p", "x"), gen.and_detours(160, "p", "q", "x"),
              gen.or_detours(160, "p", "x"), _f_chain(160, one=True),
              _ex_chain(50), _ex_chain(100)):
        for copy in (_fresh(d), _fresh(d)):
            calls.clear()
            assert check(copy, KL).ok
            counts.append(len(calls))
        calls.clear()
        assert check(copy, KL).ok and not calls
    assert counts == [2] * 12


def test_a_renaming_of_a_clean_node_still_tests_its_eigenlabel():
    # two ``ex_e`` nodes with one key; the second one's minor premise keeps
    # open a leaf ``y = y`` on its fresh label ``y``, which the key leaves out
    ex = pr("exists u. x < u")

    def elim(m, extra):
        minor = node("ex_i", ex, assume(pr("x < y"), m))
        if extra:
            minor = node("rand_e1", ex, node(
                "rand_i", pr("(exists u. x < u) /\\ y = y"), minor,
                assume(pr("y = y"))))
        major = node("ex_i", ex, assume(pr("x < z"), m + 10))
        return node("ex_e", ex, major, minor, discharges={m}, fresh="y")

    d = node("rand_i", pr("(exists u. x < u) /\\ (exists u. x < u)"),
             elim(1, False), elim(2, True))
    report = check(d, KL)
    assert _report(report) == _report(_by_templates(d))
    assert [(v.kind, v.path) for v in report.violations] \
        == [("FreshnessViolation", (1,))]


@functools.cache
def _renaming_trees() -> list:
    """``derived_bases`` and 60 seeded ``derived_mutant`` trees."""
    import random
    rng = random.Random(4)
    bases = derived_bases()
    mutants = (derived_mutant(rng, rng.choice(bases)) for _ in range(60))
    return bases + [m for m in mutants if m is not None]


@seed(20)
@settings(max_examples=40, database=None, deadline=None)
@given(st.data())
def test_one_to_one_renamings_keep_keys_and_reports(data):
    d = data.draw(st.sampled_from(_renaming_trees()))
    labels = sorted(all_labels(d))
    names = data.draw(st.permutations(labels + [f"a{i}" for i in labels]))
    e = relabel(d, dict(zip(labels, names)), lambda label: None)
    (report, keys), (renamed, renamed_keys) = _keys(d), _keys(e)
    assert renamed_keys == keys
    assert (renamed.ok, renamed.is_theorem) == (report.ok, report.is_theorem)
    assert [(v.kind, v.path) for v in renamed.violations] \
        == [(v.kind, v.path) for v in report.violations]
    assert _report(renamed) == _report(_by_templates(e))
    assert _report(check(e, KL)) == _report(renamed)


@seed(21)
@settings(max_examples=40, database=None, deadline=None)
@given(st.data())
def test_merging_renamings_check_as_without_the_memo(data):
    # merge the fresh label of a derived node, or any label, with another
    # label, in the whole tree or in one subtree, so that some nodes of the
    # tree are merging renamings of others
    d = data.draw(st.sampled_from(_renaming_trees()))
    path, sub = data.draw(st.sampled_from(list(d.walk())))
    labels = sorted(all_labels(sub))
    freshes = sorted({t.fresh for t in sub.nodes() if t.fresh is not None})
    old = data.draw(st.sampled_from(freshes or labels or ["x"]))
    new = data.draw(st.sampled_from(labels + ["x"]))
    e = replace_at(d, path, relabel(sub, {old: new}, lambda label: None))
    assert _report(check(e, KL)) == _report(_by_templates(e))
    assert _report(check(_fresh(e), KL)) == _report(_by_templates(e))


def test_case_split_expansion_grows_linearly(monkeypatch):
    # a split renames the leaves it must where they lie, not by mapping the
    # whole branch: nodes built and visited grow with the chain, not its
    # square
    from tenseproof import derivation
    visits = [0]
    fold, premises = derivation.fold, derivation.Index.premises

    def counted(root, combine, visit=derivation._own_premises):
        def seen(t):
            visits[0] += 1
            return visit(t)
        return fold(root, combine, seen)

    def built(self, k):
        visits[0] += 1
        return premises(self, k)
    monkeypatch.setattr(derivation, "fold", counted)
    monkeypatch.setattr(derivation.Index, "premises", built)
    for chain in (_or_chain, _f_chain):
        counts = []
        for k in (100, 200, 400):
            visits[0] = 0
            expand_derived(chain(k, shared=True))
            counts.append(visits[0])
        assert counts[1] <= 2.3 * counts[0] and counts[2] <= 2.3 * counts[1]


def test_json_round_trip():
    d = g1_tree()
    assert from_json(to_json(d)) == d


def test_json_axiom_without_conclusion():
    d = from_json({"rule": "conn"})
    assert core_eq(d.conclusion, AXIOMS["conn"])


def test_json_rejects_unknown_rule():
    with pytest.raises(ValueError):
        from_json({"rule": "cut", "conclusion": "x : p"})



def _leaf(text, **fields):
    return {"rule": "assume", "conclusion": text, **fields}


# faults a derivation file can hold, each with the one violation it gets:
# (file, kind, path, message)
FILE_FAULTS = [
    ({"rule": "imp_e", "conclusion": "x : q",
      "premises": [_leaf("x : p -> q")]},
     "StructuralError", (), "imp_e takes 2 premises, got 1"),
    ({"rule": "imp_i", "conclusion": "x : p -> p", "discharges": [1],
      "premises": [_leaf("x : p", marker=1, premises=[_leaf("x : p")])]},
     "StructuralError", (0,), "assumption with premises"),
    ({"rule": "mon", "conclusion": "y = y",
      "premises": [_leaf("x : p"), _leaf("x = y")]},
     "PatternMismatch", (), "mon preserves the formula kind"),
    ({"rule": "mon", "conclusion": "y : p", "position": 2,
      "premises": [_leaf("x : p"), _leaf("x = y")]},
     "PatternMismatch", (), "mon at position 2 does not yield the conclusion"),
    # a designated position on a major premise that is not atomic
    ({"rule": "mon", "conclusion": "y : G p", "position": 1,
      "premises": [_leaf("x : G p"), _leaf("x = y")]},
     "PatternMismatch", (), "mon at position 1 does not yield the conclusion"),
]


@pytest.mark.parametrize("obj, kind, path, message", FILE_FAULTS)
def test_a_fault_in_a_file_is_one_violation(obj, kind, path, message):
    report = check(from_json(obj), KL)
    assert [(v.kind, v.path, v.message) for v in report.violations] == [
        (kind, path, message)]


def test_an_unknown_rule_built_through_the_library_is_one_violation():
    # ``from_json`` rejects an unknown rule; a node built directly reaches
    # the checker with it
    report = check(Derivation("bogus", pl("x : p")), KL)
    assert list(map(str, report.violations)) == [
        "StructuralError at root: unknown rule 'bogus'"]


def test_positional_replacement_needs_an_atomic_formula():
    assert kernel.replace_position(pl("x : p"), 1, "y") == pl("y : p")
    for core in (pr("x < y => x = y"), pr("forall v. x < v")):
        with pytest.raises(ValueError, match="atomic formula"):
            kernel.replace_position(core, 1, "y")


if __name__ == "__main__":
    # after a deliberate change to an expansion, rewrite the pinned texts:
    # PYTHONPATH=src python tests/test_kernel.py
    PINNED_EXPANSIONS.parent.mkdir(exist_ok=True)
    PINNED_EXPANSIONS.write_text(json.dumps(_expansions(), indent=1) + "\n")
