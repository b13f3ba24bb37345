import pytest

from tenseproof.parser import parse_rwff
from tenseproof.rules import (
    AXIOMS, DETOUR_PAIRS, ELIM_RULES, FALSUM_RULES, INTRO_RULES, KL, RULES,
    parse_profile, rule_schema,
)
from tenseproof.syntax import core_eq

# every rule of the deduction system, its derived companions, the
# relational axioms of the extensions, and the next-step rules
LABELED_CORE = {"raa_bot", "imp_i", "imp_e", "g_i", "g_e", "h_i", "h_e"}
RELATIONAL_CORE = {"raa_empty", "rimp_i", "rimp_e", "all_i", "all_e",
                   "refl_eq", "irrefl_lt", "trans_lt", "conn"}
GENERAL = {"mon", "uf1", "uf2"}
EXTENSION_AXIOMS = {"first", "final", "lser", "rser", "dens", "ldiscr", "rdiscr"}
NEXT_STEP = {"x_i", "x_e"}
DERIVED = {"f_i", "f_e", "p_i", "p_e", "or_i1", "or_i2", "or_e",
           "and_i", "and_e1", "and_e2", "not_i", "not_e",
           "ror_i1", "ror_i2", "ror_e", "rand_i", "rand_e1", "rand_e2",
           "rnot_i", "rnot_e", "ex_i", "ex_e"}


def test_registry_covers_every_rule():
    expected = (LABELED_CORE | RELATIONAL_CORE | GENERAL | EXTENSION_AXIOMS
                | NEXT_STEP | DERIVED | {"assume"})
    assert set(RULES) == expected


def test_rule_kinds():
    for rid in LABELED_CORE | GENERAL | NEXT_STEP:
        assert RULES[rid].kind == "core"
    for rid in EXTENSION_AXIOMS | {"refl_eq", "irrefl_lt", "trans_lt", "conn"}:
        assert RULES[rid].kind == "axiom"
    for rid in DERIVED:
        assert RULES[rid].kind == "derived"


def test_connectedness_schema():
    schema = rule_schema("conn")
    assert schema.n_premises == 0
    assert core_eq(schema.axiom_template,
                   parse_rwff("forall x. forall y. x < y \\/ x = y \\/ y < x"))


def test_implication_elimination_schema():
    schema = rule_schema("imp_e")
    assert schema.n_premises == 2
    assert not schema.discharging


def test_first_point_schema():
    schema = rule_schema("first")
    assert schema.n_premises == 0
    assert core_eq(schema.axiom_template, parse_rwff("exists x. forall y. !(y < x)"))
    assert schema.requires == "first"


def test_axiom_templates_are_closed():
    from tenseproof.syntax import labels_of
    for name, template in AXIOMS.items():
        assert labels_of(template) == frozenset(), name


def test_unknown_rule_raises():
    with pytest.raises(KeyError):
        rule_schema("modus_tollens")


def test_profiles():
    assert parse_profile("kl") == KL
    assert parse_profile("kl+first").extras == frozenset({"first"})
    mtl = parse_profile("mtl")
    assert {"mtl", "rser", "rdiscr"} <= mtl.extras
    assert not mtl.finitely_modelable()
    assert parse_profile("kl+ldiscr").finitely_modelable()
    with pytest.raises(ValueError):
        parse_profile("kl+euclidean")


def test_profile_gating():
    assert KL.allows("conn")
    assert KL.allows("imp_e")
    assert not KL.allows("first")
    assert not KL.allows("x_i")
    assert parse_profile("mtl").allows("x_i")
    assert parse_profile("mtl").allows("rdiscr")


def test_detour_pairs_match_rule_families():
    for elim, intro in DETOUR_PAIRS.items():
        assert elim in ELIM_RULES
        assert intro in INTRO_RULES
    assert FALSUM_RULES == {"raa_bot", "raa_empty", "uf1", "uf2"}


def test_fresh_rules_marked():
    for rid in ("g_i", "h_i", "x_i", "all_i", "f_e", "p_e", "ex_e"):
        assert RULES[rid].fresh
    for rid in ("imp_i", "imp_e", "mon", "or_e"):
        assert not RULES[rid].fresh
