import random

import pytest

from helpers import random_entity
from tenseproof.parser import (
    ParseError, parse, parse_formula, parse_lwff, parse_rwff, render,
)
from tenseproof.rules import AXIOMS
from tenseproof.syntax import (
    Atom, Eq, Forall, G, Implies, Less, Lwff, Prec, RNot, core_eq, expand,
)


def test_lwff_grammar():
    got = parse("lwff", "x : G (p -> q)")
    assert got == Lwff("x", G(Implies(Atom("p"), Atom("q"))))


def test_irreflexivity_template():
    got = parse("rwff", "forall x. !(x < x)")
    assert got == Forall("x", RNot(Less("x", "x")))
    assert core_eq(got, AXIOMS["irrefl_lt"])


def test_prefix_binds_tighter_than_arrow():
    got = parse_lwff("x : G p -> q")
    assert got == Lwff("x", Implies(G(Atom("p")), Atom("q")))


def test_connective_precedence():
    assert parse_formula("a & b | c -> d") == \
        parse_formula("((a & b) | c) -> d")
    assert parse_rwff("x < y /\\ x = y \\/ y < x => empty") == \
        parse_rwff("(((x < y) /\\ (x = y)) \\/ (y < x)) => empty")


def test_right_associativity():
    assert parse_formula("a -> b -> c") == parse_formula("a -> (b -> c)")
    assert parse_formula("a | b | c") == parse_formula("a | (b | c)")
    assert parse_rwff("x < y \\/ x = y \\/ y < x") == \
        parse_rwff("x < y \\/ (x = y \\/ y < x)")


def test_quantifier_scopes_right():
    got = parse_rwff("forall x. x < y \\/ y < x")
    assert isinstance(got, Forall)


def test_immediately_precedes():
    assert parse_rwff("s <. t") == Prec("s", "t")


def test_round_trip_simple():
    assert render(parse_lwff("x : F p")) == "x : F p"


def test_render_rejects_what_is_no_formula():
    with pytest.raises(TypeError, match="cannot render 3"):
        render(3)


def test_render_of_expansion():
    got = render(expand(parse_formula("F p")))
    assert got == "G (p -> false) -> false"
    assert parse_formula(got) == expand(parse_formula("F p"))


def test_render_connectedness_template():
    assert render(AXIOMS["conn"]) == \
        "forall x. forall y. x < y \\/ x = y \\/ y < x"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> ")
    assert err.value.line == 1
    assert err.value.column >= 5
    with pytest.raises(ParseError):
        parse_rwff("x <")
    with pytest.raises(ParseError):
        parse_lwff("x :")
    with pytest.raises(ParseError):
        parse_formula("(p -> q")


def test_keywords_are_not_labels():
    with pytest.raises(ParseError):
        parse_rwff("forall forall. x < y")
    with pytest.raises(ParseError):
        parse_lwff("empty : p")


def test_any_kind_sniffs():
    assert isinstance(parse("any", "x : p"), Lwff)
    assert parse("any", "x = y") == Eq("x", "y")


def test_an_unknown_parse_kind_is_a_value_error():
    with pytest.raises(ValueError) as err:
        parse("bogus", "x : p")
    assert str(err.value) == "unknown parse kind 'bogus'"


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    for _ in range(400):
        e = random_entity(rng, 6)
        assert parse("any", render(e)) == e


def test_whitespace_runs_cost_their_length():
    # a scan that searched on from each place of trailing whitespace would
    # take several seconds here; what follows a run is read as before
    import time
    run = " \u3000" * 8000
    start = time.perf_counter()
    assert parse("any", "x : p" + run) is parse("any", "x : p")
    assert parse("any", "x" + run + "<" + run + "y") is parse("any", "x < y")
    with pytest.raises(ParseError) as err:
        parse("any", "x : p" + run + "$")
    assert time.perf_counter() - start < 2
    assert (err.value.column, err.value.expected) == (5 + len(run) + 1, "a token")
