import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derivations, multipolys, rand_multipoly_in_prefix
from shamsuddin import (
    Derivation,
    MultiPoly,
    ParseError,
    PolyEndo,
    SemanticError,
    TriangularDerivation,
    UniPoly,
    format_derivation,
    format_endo,
    format_poly,
    parse_derivation,
    parse_endo,
    parse_poly,
)
from shamsuddin.textio import MAX_DEPTH

X = UniPoly.x()
ONE = UniPoly.one()


def test_parse_poly_examples():
    assert parse_poly("0", 2) == MultiPoly.zero(2)
    got = parse_poly("x^2*y1 + 1/2", 2)
    assert got.terms() == {(2, 1, 0): Fraction(1), (0, 0, 0): Fraction(1, 2)}
    assert parse_poly("(x+1)^2 - x^2 - 2*x", 1) == MultiPoly.one(1)


def test_parse_precedence_and_whitespace():
    assert parse_poly("2*x^3", 0) == parse_poly("2 * x ^ 3", 0)
    assert parse_poly("1+2*3", 0) == MultiPoly.const(0, 7)
    assert parse_poly("-x + 1", 1) == -MultiPoly.x(1) + 1
    assert parse_poly("2^3", 0) == MultiPoly.const(0, 8)


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as info:
        parse_poly("x + ", 1)
    assert info.value.pos == 4
    with pytest.raises(ParseError) as info:
        parse_poly("x + y2", 1)
    assert info.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly("1/0", 0)
    with pytest.raises(ParseError):
        parse_poly("x ** 2", 0)
    with pytest.raises(ParseError):
        parse_poly("x^-1", 0)
    with pytest.raises(ParseError):
        parse_poly("", 0)


def test_parse_nesting_depth_limit():
    assert parse_poly("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, 1) == MultiPoly.x(1)
    text = "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(ParseError) as info:
        parse_poly(text, 1)
    assert info.value.pos == MAX_DEPTH
    with pytest.raises(ParseError):
        parse_poly("(" * 3000 + "x" + ")" * 3000, 1)


def test_parse_derivation_examples():
    d = parse_derivation("y1: a=x, b=1")
    assert isinstance(d, Derivation)
    assert len(d.blocks) == 1 and d.blocks[0].a == X

    d = parse_derivation("y1: a=x, b=1 ; y2: a=x, b=x")
    assert isinstance(d, Derivation)
    assert len(d.blocks) == 1 and d.blocks[0].size == 2

    d = parse_derivation("y1: a=1, b=0 ; y2: a=2, b=y1^2")
    assert isinstance(d, TriangularDerivation)
    assert d.b[1] == MultiPoly.y(2, 1) ** 2


def test_parse_derivation_newline_separated():
    d = parse_derivation("y2: a=x, b=x\ny1: a=x, b=1")
    assert isinstance(d, Derivation)
    assert d.coeff_pairs()[0] == (X, ONE)


def test_parse_derivation_errors():
    with pytest.raises(SemanticError):
        parse_derivation("y1: a=x, b=1 ; y3: a=1, b=0")  # gap in indices
    with pytest.raises(SemanticError):
        parse_derivation("y1: a=x, b=1 ; y1: a=1, b=0")  # duplicate
    with pytest.raises(SemanticError):
        parse_derivation("y1: a=y1, b=1")  # a must be univariate
    with pytest.raises(SemanticError):
        parse_derivation("y1: a=1, b=y2 ; y2: a=2, b=0")  # forward dependency
    with pytest.raises(ParseError):
        parse_derivation("y1: a=x b=1")  # missing comma
    with pytest.raises(ParseError):
        parse_derivation("z1: a=x, b=1")


def test_parse_endo_examples():
    rho = parse_endo("x -> x ; y1 -> y1", 1)
    assert rho == PolyEndo.identity(1)
    rho = parse_endo("x -> x ; y1 -> 2*y1", 1)
    assert rho.images_of_y[0] == 2 * MultiPoly.y(1, 1)
    with pytest.raises(SemanticError):
        parse_endo("x -> x", 1)
    with pytest.raises(SemanticError):
        parse_endo("x -> x ; y1 -> y1 ; y1 -> 2*y1", 1)


def test_format_endo_examples():
    assert format_endo(PolyEndo.identity(1)) == "x -> x ; y1 -> y1"
    doubled = PolyEndo(MultiPoly.x(1), (2 * MultiPoly.y(1, 1),))
    assert format_endo(doubled) == "x -> x ; y1 -> 2*y1"


def test_witness_round_trip_is_byte_identical():
    witness = PolyEndo(
        MultiPoly.x(1), (-MultiPoly.y(1, 1) - 2 * MultiPoly.x(1) - 2,)
    )
    text = format_endo(witness)
    assert format_endo(parse_endo(text, 1)) == text


@given(multipolys())
def test_poly_round_trip(p):
    text = format_poly(p)
    assert parse_poly(text, p.arity) == p
    assert format_poly(parse_poly(text, p.arity)) == text


@given(derivations())
def test_derivation_round_trip(d):
    text = format_derivation(d)
    again = parse_derivation(text)
    assert format_derivation(again) == text
    assert again == d


@given(derivations(max_arity=2), st.integers(0, 1000))
def test_endo_round_trip(d, seed):
    rng = random.Random(seed)
    n = d.arity
    images = tuple(rand_multipoly_in_prefix(rng, n, n, max_x_deg=2, max_y_deg=2) for _ in range(n))
    rho = PolyEndo(rand_multipoly_in_prefix(rng, n, n), images)
    text = format_endo(rho)
    assert parse_endo(text, n) == rho
    assert format_endo(parse_endo(text, n)) == text


_MUTATION_CHARS = "xy0123456789+-*/^(), ;:=->\t\nqz"


@settings(max_examples=300)
@given(st.integers(0, 10**9))
def test_fuzzed_inputs_never_crash(seed):
    rng = random.Random(seed)
    base = rng.choice(
        [
            "x^2*y1 + 1/2",
            "y1: a=x, b=1 ; y2: a=x+1, b=0",
            "x -> x ; y1 -> 2*y1 - x",
            "(x+1)^2 - x^2",
            "-1*y1 - 2*x - 2",
        ]
    )
    chars = list(base)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(max(1, len(chars)))
        if op == 0 and chars:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, rng.choice(_MUTATION_CHARS))
        elif chars:
            chars[pos] = rng.choice(_MUTATION_CHARS)
    text = "".join(chars)
    for attempt in (
        lambda: parse_poly(text, 2),
        lambda: parse_derivation(text),
        lambda: parse_endo(text, 2),
    ):
        try:
            attempt()
        except ParseError as exc:
            assert isinstance(exc.pos, int) and 0 <= exc.pos <= len(text)
        except SemanticError:
            pass
