import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    derivations,
    multipolys,
    rand_multipoly_in_prefix,
    rand_triangular,
    rand_unipoly,
    reference_parse_derivation,
    reference_parse_endo,
    reference_parse_poly,
)
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
    textio,
)
from shamsuddin.textio import MAX_DEPTH, MAX_DIGITS, MAX_TERM_PAIRS

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


@pytest.mark.parametrize(
    "parse, template, pos",
    [
        (lambda t: parse_poly(t, 1), "x + {}", 4),
        (lambda t: parse_poly(t, 1), "1/{}", 2),
        (lambda t: parse_poly(t, 1), "x^{}", 2),
        (lambda t: parse_poly(t, 1), "x*y{}", 2),
        (parse_derivation, "y{}: a=x, b=1", 0),
        (lambda t: parse_endo(t, 1), "x -> x ; y{} -> y1", 9),
    ],
    ids=["number", "denominator", "exponent", "poly_index", "deriv_index", "endo_index"],
)
def test_parse_digit_limit(parse, template, pos):
    with pytest.raises(ParseError) as info:
        parse(template.format("1" * (MAX_DIGITS + 1)))
    assert info.value.pos == pos and f"exceed the parser limit {MAX_DIGITS}" in str(info.value)
    # one digit less passes the digit check (and may fail a later one)
    try:
        parse(template.format("1" * MAX_DIGITS))
    except (ParseError, SemanticError) as exc:
        assert "digits" not in str(exc)


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


def _mutate(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(3)
        pos = rng.randrange(max(1, len(chars)))
        if op == 0 and chars:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, rng.choice(_MUTATION_CHARS))
        elif chars:
            chars[pos] = rng.choice(_MUTATION_CHARS)
    return "".join(chars)


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
    text = _mutate(rng, base)
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


# -- the term-level parser against the MultiPoly-arithmetic reference ----------

_ORACLE_BASES = [
    "x^2*y1 + 1/2",
    "y1: a=x, b=1 ; y2: a=x+1, b=0",
    "x -> x ; y1 -> 2*y1 - x",
    "(x+1)^2 - x^2",
    "-1*y1 - 2*x - 2",
    "2*(y1 - x)^3*x^2 - 1/3*(x+y1)*(x-y1) + 0^0",
    "1/2^3*x*(y1+1)^2*y2 - (x - 1)*(x + 1) + x^2",
    "y1: a=(x+1)^2, b=x^3 - 1 ; y2: a=x^2+2*x+1, b=(x-1)*(x+1)",
    "y1: a=1, b=0 ; y2: a=2, b=3/4*y1^2 - (y1 + x)*x",
    "x -> x + 1 ; y1 -> (y1 + x)^2 - y1^2 ; y2 -> -3*y2 - 2/5*x^0",
    # terms cancel part-way through these products, so the term order
    # depends on the order of every multiplication
    "(x + 1 - x^2)^5 - y1",
    "2*(x*y1 + y1 - x^2*y1 - x^2)^3*x*(x - 1 + x^2)*(y1 - x)",
]


def _shape(value):
    """Value with the term order of every MultiPoly in it."""
    if isinstance(value, MultiPoly):
        return value, list(value.terms().items())
    if isinstance(value, PolyEndo):
        return [_shape(p) for p in (value.image_of_x, *value.images_of_y)]
    if isinstance(value, TriangularDerivation):
        return value.a, [_shape(b) for b in value.b]
    return value


def _outcome(parse, *args):
    try:
        return "value", _shape(parse(*args))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


@st.composite
def _parser_inputs(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    source = draw(st.sampled_from(["poly", "derivation", "triangular", "endo", "base", "mutated"]))
    if source == "poly":
        return format_poly(draw(multipolys(max_arity=2)))
    if source == "derivation":
        return format_derivation(draw(derivations()))
    if source == "triangular":
        return format_derivation(rand_triangular(rng, constant_a=rng.random() < 0.5))
    if source == "endo":
        images = [rand_multipoly_in_prefix(rng, 2, 2, max_y_deg=2) for _ in range(3)]
        return format_endo(PolyEndo(images[0], tuple(images[1:])))
    base = rng.choice(_ORACLE_BASES)
    return base if source == "base" else _mutate(rng, base)


# The reference multiplies every factor as a MultiPoly, so a mutated exponent
# such as (x+1)^205 makes one example slow; what is under test is the outcome.
@settings(max_examples=400, deadline=None)
@given(_parser_inputs())
def test_parser_matches_reference(text):
    """Same value and term order, or the same exception type, message and
    position, as the parser that built every term by MultiPoly arithmetic.
    The reference has no work budget, so inputs over it are not compared."""
    for parse, reference, args in (
        (parse_poly, reference_parse_poly, (text, 2)),
        (parse_derivation, reference_parse_derivation, (text,)),
        (parse_endo, reference_parse_endo, (text, 2)),
    ):
        got = _outcome(parse, *args)
        assume(not (got[0] is SemanticError and "term pairs" in got[1]))
        assert got == _outcome(reference, *args)


def _count_calls(monkeypatch, cls, names):
    calls = []
    for name in names:
        original = getattr(cls, name)
        monkeypatch.setattr(
            cls, name, lambda *args, name=name, original=original: calls.append(name) or original(*args)
        )
    return calls


_POLY_ARITHMETIC = ("__mul__", "__rmul__", "__pow__", "__add__", "__radd__", "__sub__", "__neg__")


def test_flat_input_needs_no_polynomial_arithmetic(monkeypatch):
    rng = random.Random(5)
    flat = format_poly(
        MultiPoly(
            1,
            [((rng.randint(0, 60), rng.randint(0, 3)), Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(200)],
        )
    )
    a = rand_unipoly(rng, 3, allow_zero=False)
    deriv = " ; ".join(
        f"y{j}: a={a}, b={rand_unipoly(rng, 60, allow_zero=False) * UniPoly.constant(Fraction(1, 7))}"
        for j in range(1, 7)
    )
    expected = (reference_parse_poly(flat, 1), reference_parse_derivation(deriv))
    calls = _count_calls(monkeypatch, MultiPoly, _POLY_ARITHMETIC)
    assert (parse_poly(flat, 1), parse_derivation(deriv)) == expected
    assert calls == []


def test_each_derivation_entry_is_tokenized_once(monkeypatch):
    made = []

    class Counted(textio._Tokens):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(textio, "_Tokens", Counted)
    parse_derivation("y1: a=x, b=1 ; y2: a=x, b=x^2\ny3: a=1, b=y1*y2")
    assert len(made) == 3


# (x+y1+1)^k has (k+1)(k+2)/2 terms: squaring the 32nd power (561 terms) is
# the first step over the budget, and so is multiplying two 40th powers
@pytest.mark.parametrize(
    "text, products",
    [("(y1+x+1)^256", 5), ("((x+y1+1)^16)^16", 5), ("(x+y1+1)^40*(x+y1+1)^40", 12)],
)
def test_parser_work_budget_rejects_early(monkeypatch, text, products):
    calls = _count_calls(monkeypatch, MultiPoly, ("__mul__",))
    with pytest.raises(SemanticError, match=f"parser limit {MAX_TERM_PAIRS} .*at position"):
        parse_poly(text, 2)
    assert len(calls) == products


def test_parser_work_budget_keeps_large_exponents():
    assert parse_poly("(x+1)^256", 2) == (MultiPoly.x(2) + 1) ** 256
    assert parse_poly("2^256", 2) == MultiPoly.const(2, 2**256)
    assert parse_poly("x^256*y1^256", 2).terms() == {(256, 256, 0): Fraction(1)}
