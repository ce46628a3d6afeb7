from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import multipolys, rationals, unipolys
from shamsuddin import MultiPoly, NEG_INF, UniPoly

X = UniPoly.x()


def test_shift_examples():
    assert (X**2).shift(0) == X**2
    assert X.shift(1) == X + 1
    # (x-2)^2 + 1 expanded by hand
    assert (X**2 + 1).shift(-2) == X**2 - 4 * X + 5


@given(unipolys(), rationals)
def test_shift_round_trip(b, c):
    assert b.shift(c).shift(-c) == b


@given(unipolys(), rationals, rationals)
def test_shift_is_evaluation_compatible(b, c, point):
    assert b.shift(c)(point) == b(point + c)


def test_integral_examples():
    assert UniPoly.zero().integral() == UniPoly.zero()
    assert UniPoly.one().integral() == X
    assert (3 * X**2 + 2).integral() == X**3 + 2 * X


@given(unipolys())
def test_integral_inverts_derivative(b):
    anti = b.integral()
    assert anti.derivative() == b
    assert anti.coeff(0) == 0


def test_partial_examples():
    p = MultiPoly.x(2) * MultiPoly.y(2, 1)
    assert p.partial(0) == MultiPoly.y(2, 1)
    q = MultiPoly.y(2, 1) ** 2 * MultiPoly.y(2, 2)
    assert q.partial(1) == 2 * MultiPoly.y(2, 1) * MultiPoly.y(2, 2)
    r = MultiPoly.x(2) ** 3 + MultiPoly.y(2, 2)
    assert r.partial(1) == MultiPoly.zero(2)


def test_degree_markers():
    assert UniPoly.zero().degree == NEG_INF
    assert UniPoly.constant(5).degree == 0
    assert (X**3 + X).degree == 3
    assert MultiPoly.zero(2).degree_x == NEG_INF
    assert MultiPoly.zero(2).total_y_degree == NEG_INF


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_rational_addition_against_cross_multiplication(p, q, r, s):
    # independent big-integer oracle for exact rational arithmetic
    assert Fraction(p, q) + Fraction(r, s) == Fraction(p * s + r * q, q * s)


@given(unipolys(), unipolys(), unipolys())
def test_unipoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(unipolys(), unipolys())
def test_product_degree(a, b):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
    else:
        assert (a * b).degree == a.degree + b.degree
        assert (a * b).leading_coeff() == a.leading_coeff() * b.leading_coeff()


@given(unipolys(), st.integers(0, 4))
def test_unipoly_pow(a, e):
    expected = UniPoly.one()
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


@given(unipolys(), st.integers(0, 3))
def test_lift_round_trip(u, arity):
    lifted = u.lift(arity)
    assert lifted.is_univariate_in_x()
    assert lifted.as_unipoly() == u


@given(unipolys())
def test_compose_with_x_is_identity(u):
    assert u.compose(MultiPoly.x(2)) == u.lift(2)


@given(unipolys(max_deg=3), unipolys(max_deg=2), rationals)
def test_compose_matches_evaluation(u, inner, point):
    composed = u.compose(inner.lift(0))
    assert composed.as_unipoly()(point) == u(inner(point))


@given(multipolys(arity=2), multipolys(arity=2))
def test_multipoly_ring_axioms(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == MultiPoly.zero(2)


@given(multipolys(arity=2))
def test_substitute_identity(f):
    gens = [MultiPoly.variable(2, v) for v in range(3)]
    assert f.substitute(gens) == f


@given(multipolys(arity=2), multipolys(arity=2))
def test_substitution_is_a_ring_map(f, g):
    images = [MultiPoly.x(2) + 1, MultiPoly.y(2, 2), MultiPoly.y(2, 1) * MultiPoly.x(2)]
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


@given(
    multipolys(arity=2, max_deg=6, max_terms=10),
    st.integers(0, 2).flatmap(
        lambda m: st.lists(multipolys(arity=m, max_deg=2, max_terms=3), min_size=3, max_size=3)
    ),
)
def test_substitute_equals_termwise_pow(f, images):
    # substitute builds each power from the highest one it already holds;
    # the oracle raises every image to every exponent from scratch
    expected = MultiPoly.zero(images[0].arity)
    for exps, v in f.terms().items():
        term = MultiPoly.const(images[0].arity, v)
        for image, e in zip(images, exps):
            term = term * image**e
        expected = expected + term
    assert f.substitute(images) == expected


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiPoly.x(1) + MultiPoly.x(2)
    with pytest.raises(ValueError):
        MultiPoly.x(1) * MultiPoly.x(2)


def test_remap_y():
    p = MultiPoly.y(2, 1) * MultiPoly.x(2) + MultiPoly.y(2, 2)
    q = p.remap_y(3, {1: 3, 2: 1})
    assert q == MultiPoly.y(3, 3) * MultiPoly.x(3) + MultiPoly.y(3, 1)


def test_zero_coefficients_never_stored():
    p = UniPoly({3: Fraction(1, 2), 1: 0})
    assert p.items() == [(3, Fraction(1, 2))]
    q = MultiPoly(1, {(0, 1): 1}) + MultiPoly(1, {(0, 1): -1})
    assert q.is_zero and not q.terms()
