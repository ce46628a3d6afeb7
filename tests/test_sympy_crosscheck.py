"""Polynomial arithmetic and matrix rank against sympy (a test-only dependency).

sympy's results are read back term by term into our own coefficient types and
compared as polynomials, never as strings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_rank
from shamsuddin import MultiPoly, QMatrix, UniPoly

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x y1 y2")
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
offsets = st.fractions(min_value=-7, max_value=7, max_denominator=9)
unis = st.dictionaries(st.integers(0, 30), coeffs, max_size=5).map(UniPoly)
multis = st.builds(
    MultiPoly,
    st.just(2),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coeffs), max_size=5),
)



@st.composite
def rational_matrices(draw):
    """Small matrices with many zero entries, and sometimes a zero row and a
    zero column."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.just(Fraction(0)) | coeffs
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero_row = draw(st.none() | st.integers(0, rows - 1))
    zero_col = draw(st.none() | st.integers(0, cols - 1))
    for i, row in enumerate(m):
        for j in range(cols):
            if i == zero_row or j == zero_col:
                row[j] = Fraction(0)
    return m


def _q(value: Fraction):
    return sympy.Rational(value.numerator, value.denominator)


def _frac(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def to_sympy_uni(p: UniPoly):
    return sympy.Poly.from_dict({(d,): _q(v) for d, v in p.items()}, GENS[0], domain=sympy.QQ)


def from_sympy_uni(poly) -> UniPoly:
    return UniPoly({m[0]: _frac(c) for m, c in poly.terms()})


def to_sympy_multi(f: MultiPoly):
    return sympy.Poly.from_dict({e: _q(v) for e, v in f.terms().items()}, *GENS, domain=sympy.QQ)


def from_sympy_multi(poly) -> MultiPoly:
    return MultiPoly(2, [(m, _frac(c)) for m, c in poly.terms()])


@settings(max_examples=40, deadline=None)
@given(unis, offsets)
def test_shift_matches_sympy(p, c):
    assert p.shift(c) == from_sympy_uni(to_sympy_uni(p).shift(_q(c)))


@settings(max_examples=40, deadline=None)
@given(unis, unis, st.integers(0, 3))
def test_unipoly_product_and_power_match_sympy(p, q, e):
    assert p * q == from_sympy_uni(to_sympy_uni(p) * to_sympy_uni(q))
    assert p**e == from_sympy_uni(to_sympy_uni(p) ** e)


@settings(max_examples=40, deadline=None)
@given(multis, multis, st.integers(0, 3))
def test_multipoly_product_and_power_match_sympy(f, g, e):
    assert f * g == from_sympy_multi(to_sympy_multi(f) * to_sympy_multi(g))
    assert f**e == from_sympy_multi(to_sympy_multi(f) ** e)


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_rank_and_nullspace_match_sympy(rows):
    cols = len(rows[0])
    ref = sympy.Matrix([[_q(v) for v in row] for row in rows])
    kernel = QMatrix(rows, cols=cols).nullspace()
    assert matrix_rank(QMatrix(rows, cols=cols)) == ref.rank()
    assert len(kernel) == len(ref.nullspace()) == cols - ref.rank()
    for v in kernel:
        assert ref * sympy.Matrix([_q(e) for e in v]) == sympy.zeros(len(rows), 1)
    if kernel:
        assert sympy.Matrix([[_q(e) for e in v] for v in kernel]).rank() == len(kernel)
