import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    basic_nonneg_kernel,
    constant_poly,
    exhaustive_nonneg_kernel,
    fm_nonneg_kernel_oracle,
    fraction_rref_rank,
    matrix_inverse,
    matrix_rank,
    q_matrices,
    rand_unipoly,
    rationals,
    rref_rows_oracle,
    small_ints,
)
from shamsuddin import QMatrix, UniPoly, linalg, nat_dependence_witness, nonneg_kernel_witness, rref_rows


def test_solve_affine_examples():
    space = QMatrix.identity(2).solve_affine([1, 2])
    assert space.particular == (1, 2) and space.basis == ()

    space = QMatrix([[1, 1]]).solve_affine([0])
    assert space is not None and len(space.basis) == 1
    v = space.basis[0]
    assert v[0] + v[1] == 0 and any(v)

    assert QMatrix([[1, 0], [1, 0]]).solve_affine([1, 2]) is None


@given(q_matrices(), st.data())
def test_solve_affine_verified_by_substitution(matrix, data):
    rhs = data.draw(st.lists(small_ints, min_size=matrix.rows, max_size=matrix.rows))
    space = matrix.solve_affine(rhs)
    if space is None:
        # cross-check: an inconsistent system stays inconsistent when solved
        # through the augmented-rank criterion
        aug = QMatrix([list(r) + [b] for r, b in zip(matrix.row_list(), rhs)], cols=matrix.cols + 1)
        assert matrix_rank(aug) == matrix_rank(matrix) + 1
        return
    assert matrix.matvec(space.particular) == tuple(Fraction(b) for b in rhs)
    for vec in space.basis:
        assert not any(matrix.matvec(vec))
    assert len(space.basis) == matrix.cols - matrix_rank(matrix)


@given(q_matrices())
def test_rank_matches_fraction_rref(matrix):
    assert matrix_rank(matrix) == fraction_rref_rank(matrix)


@given(q_matrices())
def test_nullspace_is_exact(matrix):
    basis = matrix.nullspace()
    for vec in basis:
        assert not any(matrix.matvec(vec))
    assert len(basis) == matrix.cols - matrix_rank(matrix)
    # linear independence: reduced form keeps every row
    assert len(rref_rows(basis)) == len(basis)


@given(q_matrices(max_rows=4, max_cols=1))
def test_single_column_nullspace(matrix):
    basis = matrix.nullspace()
    zero_col = all(not matrix.entry(i, 0) for i in range(matrix.rows))
    assert (len(basis) == 1) == zero_col


@given(st.integers(1, 4), st.data())
def test_det_and_inverse(n, data):
    entries = data.draw(
        st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    matrix = QMatrix(entries, cols=n)
    det = matrix.det()
    assert (det != 0) == (matrix_rank(matrix) == n)
    inv = matrix_inverse(matrix)
    if det == 0:
        assert inv is None
    else:
        # column j of A A^-1 is A times column j of A^-1, and likewise for A^-1 A
        for j in range(n):
            unit = QMatrix.identity(n).row(j)
            assert matrix.matvec([inv.entry(i, j) for i in range(n)]) == unit
            assert inv.matvec([matrix.entry(i, j) for i in range(n)]) == unit


def test_each_solve_eliminates_once(monkeypatch):
    calls = []
    echelon = linalg._ff_echelon

    def counted(rows, limit_cols):
        calls.append(limit_cols)
        return echelon(rows, limit_cols)

    monkeypatch.setattr(linalg, "_ff_echelon", counted)
    invertible = QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    singular = QMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    wide = QMatrix([[1, 2, 0, 1], [0, 0, 1, 1]])
    runs = [
        invertible.nullspace,
        wide.nullspace,
        lambda: invertible.solve_affine([1, 2, 3]),
        lambda: wide.solve_affine([1, 2]),
        lambda: singular.solve_affine([1, 1, 1]),
        lambda: QMatrix([], cols=2).solve_affine([]),
        lambda: matrix_inverse(invertible),
        lambda: matrix_inverse(singular),
        lambda: rref_rows(wide.row_list()),
        lambda: rref_rows(singular.row_list()),
        invertible.det,
        singular.det,
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1


def test_det_known_values():
    assert QMatrix([[1, 2], [3, 4]]).det() == -2
    assert QMatrix([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]).det() == Fraction(1, 3)
    assert QMatrix([[1, 1], [1, 1]]).det() == 0


def test_empty_and_degenerate_shapes():
    empty = QMatrix([], cols=3)
    assert matrix_rank(empty) == 0
    assert len(empty.nullspace()) == 3
    space = empty.solve_affine([])
    assert space.particular == (0, 0, 0) and len(space.basis) == 3
    with pytest.raises(ValueError):
        QMatrix([])


def test_nonneg_kernel_examples():
    assert nonneg_kernel_witness(QMatrix([[1]])) is None
    assert nonneg_kernel_witness(QMatrix([[1, -1]])) == (1, 1)
    # second row forces gamma_2 = 0, first then forces gamma_1 = 0
    assert nonneg_kernel_witness(QMatrix([[1, 1], [0, 1]])) is None


def test_nonneg_kernel_zero_matrix():
    witness = nonneg_kernel_witness(QMatrix([], cols=3))
    assert witness is not None and any(witness) and all(v >= 0 for v in witness)


@settings(max_examples=150)
@given(q_matrices(max_rows=3, max_cols=4, coeffs=st.integers(-2, 2)))
def test_nonneg_kernel_against_exhaustive_search(matrix):
    witness = nonneg_kernel_witness(matrix)
    brute = exhaustive_nonneg_kernel(matrix, max_entry=4)
    if witness is not None:
        assert all(isinstance(v, int) and v >= 0 for v in witness) and any(witness)
        assert not any(matrix.matvec(witness))
    if brute is not None:
        assert witness is not None


@st.composite
def kernel_matrices(draw):
    """Rational matrices up to 5 x 6, including the empty shapes, with a
    zero row, a zero column or a repeated column mixed in."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entries = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    if rows and cols:
        if draw(st.booleans()):
            entries[draw(st.integers(0, rows - 1))] = [0] * cols
        if draw(st.booleans()):
            j = draw(st.integers(0, cols - 1))
            for row in entries:
                row[j] = 0
        if cols > 1 and draw(st.booleans()):
            src, dst = draw(st.permutations(range(cols)))[:2]
            for row in entries:
                row[dst] = row[src]
    return QMatrix(entries, cols=cols)


@settings(max_examples=100, deadline=None)
@given(kernel_matrices())
def test_nonneg_kernel_matches_fourier_motzkin(matrix):
    witness = nonneg_kernel_witness(matrix)
    assert (witness is None) == (fm_nonneg_kernel_oracle(matrix) is None) == (basic_nonneg_kernel(matrix) is None)
    if witness is not None:
        assert all(isinstance(v, int) and v >= 0 for v in witness) and any(witness)
        assert not any(matrix.matvec(witness))


def _combination(gamma, a_list) -> UniPoly:
    out = UniPoly.zero()
    for g, a in zip(gamma, a_list):
        out = out + a * g
    return out


@pytest.mark.parametrize("n", [12, 16, 20])
def test_no_dependence_when_every_a_j_is_positive_at_a_point(n):
    # sizes Fourier-Motzkin cannot finish; evaluation at t is itself a
    # functional positive on every a_j, so None is the right answer
    rng = random.Random(n)
    t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    a_list = []
    for _ in range(n):
        a = rand_unipoly(rng, max_deg=3, lo=-5, hi=5)
        a_list.append(a + constant_poly(rng.randint(1, 5) - a(t)))
    assert all(a(t) > 0 for a in a_list)
    assert nat_dependence_witness(a_list) is None


@pytest.mark.parametrize("n", [12, 16, 20])
def test_planted_dependence_is_found(n):
    rng = random.Random(100 + n)
    a_list = [rand_unipoly(rng, max_deg=3, lo=-5, hi=5, allow_zero=False) for _ in range(n - 1)]
    planted = [rng.randint(0, 3) for _ in range(n - 1)] + [rng.randint(1, 3)]
    a_list.append(_combination(planted, a_list) * Fraction(-1, planted[-1]))
    gamma = nat_dependence_witness(a_list)
    assert gamma is not None and all(isinstance(v, int) and v >= 0 for v in gamma) and any(gamma)
    assert _combination(gamma, a_list).is_zero


@given(q_matrices())
def test_rref_rows_canonicalizes_row_space(matrix):
    rows = matrix.row_list()
    shuffled = rows[::-1] + [[2 * v for v in rows[0]]]
    assert rref_rows(rows + [rows[0]]) == rref_rows(shuffled + rows[1:])


@st.composite
def row_lists(draw):
    """Rational row vectors up to 6 x 6, including no rows and empty rows,
    with a zero row or a repeated, rescaled row mixed in."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    vectors = [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        vectors[draw(st.integers(0, rows - 1))] = [0] * cols
    if rows > 1 and draw(st.booleans()):
        scale, src = draw(rationals), draw(st.integers(0, rows - 1))
        vectors[draw(st.integers(0, rows - 1))] = [scale * v for v in vectors[src]]
    return vectors


@settings(max_examples=100)
@given(row_lists())
def test_rref_rows_matches_fraction_gauss_jordan(vectors):
    got = rref_rows(vectors)
    assert got == rref_rows_oracle(vectors)
    assert all(type(v) is Fraction for row in got for v in row)


@example(QMatrix([[1, 2], [3, 4]]))
@given(q_matrices(max_rows=5, max_cols=5))
def test_ff_echelon_is_reduced(matrix):
    rows, pivots, _ = linalg._ff_echelon(linalg._int_rows(matrix.row_list()), matrix.cols)
    for r, c in pivots:
        assert rows[r][c] == rows[pivots[-1][0]][pivots[-1][1]]
        assert all(not row[c] for i, row in enumerate(rows) if i != r)
