"""Exact rational linear algebra.

Dense matrices over Q with one elimination for every solve: denominators are
cleared row-wise and fraction-free (Bareiss) Gauss-Jordan elimination runs in
integers, leaving every pivot entry equal to one common pivot d, so each entry
of a reduced row, kernel vector or solution is one Fraction over d.
Whether a matrix has a nonzero nonnegative kernel vector is decided by a
phase-I simplex on the same fraction-free pivot, which returns either such
a vector or a checked Gordan certificate that none exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomials import Rational, Scalar, as_rational

Vector = tuple[Rational, ...]


class VerificationError(RuntimeError):
    """A computed result failed its exact check.

    Raised in place of returning an unverified witness, sample or preimage;
    it signals a defect in the library, never bad input.
    """


@dataclass(frozen=True)
class AffineSpace:
    """Solution set {particular + span(basis)} of an affine linear system."""

    particular: Vector
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def point(self, weights: Sequence[Scalar]) -> Vector:
        """particular + sum(weights[i] * basis[i])."""
        if len(weights) != len(self.basis):
            raise ValueError("one weight per basis vector")
        out = list(self.particular)
        for w, vec in zip(weights, self.basis):
            q = as_rational(w)
            if q:
                for i, entry in enumerate(vec):
                    out[i] += q * entry
        return tuple(out)


class QMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable[Scalar]], cols: int | None = None):
        e = tuple(tuple(as_rational(v) for v in row) for row in entries)
        if e:
            cols = len(e[0]) if cols is None else cols
            if any(len(row) != cols for row in e):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._e = e
        self.rows = len(e)
        self.cols = cols

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    def entry(self, i: int, j: int) -> Rational:
        return self._e[i][j]

    def row(self, i: int) -> Vector:
        return self._e[i]

    def row_list(self) -> list[list[Rational]]:
        return [list(r) for r in self._e]

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        vq = [as_rational(x) for x in v]
        return tuple(sum((r[j] * vq[j] for j in range(self.cols)), Fraction(0)) for r in self._e)

    def det(self) -> Rational:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Fraction(1)
        scaled, scales = _int_rows_scaled(self._e)
        ech, pivots, swaps = _ff_echelon(scaled, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        d = Fraction(ech[pivots[-1][0]][pivots[-1][1]])
        if swaps % 2:
            d = -d
        for s in scales:
            d /= s
        return d

    def nullspace(self) -> tuple[Vector, ...]:
        """Basis of {v : A v = 0}, one vector per free column."""
        ech, pivots, _ = _ff_echelon(_int_rows(self._e), self.cols)
        return _nullspace(ech, pivots, self.cols)

    def solve_affine(self, rhs: Sequence[Scalar]) -> AffineSpace | None:
        """Full solution set of A v = rhs, or None if inconsistent; the
        particular solution is 0 at every free column."""
        if len(rhs) != self.rows:
            raise ValueError("dimension mismatch")
        aug = [list(row) + [as_rational(b)] for row, b in zip(self._e, rhs)]
        ech, pivots, _ = _ff_echelon(_int_rows(aug), self.cols)
        if any(ech[r][self.cols] for r in range(len(pivots), self.rows)):
            return None
        return AffineSpace(_solution(ech, pivots, self.cols), _nullspace(ech, pivots, self.cols))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QMatrix):
            return self._e == other._e and self.cols == other.cols
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.cols, self._e))

    def __repr__(self) -> str:
        return f"QMatrix({[list(map(str, r)) for r in self._e]})"


# -- fraction-free elimination core -----------------------------------------


def _int_rows(rows: Sequence[Sequence[Rational]]) -> list[list[int]]:
    return _int_rows_scaled(rows)[0]


def _int_rows_scaled(rows) -> tuple[list[list[int]], list[Fraction]]:
    """Clear denominators row by row; returns integer rows and the row scales."""
    out, scales = [], []
    for row in rows:
        m = lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (m // v.denominator) for v in row])
        scales.append(Fraction(m))
    return out, scales


def _bareiss_pivot(rows: list[list[int]], r: int, c: int, prev: int) -> None:
    """One fraction-free pivot on (r, c): every other row i becomes
    (piv * row_i - row_i[c] * row_r) / prev, with piv = row_r[c] and prev the
    previous pivot.  Every division is exact (Bareiss); row r is unchanged."""
    row_r = rows[r]
    piv = row_r[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, row_r)]


def _ff_echelon(
    rows: list[list[int]], limit_cols: int
) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """Bareiss fraction-free reduced row echelon form.

    Pivots are chosen left to right among the first limit_cols columns only
    (extra columns, e.g. an augmented right-hand side, are carried along).
    Each pivot clears its column in every other row, so at the end every
    pivot entry equals the last pivot d, and pivot row r divided by d is row
    r of the reduced row echelon form.
    Returns (reduced rows, pivot positions, number of row swaps).
    """
    n_rows = len(rows)
    pivots: list[tuple[int, int]] = []
    swaps = 0
    prev = 1
    r = 0
    for c in range(limit_cols):
        p = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        _bareiss_pivot(rows, r, c, prev)
        pivots.append((r, c))
        prev = rows[r][c]
        r += 1
        if r == n_rows:
            break
    return rows, pivots, swaps


def _solution(ech, pivots, cols: int, free: int | None = None) -> Vector:
    """The v solving the reduced rows over their first cols columns, either
    against 0 with v[free] = 1 and 0 at every other free column, or (free is
    None) against column cols with 0 at every free column: pivot row r reads
    d v[c] + row_r[free] = 0, or d v[c] = row_r[cols]."""
    v = [Fraction(int(j == free)) for j in range(cols)]
    for r, c in pivots:
        row = ech[r]
        v[c] = Fraction(row[cols] if free is None else -row[free], row[c])
    return tuple(v)


def _nullspace(ech, pivots, cols: int) -> tuple[Vector, ...]:
    pivot_cols = {c for _, c in pivots}
    return tuple(_solution(ech, pivots, cols, free=f) for f in range(cols) if f not in pivot_cols)


def rref_rows(vectors: Sequence[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Reduced row echelon form of the given row vectors, zero rows dropped.

    The result is a canonical basis of the row space, so two spans are equal
    iff their rref_rows agree.
    """
    rows = _int_rows([[as_rational(v) for v in row] for row in vectors])
    if not rows:
        return ()
    ech, pivots, _ = _ff_echelon(rows, len(rows[0]))
    return tuple(tuple(Fraction(v, ech[r][c]) for v in ech[r]) for r, c in pivots)


def echelon_basis(vectors: Sequence[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Canonical basis of span(vectors) in the form QMatrix.solve_affine
    gives for any system with that solution set: one vector per free column,
    with 1 there and 0 at the other free columns.

    A column is free when some vector of the span has its last nonzero entry
    there, so the free columns are the pivots of the reduced row echelon form
    read from the right, and each basis vector ends at its free column.
    """
    return tuple(v[::-1] for v in reversed(rref_rows([v[::-1] for v in vectors])))


def affine_space(point: Sequence[Scalar], basis: tuple[Vector, ...]) -> AffineSpace:
    """point + span(basis), for a basis from echelon_basis, with the
    particular solution solve_affine gives: the one that is 0 at every free
    column."""
    p = [as_rational(e) for e in point]
    for v in basis:
        q = p[max(i for i, e in enumerate(v) if e)]
        if q:
            p = [e - q * b for e, b in zip(p, v)]
    return AffineSpace(tuple(p), basis)


# -- nonnegative kernel via a fraction-free phase-I simplex -------------------


def nonneg_kernel_witness(matrix: QMatrix) -> tuple[int, ...] | None:
    """A nonzero vector of nonnegative integers in the kernel of the matrix,
    or None if only the zero vector qualifies.

    Phase I of the simplex method on {A g = 0, sum g = 1, g >= 0}, one
    artificial per row, in a Bareiss tableau: every entry is the true entry
    times the current basis determinant prev > 0, so the tableau stays in
    integers.  Bland's rule (lowest entering column, then the lowest basic
    index among the tied ratios) makes the pivoting terminate.  By Gordan's
    alternative the optimum certifies one of two things, each checked here:
    value 0 gives a dependence g, scaled to coprime integers; a positive
    value gives the dual u, read off the artificials' reduced costs, with
    u . A_j > 0 for every column j, so no nonzero g >= 0 has A g = 0.
    """
    n, m = matrix.cols, matrix.rows
    scaled, scales = _int_rows_scaled(matrix._e)
    rows = [row + [int(i == k) for k in range(m + 1)] + [0] for i, row in enumerate(scaled)]
    rows.append([1] * n + [0] * m + [1, 1])
    # phase-I cost: 1 on each artificial, so reduced costs are 0 there and
    # minus the column sums elsewhere; the last entry is minus the value
    rows.append([-sum(r[j] for r in rows) for j in range(n)] + [0] * (m + 1) + [-1])
    basis = list(range(n, n + m + 1))
    prev = 1
    while (c := next((j for j, v in enumerate(rows[-1][:-1]) if v < 0), None)) is not None:
        r = min(
            (i for i in range(m + 1) if rows[i][c] > 0),
            key=lambda i: (Fraction(rows[i][-1], rows[i][c]), basis[i]),
        )
        _bareiss_pivot(rows, r, c, prev)
        prev, basis[r] = rows[r][c], c
    obj = rows[-1]
    if obj[-1] == 0:
        values = [0] * n
        for i, b in enumerate(basis):
            if b < n:
                values[b] = rows[i][-1]
        g0 = gcd(*values) or 1
        witness = tuple(v // g0 for v in values)
        if not (all(v >= 0 for v in witness) and any(witness)) or any(matrix.matvec(witness)):
            raise VerificationError(f"nonnegative kernel witness {witness} failed its check")
        return witness
    u = [s * Fraction(obj[n + i] - prev, prev) for i, s in enumerate(scales)]
    for j in range(n):
        if sum((u[i] * matrix.entry(i, j) for i in range(m)), Fraction(0)) <= 0:
            u_text = ", ".join(map(str, u))
            raise VerificationError(f"Gordan certificate u = ({u_text}) fails u . A_j > 0 at column {j}")
    return None
