"""Exact rational linear algebra.

Dense matrices over Q with fraction-free (Bareiss) Gaussian elimination as the
workhorse: denominators are cleared row-wise, elimination stays in integers to
control coefficient growth, and back-substitution returns to Fractions.
Feasibility of nonnegative kernels is decided by exact Fourier-Motzkin
elimination with witness extraction.
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

    def rank(self) -> int:
        _, pivots, _ = _ff_echelon(_int_rows(self._e), self.cols)
        return len(pivots)

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
        particular = _back_substitute(ech, pivots, self.cols, rhs=self.cols)
        return AffineSpace(particular, _nullspace(ech, pivots, self.cols))

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
        out.append([int(v * m) for v in row])
        scales.append(Fraction(m))
    return out, scales


def _ff_echelon(
    rows: list[list[int]], limit_cols: int
) -> tuple[list[list[int]], list[tuple[int, int]], int]:
    """Bareiss fraction-free row echelon form.

    Pivots are chosen left to right among the first limit_cols columns only
    (extra columns, e.g. an augmented right-hand side, are carried along).
    Returns (echelon rows, pivot positions, number of row swaps).
    """
    n_rows = len(rows)
    width = len(rows[0]) if rows else limit_cols
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
        piv = rows[r][c]
        for i in range(r + 1, n_rows):
            fi = rows[i][c]
            row_i, row_r = rows[i], rows[r]
            for j in range(width):
                row_i[j] = (piv * row_i[j] - fi * row_r[j]) // prev
        pivots.append((r, c))
        prev = piv
        r += 1
        if r == n_rows:
            break
    return rows, pivots, swaps


def _back_substitute(ech, pivots, cols: int, free: int | None = None, rhs: int | None = None) -> Vector:
    """The v with v[free] = 1 and 0 at every other free column that solves
    the echelon rows over their first cols columns, against echelon column
    rhs (or 0 when rhs is None)."""
    v = [Fraction(0)] * cols
    if free is not None:
        v[free] = Fraction(1)
    for r, c in reversed(pivots):
        row = ech[r]
        s = sum((row[j] * v[j] for j in range(c + 1, cols)), Fraction(0))
        if rhs is not None:
            s -= row[rhs]
        v[c] = -s / row[c]
    return tuple(v)


def _nullspace(ech, pivots, cols: int) -> tuple[Vector, ...]:
    pivot_cols = {c for _, c in pivots}
    return tuple(_back_substitute(ech, pivots, cols, free=f) for f in range(cols) if f not in pivot_cols)


def rref_rows(vectors: Sequence[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Reduced row echelon form of the given row vectors, zero rows dropped.

    The result is a canonical basis of the row space, so two spans are equal
    iff their rref_rows agree.
    """
    rows = [[as_rational(v) for v in row] for row in vectors]
    if not rows:
        return ()
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r])


def echelon_affine(
    vectors: Sequence[Sequence[Scalar]], points: Sequence[Sequence[Scalar]]
) -> tuple[AffineSpace, ...]:
    """point + span(vectors) for each point, in the form QMatrix.solve_affine
    gives for any system with that solution set: one basis vector per free
    column, with 1 there and 0 at the other free columns, and a particular
    solution that is 0 at every free column.

    A column is free when some vector of the span has its last nonzero entry
    there, so the free columns are the pivots of the reduced row echelon form
    read from the right.
    """
    basis = tuple(v[::-1] for v in reversed(rref_rows([v[::-1] for v in vectors])))
    free = [max(i for i, e in enumerate(v) if e) for v in basis]
    spaces = []
    for point in points:
        p = [as_rational(e) for e in point]
        for f, v in zip(free, basis):
            q = p[f]
            if q:
                p = [e - q * b for e, b in zip(p, v)]
        spaces.append(AffineSpace(tuple(p), basis))
    return tuple(spaces)


# -- nonnegative kernel via Fourier-Motzkin ----------------------------------

Ineq = tuple[tuple[Fraction, ...], Fraction]  # coeffs . t + const >= 0


def _canon_ineqs(ineqs: Iterable[Ineq]) -> list[Ineq] | None:
    """Scale to coprime integers and deduplicate; None if a row is plainly false."""
    seen = set()
    out: list[Ineq] = []
    for coeffs, const in ineqs:
        if not any(coeffs):
            if const < 0:
                return None
            continue
        m = lcm(*(v.denominator for v in coeffs), const.denominator)
        ints = [int(v * m) for v in coeffs] + [int(const * m)]
        g = gcd(*ints)
        key = tuple(v // g for v in ints)
        if key not in seen:
            seen.add(key)
            out.append((tuple(Fraction(v) for v in key[:-1]), Fraction(key[-1])))
    return out


def _fm_witness(ineqs: list[Ineq], nvars: int) -> list[Fraction] | None:
    """A point satisfying every inequality, or None; recursion eliminates the
    last variable and back-substitutes a feasible value on the way out."""
    canon = _canon_ineqs(ineqs)
    if canon is None:
        return None
    if nvars == 0:
        return []
    k = nvars - 1
    lowers, uppers, rest = [], [], []
    for coeffs, const in canon:
        c = coeffs[k]
        if c == 0:
            rest.append((coeffs[:k], const))
        elif c > 0:
            lowers.append((coeffs, const))
        else:
            uppers.append((coeffs, const))
    combined = list(rest)
    for lc, lk in lowers:
        for uc, uk in uppers:
            scale_l, scale_u = -uc[k], lc[k]
            coeffs = tuple(scale_l * lc[j] + scale_u * uc[j] for j in range(k))
            combined.append((coeffs, scale_l * lk + scale_u * uk))
    sub = _fm_witness(combined, k)
    if sub is None:
        return None

    def bound(coeffs: tuple[Fraction, ...], const: Fraction) -> Fraction:
        s = const + sum((coeffs[j] * sub[j] for j in range(k)), Fraction(0))
        return -s / coeffs[k]

    lo = max((bound(c, k0) for c, k0 in lowers), default=None)
    hi = min((bound(c, k0) for c, k0 in uppers), default=None)
    if lo is not None:
        value = lo
    elif hi is not None:
        value = hi
    else:
        value = Fraction(0)
    return sub + [value]


def nonneg_kernel_witness(matrix: QMatrix) -> tuple[int, ...] | None:
    """A nonzero vector of nonnegative integers in the kernel of the matrix,
    or None if only the zero vector qualifies.

    The kernel is homogeneous, so scaling clears denominators: existence over
    nonnegative rationals with coordinate sum 1 is decided by Fourier-Motzkin
    on the nullspace parametrization, then the witness is scaled to integers.
    """
    n = matrix.cols
    basis = matrix.nullspace()
    if not basis:
        return None
    d = len(basis)
    ineqs: list[Ineq] = []
    for j in range(n):
        ineqs.append((tuple(basis[i][j] for i in range(d)), Fraction(0)))
    total = tuple(sum((basis[i][j] for j in range(n)), Fraction(0)) for i in range(d))
    ineqs.append((total, Fraction(-1)))
    ineqs.append((tuple(-s for s in total), Fraction(1)))
    t = _fm_witness(ineqs, d)
    if t is None:
        return None
    gamma = [sum((t[i] * basis[i][j] for i in range(d)), Fraction(0)) for j in range(n)]
    m = lcm(*(g.denominator for g in gamma))
    ints = [int(g * m) for g in gamma]
    g0 = gcd(*ints)
    witness = tuple(v // g0 for v in ints)
    if not (all(v >= 0 for v in witness) and any(witness)) or any(matrix.matvec(witness)):
        raise VerificationError(f"nonnegative kernel witness {witness} failed its check")
    return witness
