"""Polynomial solvability of first-order linear ODEs z' = a(x) z + c(x).

Everything is decided exactly.  A single ODE is reduced by a top-down
recurrence on the coefficients of z, with no matrix.  The parametric variant
z' = a z + sum_j k_j b_j uses a leading-coefficient comparison for a sharp
upper bound on the degree of any polynomial solution, and treats the weights
k_j and the coefficients of z as one joint homogeneous linear system, so the
admissible k form the projection of a single exactly-computed solution space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import QMatrix, Vector, rref_rows
from .polynomials import NEG_INF, Rational, UniPoly


@dataclass(frozen=True)
class OdeSolutions:
    """Complete polynomial solution set of one ODE z' = a z + c.

    ``particular`` is None when no polynomial solution exists.  The
    homogeneous equation z' = a z has polynomial solutions exactly when a = 0
    (the constants), so homogeneous_dim is 1 iff a = 0 and 0 otherwise.
    """

    particular: UniPoly | None
    homogeneous_dim: int


@dataclass(frozen=True)
class ParamSolutionSpace:
    """Solution space of the homogeneous system in (k_1..k_r, coeffs of z).

    Each basis element is a pair (k, z) with z' = a z + sum_j k_j b_j holding
    exactly; the system is linear and homogeneous, so the zero pair is the
    offset and arbitrary combinations of basis pairs are again solutions.
    """

    num_params: int
    z_bound: int | None  # max degree allotted to z; None means z = 0 forced
    basis: tuple[tuple[tuple[Rational, ...], UniPoly], ...]

    @property
    def ambient_dim(self) -> int:
        return self.num_params + (self.z_bound + 1 if self.z_bound is not None else 0)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def offset(self) -> tuple[tuple[Rational, ...], UniPoly]:
        return ((Fraction(0),) * self.num_params, UniPoly.zero())


def degree_bound(a: UniPoly, cs: Sequence[UniPoly]) -> int | None:
    """Upper bound on deg z for polynomial solutions of z' = a z + c, where c
    ranges over combinations of the given polynomials; None forces z = 0.

    deg a >= 1: the top term of a*z can only cancel against c, so
    deg z = deg c - deg a.  Constant a != 0: a*z dominates z', so
    deg z = deg c.  a = 0: integration, deg z = deg c + 1 (clamped to 0 so the
    constant solutions of z' = 0 stay inside the bound when every c is zero).
    """
    top = max((c.degree for c in cs), default=NEG_INF)
    if a.is_zero:
        return int(top) + 1 if top != NEG_INF else 0
    if a.degree == 0:
        return int(top) if top != NEG_INF else None
    bound = top - a.degree
    return int(bound) if bound >= 0 else None


def _ode_rows(a: UniPoly, num_k: int, bs: Sequence[UniPoly], z_bound: int | None):
    """Coefficient rows of z' - a z - sum_j k_j b_j per power of x.

    Columns are (k_1..k_num_k, z_0..z_B).  Returns (rows, number of columns).
    """
    nz = 0 if z_bound is None else z_bound + 1
    deg_a = int(a.degree) if not a.is_zero else 0
    top = 0
    if nz:
        top = max(top, nz - 1 + deg_a if not a.is_zero else nz - 1)
    for b in bs:
        if not b.is_zero:
            top = max(top, int(b.degree))
    rows = []
    for d in range(top + 1):
        row = [Fraction(0)] * (num_k + nz)
        for j, b in enumerate(bs):
            row[j] = -b.coeff(d)
        for i in range(nz):
            coeff = Fraction(0)
            if i == d + 1:
                coeff += i  # from z'
            coeff -= a.coeff(d - i) if d >= i else 0
            if coeff:
                row[num_k + i] = row[num_k + i] + coeff
        rows.append(row)
    return rows, num_k + nz


def reduce_linear_ode(a: UniPoly, c: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Write c = z' + a z + r with deg r < deg a, by a matrix-free recurrence.

    For a != 0 the map z -> z' + a z raises the degree by exactly deg a, so
    its image meets the polynomials of degree < deg a only in 0: z and r are
    unique, and c lies in the image iff r = 0.  Each step cancels the top
    remaining coefficient at x^(k + deg a) with the term z_k x^k, working
    down from the top.  For a = 0, z is the antiderivative of c with zero
    constant term and r = 0.
    """
    if a.is_zero:
        return c.integral(), UniPoly.zero()
    d = int(a.degree)
    lead = a.leading_coeff()
    a_terms = a.items()
    rem = list(c.coeff_vector(int(c.degree))) if not c.is_zero else []
    z: dict[int, Rational] = {}
    for k in range(len(rem) - 1 - d, -1, -1):
        q = rem[k + d]
        if not q:
            continue
        q /= lead
        z[k] = q
        for i, ai in a_terms:
            rem[k + i] -= q * ai
        if k:
            rem[k - 1] -= k * q
    return UniPoly(z), UniPoly(enumerate(rem[:d]))


def solve_linear_ode(a: UniPoly, c: UniPoly) -> OdeSolutions:
    """All polynomial solutions of z' = a(x) z + c(x).

    a = 0: antiderivative of c (zero constant term) plus the constants.
    a != 0: at most one solution; reduce c against z' - a z and accept iff
    the remainder vanishes.
    """
    if a.is_zero:
        return OdeSolutions(c.integral(), 1)
    z, r = reduce_linear_ode(-a, c)
    return OdeSolutions(z if r.is_zero else None, 0)


def solve_parametric(a: UniPoly, bs: Sequence[UniPoly]) -> ParamSolutionSpace:
    """Basis of all pairs (k, z) with z' = a z + sum_j k_j b_j.

    The k-projection of this space is exactly the set of admissible weight
    vectors, which drives the simplicity decision.
    """
    if not bs:
        raise ValueError("need at least one b")
    r = len(bs)
    bound = degree_bound(a, bs)
    rows, ncols = _ode_rows(a, r, bs, bound)
    matrix = QMatrix(rows, cols=ncols) if rows else QMatrix.zeros(0, ncols)
    pairs = tuple(_split_pair(vec, r) for vec in matrix.nullspace())
    return ParamSolutionSpace(r, bound, pairs)


def _split_pair(vec: Vector, r: int) -> tuple[tuple[Rational, ...], UniPoly]:
    return tuple(vec[:r]), UniPoly(enumerate(vec[r:]))


def has_nonzero_k_solution(
    space: ParamSolutionSpace,
) -> tuple[tuple[Rational, ...], UniPoly] | None:
    """A solution pair with k != 0, or None if every solution has k = 0.

    The space is canonicalized by row reduction with the k-columns first, so
    the returned pair has its first nonzero k-entry equal to 1 and is stable
    across runs.
    """
    r = space.num_params
    nz = space.z_bound + 1 if space.z_bound is not None else 0
    rows = [list(k) + list(z.coeff_vector(nz - 1) if nz else ()) for k, z in space.basis]
    for row in rref_rows(rows):
        if any(row[:r]):
            return _split_pair(row, r)
    return None
