"""Polynomial solvability of first-order linear ODEs z' = a(x) z + c(x).

Everything is decided exactly, by a top-down recurrence on the coefficients
of z with no matrix (reduce_linear_ode).  The parametric variant
z' = a z + sum_j k_j b_j, the polynomial case of the parametric Risch
equation, reduces each b_j once by that recurrence; what is left is a linear
system R in the k_j alone, with one row per power of x below deg a.  The
simplicity witness (has_nonzero_k_solution) is the first reduced row of the
kernel of R; solve_parametric gives the full solution space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import AffineSpace, QMatrix, Vector, VerificationError, echelon_affine, rref_rows
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


def _reduce_block(
    a: UniPoly, cs: Sequence[UniPoly]
) -> tuple[list[tuple[UniPoly, UniPoly]], list[list[Rational]]]:
    """Reduce each c against z' - a z: the pairs (z_c, r_c) of
    reduce_linear_ode(-a, c), and the remainder rows, row i holding the
    coefficient of x^i in every r_c (deg a rows, none when a is constant)."""
    reduced = [reduce_linear_ode(-a, c) for c in cs]
    return reduced, [[rem.coeff(i) for _, rem in reduced] for i in range(max(a.degree, 0))]


def parametric_spaces(
    a: UniPoly, bs: Sequence[UniPoly], targets: Sequence[UniPoly]
) -> tuple[AffineSpace | None, ...]:
    """Solution sets of z' = a z + sum_j k_j b_j + c, one per target c.

    The unknowns are (k_1..k_r, z_0..z_B) with B = degree_bound(a, bs +
    targets), which no solution exceeds.  reduce_linear_ode writes
    b_j = z_j' - a z_j + r_j and c = w' - a w + s with r_j and s of degree
    below deg a.  So (k, z) is a solution iff sum_j k_j r_j + s = 0 and
    z - w - sum_j k_j z_j lies in the kernel of z -> z' - a z, which holds
    the constants when a = 0 and only 0 otherwise.  The one linear system is
    the remainder matrix R, with deg a rows and r columns.

    Each set comes in the form QMatrix.solve_affine gives (see
    echelon_affine), or is None when the target admits no solution.
    """
    r = len(bs)
    bound = degree_bound(a, [*bs, *targets])
    top = -1 if bound is None else bound
    reduced, rem_rows = _reduce_block(a, [*bs, *targets])
    matrix = QMatrix([row[:r] for row in rem_rows], cols=r)

    def pair(k: Sequence[Rational], z: UniPoly) -> Vector:
        for kj, (zj, _) in zip(k, reduced):
            if kj:
                z = z + zj * kj
        return (*k, *z.coeff_vector(top))

    kernel = [pair(k, UniPoly.zero()) for k in matrix.nullspace()]
    if a.is_zero:
        kernel.append(pair((Fraction(0),) * r, UniPoly.one()))
    points = []
    for t, (w, _) in enumerate(reduced[r:]):
        space = matrix.solve_affine([-row[r + t] for row in rem_rows])
        points.append(None if space is None else pair(space.particular, w))
    spaces = iter(echelon_affine(kernel, [p for p in points if p is not None]))
    return tuple(None if p is None else next(spaces) for p in points)


def solve_parametric(a: UniPoly, bs: Sequence[UniPoly]) -> ParamSolutionSpace:
    """Basis of all pairs (k, z) with z' = a z + sum_j k_j b_j.

    The k-projection of this space is exactly the set of admissible weight
    vectors; has_nonzero_k_solution finds one nonzero k without building it.
    """
    if not bs:
        raise ValueError("need at least one b")
    r = len(bs)
    (space,) = parametric_spaces(a, bs, [UniPoly.zero()])
    pairs = tuple((tuple(vec[:r]), UniPoly(enumerate(vec[r:]))) for vec in space.basis)
    return ParamSolutionSpace(r, degree_bound(a, bs), pairs)


def has_nonzero_k_solution(
    a: UniPoly, bs: Sequence[UniPoly]
) -> tuple[tuple[Rational, ...], UniPoly] | None:
    """A solution pair (k, z) of z' = a z + sum_j k_j b_j with k != 0, or None
    if every solution has k = 0.

    The admissible k form the kernel of the remainder matrix R (see
    parametric_spaces) and each fixes z = sum_j k_j z_j.  k is the first row
    of the reduced row echelon form of that kernel, so its first nonzero
    entry is 1 and it is stable across runs.  The pair is checked exactly
    before it is returned.
    """
    reduced, rem_rows = _reduce_block(a, bs)
    kernel = QMatrix(rem_rows, cols=len(bs)).nullspace()
    if not kernel:
        return None
    k = rref_rows(kernel)[0]
    z = rhs = UniPoly.zero()
    for kj, b, (zj, _) in zip(k, bs, reduced):
        if kj:
            z = z + zj * kj
            rhs = rhs + b * kj
    if next((kj for kj in k if kj), None) != 1 or z.derivative() != a * z + rhs:
        raise VerificationError(f"parametric ODE witness k={k}, z={z} failed its check")
    return k, z
