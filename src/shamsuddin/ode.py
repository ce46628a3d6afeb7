"""Polynomial solvability of first-order linear ODEs z' = a(x) z + c(x).

Everything is decided exactly, by a top-down recurrence on the coefficients
of z with no matrix (reduce_linear_ode).  The parametric variant
z' = a z + sum_j k_j b_j, the polynomial case of the parametric Risch
equation, reduces each b_j once by that recurrence; what is left is a linear
system R in the k_j alone, with one row per power of x below deg a.  A
BlockReduction holds that reduction for one block and answers both verdicts
from it: the simplicity witness is the first reduced row of the kernel of R,
and the isotropy rows, the same equation with one target term b_t(x + c),
have an explicit particular solution, so no further system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import AffineSpace, QMatrix, Vector, VerificationError, echelon_affine, rref_rows
from .polynomials import NEG_INF, Rational, UniPoly


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


def _combine(k: Sequence[Rational], polys: Sequence[UniPoly]) -> UniPoly:
    """sum_j k_j p_j."""
    return sum((p * kj for kj, p in zip(k, polys) if kj), UniPoly.zero())


@dataclass(frozen=True)
class BlockReduction:
    """One block's b_j reduced against z -> z' - a z, built once by ``of``.

    reduce_linear_ode(-a, b_j) writes b_j = z_j' - a z_j + r_j with
    deg r_j < deg a, so z' = a z + sum_j k_j b_j holds iff sum_j k_j r_j = 0
    and z - sum_j k_j z_j lies in the kernel of z -> z' - a z (the constants
    when a = 0, only 0 otherwise).  ``kernel`` is a basis of those k: the
    kernel of the remainder matrix R, with deg a rows and one column per b_j.
    ``bound`` is degree_bound(a, bs).
    """

    a: UniPoly
    bs: tuple[UniPoly, ...]
    zs: tuple[UniPoly, ...]
    kernel: tuple[Vector, ...]
    bound: int | None

    @classmethod
    def of(cls, a: UniPoly, bs: Sequence[UniPoly]) -> "BlockReduction":
        bs = tuple(bs)
        reduced = [reduce_linear_ode(-a, b) for b in bs]
        rows = [[rem.coeff(i) for _, rem in reduced] for i in range(max(a.degree, 0))]
        kernel = QMatrix(rows, cols=len(bs)).nullspace()
        return cls(a, bs, tuple(z for z, _ in reduced), kernel, degree_bound(a, bs))

    def witness(self) -> tuple[tuple[Rational, ...], UniPoly] | None:
        """A solution pair (k, z) of z' = a z + sum_j k_j b_j with k != 0, or
        None if every solution has k = 0.

        k is the first row of the reduced row echelon form of the kernel, so
        its first nonzero entry is 1 and it is stable across runs, and
        z = sum_j k_j z_j.  The pair is checked exactly before it is returned.
        """
        if not self.kernel:
            return None
        k = rref_rows(self.kernel)[0]
        z, rhs = _combine(k, self.zs), _combine(k, self.bs)
        if next((kj for kj in k if kj), None) != 1 or z.derivative() != self.a * z + rhs:
            raise VerificationError(f"parametric ODE witness k={k}, z={z} failed its check")
        return k, z

    def isotropy_rows(self, c: Rational | int) -> tuple[AffineSpace, ...]:
        """Solution sets of g' = a g + b_t(x + c) - sum_j C_j b_j, one per row
        t, over the unknowns (C_1..C_r, g_0..g_B) with B = bound.

        The homogeneous solutions are C in the kernel with g = -sum_j C_j z_j,
        plus the constants g when a = 0.  Row t has the particular solution
        C = e_t, g = z_t(x + c) - z_t: for constant a, r_t = 0 and
        z -> z' - a z commutes with x -> x + c, and at c = 0 it is the
        identity row for every a.  So no linear system is solved.  The shift
        must be 0 when deg a >= 1 (ValueError otherwise), and each particular
        is checked exactly.  The sets come in the form QMatrix.solve_affine
        gives (see echelon_affine).
        """
        if c and self.a.degree >= 1:
            raise ValueError("shift is forced to 0 for this block")
        r = len(self.bs)
        top = -1 if self.bound is None else self.bound

        def vector(k: Sequence[Rational], g: UniPoly) -> Vector:
            return (*k, *g.coeff_vector(top))

        homogeneous = [vector(k, -_combine(k, self.zs)) for k in self.kernel]
        if self.a.is_zero:
            homogeneous.append(vector((Fraction(0),) * r, UniPoly.one()))
        points = []
        for t, (b, z) in enumerate(zip(self.bs, self.zs)):
            g = z.shift(c) - z
            if g.degree > top or g.derivative() != self.a * g + b.shift(c) - b:
                raise VerificationError(f"isotropy row {t + 1} particular failed its check")
            points.append(vector([Fraction(int(j == t)) for j in range(r)], g))
        return echelon_affine(homogeneous, points)
