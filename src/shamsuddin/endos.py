"""Polynomial ring endomorphisms and the affine-in-y subfamily.

A ``PolyEndo`` is determined by the images of the generators; applying it to a
polynomial is substitution, and ``commutes`` checks D(rho(v)) = rho(D(v)) on
the generators that way, for any derivation and any map.

``AffineEndo`` is the family x -> x + c, y_t -> sum_j C[t][j] y_j + g0_t(x);
it is an automorphism exactly when C is invertible, and then its inverse is
affine again.  It is the library's one isotropy map type: each commuting
automorphism of a Shamsuddin derivation with a != 0 is affine, and so are the
a = 0 samples and every witness, which are built, checked and returned as
``AffineEndo`` (``affine_to_endo`` gives the ``PolyEndo`` that is printed).
For such a map and D(y_t) = a_t y_t + b_t, commutation on the generators is
exactly two univariate identities per row t,

    a_j(x) = a_t(x + c)                                 whenever C[t][j] != 0,
    sum_j C[t][j] b_j + g0_t' = a_t(x + c) g0_t + b_t(x + c),

which ``affine_commutes`` checks with O(n^2) ``UniPoly`` operations and no
multivariate substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derivations import AnyDerivation, Derivation, apply_derivation
from .linalg import QMatrix
from .polynomials import MultiPoly, Rational, UniPoly


@dataclass(frozen=True)
class PolyEndo:
    image_of_x: MultiPoly
    images_of_y: tuple[MultiPoly, ...]

    def __post_init__(self):
        n = len(self.images_of_y)
        if self.image_of_x.arity != n or any(g.arity != n for g in self.images_of_y):
            raise ValueError("generator images must live in the full ring")

    @property
    def arity(self) -> int:
        return len(self.images_of_y)

    @classmethod
    def identity(cls, arity: int) -> "PolyEndo":
        return cls(
            MultiPoly.x(arity), tuple(MultiPoly.y(arity, j) for j in range(1, arity + 1))
        )

    @property
    def is_identity(self) -> bool:
        return self == PolyEndo.identity(self.arity)

    def images(self) -> list[MultiPoly]:
        return [self.image_of_x, *self.images_of_y]

    def __str__(self) -> str:
        from .textio import format_endo

        return format_endo(self)


def endo_apply(rho: PolyEndo, f: MultiPoly) -> MultiPoly:
    """rho(f): substitute the generator images into f."""
    if f.arity != rho.arity:
        raise ValueError(f"arity mismatch: endo {rho.arity}, polynomial {f.arity}")
    return f.substitute(rho.images())


def commutes(rho: PolyEndo, d: AnyDerivation) -> bool:
    """Exact check of D(rho(v)) = rho(D(v)) on every generator v.

    Both sides are derivations along rho, so agreement on generators is
    agreement everywhere.
    """
    n = d.arity
    if rho.arity != n:
        raise ValueError("arity mismatch")
    gens = [MultiPoly.variable(n, v) for v in range(n + 1)]
    for gen, image in zip(gens, rho.images()):
        if apply_derivation(d, image) != endo_apply(rho, apply_derivation(d, gen)):
            return False
    return True


@dataclass(frozen=True)
class AffineEndo:
    """x -> x + c, y_t -> sum_j C[t][j] y_j + g0[t](x)."""

    c: Rational
    C: QMatrix
    g0: tuple[UniPoly, ...]

    def __post_init__(self):
        r = len(self.g0)
        if self.C.rows != r or self.C.cols != r:
            raise ValueError("C must be square with one row per y")

    @property
    def arity(self) -> int:
        return len(self.g0)

    @classmethod
    def identity(cls, arity: int) -> "AffineEndo":
        return cls(Fraction(0), QMatrix.identity(arity), (UniPoly.zero(),) * arity)


def affine_is_automorphism(rho: AffineEndo) -> bool:
    """True iff det C != 0; such maps are invertible with affine inverse."""
    return rho.C.det() != 0


def affine_commutes(rho: AffineEndo, d: Derivation) -> bool:
    """Exact check that rho commutes with d, by the univariate identities.

    Comparing D(rho(y_t)) = sum_j C[t][j] (a_j y_j + b_j) + g0_t' with
    rho(D(y_t)) = a_t(x + c) (sum_j C[t][j] y_j + g0_t) + b_t(x + c) gives
    the identities of the module docstring: the coefficient of each y_j and
    the y-free part.  On x both sides are 1.  The verdict equals
    ``commutes(affine_to_endo(rho), d)``.
    """
    if rho.arity != d.arity:
        raise ValueError("arity mismatch")
    c = rho.c
    pairs = d.coeff_pairs()
    for blk in d.blocks:
        # a_t is shared by the block; shift(0) returns the polynomial itself,
        # so the many maps with c = 0 (every isotropy map of a block with
        # deg a >= 1) shift nothing
        a_c = blk.a.shift(c)
        for b, t in zip(blk.bs, blk.var_indices):
            g = rho.g0[t - 1]
            lhs = g.derivative()
            for (a_j, b_j), entry in zip(pairs, rho.C.row(t - 1)):
                if entry:
                    if a_j != a_c:
                        return False
                    lhs = lhs + b_j * entry
            if lhs != a_c * g + b.shift(c):
                return False
    return True


def affine_to_endo(rho: AffineEndo) -> PolyEndo:
    n = rho.arity
    fx = MultiPoly.x(n) + MultiPoly.const(n, rho.c)
    ys = []
    for t in range(n):
        img = rho.g0[t].lift(n)
        for j in range(n):
            entry = rho.C.entry(t, j)
            if entry:
                img = img + MultiPoly.monomial(n, j + 1, 1, entry)
        ys.append(img)
    return PolyEndo(fx, tuple(ys))


def endo_to_affine(rho: PolyEndo) -> AffineEndo | None:
    """Recognize the affine-in-y shape; None if the endo is not of that form."""
    n = rho.arity
    fx = rho.image_of_x.terms()
    x_key = tuple([1] + [0] * n)
    const_key = (0,) * (n + 1)
    if fx.get(x_key) != 1 or any(k not in (x_key, const_key) for k in fx):
        return None
    c = fx.get(const_key, Fraction(0))
    rows = []
    g0 = []
    for t in range(n):
        row = [Fraction(0)] * n
        g: dict[int, Rational] = {}
        for exps, v in rho.images_of_y[t].terms().items():
            ydeg = sum(exps[1:])
            if ydeg == 0:
                g[exps[0]] = v
            elif ydeg == 1 and exps[0] == 0:
                row[exps[1:].index(1)] = v
            else:
                return None
        rows.append(row)
        g0.append(UniPoly(g))
    return AffineEndo(c, QMatrix(rows, cols=n), tuple(g0))
