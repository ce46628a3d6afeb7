"""Derivations of Q[x, y1..yn] sending x to 1.

Two shapes are modeled.  ``Derivation`` is the normal form grouped into
blocks: all y-variables of a block share one coefficient polynomial a(x), so
D(y) = a(x)*y + b(x) with b univariate, and distinct blocks have distinct a.
``TriangularDerivation`` relaxes b to a polynomial in x and the *earlier* y's,
which is the natural setting for the local-finiteness test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .polynomials import MultiPoly, UniPoly


@dataclass(frozen=True)
class Block:
    """One group of y-variables sharing the coefficient a(x)."""

    a: UniPoly
    bs: tuple[UniPoly, ...]
    var_indices: tuple[int, ...]  # global 1-based y indices owned by the block

    def __post_init__(self):
        if not self.bs or len(self.bs) != len(self.var_indices):
            raise ValueError("block needs one b per owned variable")


@dataclass(frozen=True)
class Derivation:
    """Normalized derivation: d/dx plus sum over blocks of (a*y + b) d/dy."""

    arity: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        owned = [j for blk in self.blocks for j in blk.var_indices]
        if sorted(owned) != list(range(1, self.arity + 1)):
            raise ValueError("blocks must partition y1..yn")
        seen = set()
        for blk in self.blocks:
            if blk.a in seen:
                raise ValueError("blocks must have pairwise distinct a")
            seen.add(blk.a)

    def coeff_pairs(self) -> list[tuple[UniPoly, UniPoly]]:
        """Per-variable (a_j, b_j) in y-index order."""
        out: dict[int, tuple[UniPoly, UniPoly]] = {}
        for blk in self.blocks:
            for b, j in zip(blk.bs, blk.var_indices):
                out[j] = (blk.a, b)
        return [out[j] for j in range(1, self.arity + 1)]

    def __str__(self) -> str:
        from .textio import format_derivation

        return format_derivation(self)


@dataclass(frozen=True)
class TriangularDerivation:
    """d/dx + sum (a_j(x)*y_j + b_j(x, y1..y_{j-1})) d/dy_j."""

    arity: int
    a: tuple[UniPoly, ...]
    b: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.a) != self.arity or len(self.b) != self.arity:
            raise ValueError("need one (a, b) pair per variable")
        for j, bj in enumerate(self.b, start=1):
            if bj.arity != self.arity:
                raise ValueError("b coefficients must live in the full ring")
            if any(bj.uses_y(i) for i in range(j, self.arity + 1)):
                raise ValueError(f"b_{j} may only involve x, y1..y{j - 1}")

    def __str__(self) -> str:
        from .textio import format_derivation

        return format_derivation(self)


AnyDerivation = Union[Derivation, TriangularDerivation]


def normalize(raw: Sequence[tuple[UniPoly, UniPoly]]) -> Derivation:
    """Group per-variable (a_j, b_j) pairs into blocks of equal a.

    Blocks appear in order of first occurrence of each distinct a, and each
    keeps its variables in input order, so the grouping is deterministic and
    the action on every polynomial is unchanged.
    """
    order: list[UniPoly] = []
    grouped: dict[UniPoly, list[tuple[UniPoly, int]]] = {}
    for j, (a, b) in enumerate(raw, start=1):
        if not isinstance(b, UniPoly):
            raise TypeError("normalize expects univariate b; build a TriangularDerivation instead")
        if a not in grouped:
            grouped[a] = []
            order.append(a)
        grouped[a].append((b, j))
    blocks = tuple(
        Block(a, tuple(b for b, _ in grouped[a]), tuple(j for _, j in grouped[a])) for a in order
    )
    return Derivation(len(raw), blocks)


def apply_derivation(d: AnyDerivation, f: MultiPoly) -> MultiPoly:
    """df/dx + sum_j (a_j y_j + b_j) df/dy_j, computed exactly."""
    n = d.arity
    if f.arity != n:
        raise ValueError(f"arity mismatch: derivation {n}, polynomial {f.arity}")
    out = f.partial(0)
    if isinstance(d, Derivation):
        pairs = [(a, b.lift(n)) for a, b in d.coeff_pairs()]
    else:
        pairs = list(zip(d.a, d.b))
    for j, (a, b) in enumerate(pairs, start=1):
        df = f.partial(j)
        if df.is_zero:
            continue
        out = out + (a.lift(n) * MultiPoly.y(n, j) + b) * df
    return out
