"""Decision procedures for simplicity, isotropy, local finiteness, and the
image classification of Shamsuddin derivations over Q.

Simplicity of a block with coefficient a(x) and inhomogeneous parts b_j(x)
reduces to the parametric ODE z' = a z + sum_j k_j b_j: the block is simple
exactly when no nonzero weight vector k admits a polynomial solution.  A
solution pair (k, z) converts into an explicit non-identity automorphism
commuting with the derivation, and conversely triviality of the commutant is
equivalent to simplicity, block by block.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .derivations import AnyDerivation, Block, Derivation, apply_derivation
from .endos import AffineEndo, affine_commutes, affine_is_automorphism
from .linalg import AffineSpace, QMatrix, VerificationError, nonneg_kernel_witness
from .ode import BlockReduction, reduce_linear_ode
from .polynomials import MultiPoly, Rational, UniPoly

#: solution pair of the parametric ODE: weights k and the polynomial z
Witness = tuple[tuple[Rational, ...], UniPoly]

#: fixed scale for witness automorphisms; any value other than 0 and 1 works,
#: and pinning it keeps all outputs deterministic
WITNESS_SCALE = Fraction(2)

_SAMPLE_ATTEMPTS = 32


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    per_block: tuple[tuple[int, Witness | None], ...]


def is_simple_block(a: UniPoly, bs: Sequence[UniPoly]) -> tuple[bool, Witness | None]:
    """Decide simplicity of one block; a witness (k, z) certifies failure."""
    found = BlockReduction.of(a, bs).witness()
    return (found is None), found


def is_simple(d: Derivation) -> SimplicityVerdict:
    """A derivation is simple iff every block is."""
    reports = []
    for i, blk in enumerate(d.blocks):
        _, witness = is_simple_block(blk.a, blk.bs)
        reports.append((i, witness))
    return SimplicityVerdict(all(w is None for _, w in reports), tuple(reports))


def isotropy_is_trivial(d: Derivation) -> bool:
    """The commutant of d inside the automorphism group is trivial iff d is
    simple; the refutation direction is constructive via isotropy_witness."""
    return is_simple(d).simple


# -- witness construction ----------------------------------------------------


def _block_witness(d: Derivation, index: int, witness: Witness | None) -> AffineEndo:
    """A non-identity affine map x -> x, y -> C y + g(x) commuting with d.

    It moves only the variables of block ``index``: C and g are written at
    the block's global ``var_indices`` and are the identity elsewhere, so it
    commutes with d as soon as it commutes with that block.  Preference
    order: scale one variable whose b vanishes; for a = 0 move along the
    antiderivative family; otherwise mix the ODE solution into the first
    weighted coordinate.
    """
    blk = d.blocks[index]
    n = d.arity
    e = WITNESS_SCALE
    rows = QMatrix.identity(n).row_list()
    gs = [UniPoly.zero()] * n
    zero_b = next((t for b, t in zip(blk.bs, blk.var_indices) if b.is_zero), None)
    if zero_b is not None:
        rows[zero_b - 1][zero_b - 1] = e
    elif blk.a.is_zero:
        t = blk.var_indices[0] - 1
        rows[t][t] = e
        gs[t] = blk.bs[0].integral() * (1 - e)
    else:
        if witness is None:
            raise VerificationError("non-simple block with a != 0 must carry an ODE witness")
        k, z = witness
        j0 = next(j for j, kj in enumerate(k) if kj)
        if k[j0] != 1:
            raise VerificationError(f"ODE witness weights {k} are not normalized")
        t = blk.var_indices[j0] - 1
        for j, kj in enumerate(k):
            if kj:
                rows[t][blk.var_indices[j] - 1] = 1 - e if j == j0 else -e * kj
        gs[t] = z * e
    return AffineEndo(Fraction(0), QMatrix(rows, cols=n), tuple(gs))


def _check_automorphism(rho: AffineEndo, d: Derivation) -> None:
    """Raise VerificationError unless det C != 0 and rho commutes with d.
    Commutation is checked exactly by the univariate identities of
    ``affine_commutes``."""
    if not affine_is_automorphism(rho) or not affine_commutes(rho, d):
        raise VerificationError("isotropy map failed verification")


def isotropy_witness(d: Derivation) -> AffineEndo | None:
    """A non-identity automorphism commuting with d, or None when d is simple.

    The map is affine, x -> x and y -> C y + g(x).  It acts inside one
    non-simple block, is the identity on every other variable, and is
    verified exactly (det C != 0 and commutation) before it is returned."""
    verdict = is_simple(d)
    if verdict.simple:
        return None
    index, witness = next((i, w) for i, w in verdict.per_block if w is not None)
    rho = _block_witness(d, index, witness)
    if rho == AffineEndo.identity(d.arity):
        raise VerificationError("isotropy witness failed verification")
    _check_automorphism(rho, d)
    return rho


# -- isotropy description ----------------------------------------------------


class IsotropyCase(Enum):
    A_ZERO = "a_zero"
    A_CONST = "a_constant"
    A_DEG_GE_1 = "deg_a_ge_1"


@dataclass(frozen=True)
class IsotropyDescription:
    """Parametrization of the commuting automorphisms of a single block.

    a = 0: the full family is x -> x + p(w1..wr), y_t -> h_t(x + p) + q_t(w),
    where w_t = y_t - h_t(x), h_t is the antiderivative of b_t, p is any
    polynomial in the w's and (x + p, q_1..q_r) is any automorphism; h is
    stored here and (p, q) stay free slots.

    a != 0: every member is affine, x -> x + c and y_t -> sum_j C[t][j] y_j
    + g_t(x); the shift c is forced to 0 when deg a >= 1 and is a free
    parameter when a is a nonzero constant.  For a fixed shift, row t of
    (C, g) ranges over an affine solution space with unknowns
    (C[t][1..r], coefficients of g_t), read off the block's one reduction
    for every shift (BlockReduction.isotropy_rows); membership additionally
    requires det C != 0.
    """

    case: IsotropyCase
    a: UniPoly
    bs: tuple[UniPoly, ...]
    shift_forced_zero: bool
    h: tuple[UniPoly, ...] | None
    reduction: BlockReduction
    g_bound: int | None

    @property
    def arity(self) -> int:
        return len(self.bs)

    def row_spaces(self, c: Rational | int = 0) -> tuple[AffineSpace, ...]:
        """Affine row spaces of (C-row, g coefficients) at the given shift."""
        return self.reduction.isotropy_rows(c)


def isotropy_describe_block(a: UniPoly, bs: Sequence[UniPoly]) -> IsotropyDescription:
    """Structured description of the commuting automorphisms of one block."""
    reduction = BlockReduction.of(a, bs)
    if a.is_zero:
        case = IsotropyCase.A_ZERO
    else:
        case = IsotropyCase.A_CONST if a.degree == 0 else IsotropyCase.A_DEG_GE_1
    return IsotropyDescription(
        case,
        a,
        reduction.bs,
        shift_forced_zero=case is IsotropyCase.A_DEG_GE_1,
        h=reduction.zs if case is IsotropyCase.A_ZERO else None,
        reduction=reduction,
        g_bound=reduction.bound,
    )


def sample_isotropy_element(desc: IsotropyDescription, seed: int = 0) -> AffineEndo | None:
    """Draw one member of the described family, seeded and verified.

    Every member is an affine map.  Affine cases reject draws with singular
    C and return None only if every attempt is singular.  The a = 0 case
    samples the antiderivative family with p constant and q affine: a shift
    c, and per row a nonzero scale s_t and an offset o_t give
    y_t -> s_t y_t + h_t(x + c) - s_t h_t(x) + o_t.  A returned member has
    det C != 0 and commutes with the block, both checked exactly;
    commutation is checked once, by the univariate identities of
    ``affine_commutes``, and a failure raises VerificationError.
    """
    rng = random.Random(seed)
    r = desc.arity
    block = Derivation(r, (Block(desc.a, desc.bs, tuple(range(1, r + 1))),))
    if desc.case is IsotropyCase.A_ZERO:
        shift = Fraction(rng.randint(-2, 2))
        rows = [[Fraction(0)] * r for _ in range(r)]
        gs = []
        for t, ht in enumerate(desc.h):
            scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            offset = Fraction(rng.randint(-2, 2))
            rows[t][t] = scale
            gs.append(ht.shift(shift) - ht * scale + offset)
        rho = AffineEndo(shift, QMatrix(rows, cols=r), tuple(gs))
        _check_automorphism(rho, block)
        return rho
    for _ in range(_SAMPLE_ATTEMPTS):
        c = Fraction(0) if desc.shift_forced_zero else Fraction(rng.randint(-3, 3))
        spaces = desc.row_spaces(c)
        c_rows, gs = [], []
        for space in spaces:
            weights = [rng.randint(-2, 2) for _ in range(space.dim)]
            point = space.point(weights)
            c_rows.append(point[:r])
            gs.append(UniPoly(enumerate(point[r:])))
        matrix = QMatrix(c_rows, cols=r)
        candidate = AffineEndo(c, matrix, tuple(gs))
        if not affine_is_automorphism(candidate):
            continue
        if not affine_commutes(candidate, block):
            raise VerificationError("sampled isotropy member does not commute")
        return candidate
    return None


# -- local finiteness and image classification --------------------------------


def is_locally_finite(d: AnyDerivation) -> bool:
    """Locally finite iff every a_j is constant."""
    a_list = [blk.a for blk in d.blocks] if isinstance(d, Derivation) else d.a
    return all(aj.degree <= 0 for aj in a_list)


def nat_dependence_witness(a_list: Sequence[UniPoly]) -> tuple[int, ...] | None:
    """Nonzero gamma in N^n with sum_j gamma_j a_j = 0, or None.

    Rows of the decision matrix are indexed by powers of x, columns by j."""
    if not a_list:
        return None
    degrees = [int(a.degree) for a in a_list if not a.is_zero]
    top = max(degrees) if degrees else -1
    rows = [[a.coeff(deg) for a in a_list] for deg in range(top + 1)]
    return nonneg_kernel_witness(QMatrix(rows, cols=len(a_list)))


class MzTag(Enum):
    IS_MZ = "IS_MZ"
    NOT_MZ = "NOT_MZ"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class MzVerdict:
    tag: MzTag
    reason: str
    gamma: tuple[int, ...] | None = None


def mz_classify(d: Derivation) -> MzVerdict:
    """Classify the image of d as a Mathieu-Zhao subspace of the ring.

    All a_j constant: the derivation is locally finite and 1 = D(x) lies in
    the image, hence IS_MZ.  Some deg a_j >= 1 with no nonzero dependence of
    the a_j over the nonnegative integers: a distinguished variable has no
    preimage, hence NOT_MZ.  Anything else is outside the implemented
    criteria and reported UNKNOWN with the dependence witness attached.
    """
    a_per_var = [a for a, _ in d.coeff_pairs()]
    if all(a.degree <= 0 for a in a_per_var):
        return MzVerdict(
            MzTag.IS_MZ,
            "every a_j is constant: the derivation is locally finite and 1 lies in its image",
        )
    gamma = nat_dependence_witness(a_per_var)
    if gamma is None:
        if len(d.blocks) == 1:
            reason = "single coefficient a(x) with deg a >= 1"
        else:
            reason = (
                "some deg a_j >= 1 and the a_j admit no nonzero dependence "
                "over the nonnegative integers"
            )
        return MzVerdict(MzTag.NOT_MZ, reason)
    return MzVerdict(
        MzTag.UNKNOWN,
        "some deg a_j >= 1 but the a_j admit a nonzero nonnegative-integer "
        "dependence; outside the implemented criteria",
        gamma,
    )


# -- bounded preimage solving --------------------------------------------------


def preimage_bounded(
    d: Derivation,
    target: MultiPoly,
    max_x_deg: int = 8,
    max_y_total_deg: int = 4,
) -> MultiPoly | None:
    """Solve D(f) = target for f supported on the monomial box
    {x^i y^alpha : i <= max_x_deg, |alpha| <= max_y_total_deg}.

    The solve is graded by y-monomial.  Write f = sum_gamma z_gamma(x) y^gamma.
    D maps z y^gamma to (z' + A_gamma z) y^gamma plus terms of lower y-degree,
    where A_gamma = sum_j gamma_j a_j, so the coefficient of y^gamma in
    D(f) = g reads

        z_gamma' + A_gamma z_gamma = g_gamma - sum_j (gamma_j + 1) b_j z_{gamma+e_j}.

    The levels are solved from the top y-degree down by reduce_linear_ode,
    each leaving a remainder that must vanish.  A level with gamma != 0 and
    A_gamma = 0, which exists exactly when the a_j have a nonzero dependence
    over N, adds a free constant t_gamma, so every z_gamma is carried as an
    affine function of the t's.  All remainders and all coefficients of
    x-degree above max_x_deg form one small linear system in the t's, whose
    particular solution gives f.  Without such a dependence there are no t's,
    and the first nonzero remainder or coefficient means no preimage.

    Without a dependence every A_gamma with gamma != 0 is nonzero, so every
    level above deg_y g solves to z_gamma = 0 and adds no condition: the
    levels start at deg_y g.  The dependence is decided
    (nat_dependence_witness) only when deg_y g < max_y_total_deg, and with
    one the levels start at max_y_total_deg.

    A returned f lies in the box and satisfies the equation exactly, or
    VerificationError is raised; None only means no preimage exists within
    the box.
    """
    n = d.arity
    if target.arity != n:
        raise ValueError("arity mismatch")
    if max_x_deg < 0 or max_y_total_deg < 0:
        raise ValueError("bounds must be nonnegative")
    goal: dict[tuple[int, ...], dict[int, Rational]] = {}
    for (xe, *ye), v in target.terms().items():
        goal.setdefault(tuple(ye), {})[xe] = v
    if any(sum(ye) > max_y_total_deg for ye in goal):
        return None
    pairs = d.coeff_pairs()
    top = max(map(sum, goal), default=-1)
    if top < max_y_total_deg and nat_dependence_witness([a for a, _ in pairs]) is not None:
        top = max_y_total_deg
    # z[gamma][0] + sum_k t_k z[gamma][k]; one list entry per free constant
    z: dict[tuple[int, ...], list[UniPoly]] = {}
    # rows [constant, coefficient of t_1, ...] whose affine value must vanish
    conditions: list[list[Rational]] = []
    num_t = 0
    for total in range(top, -1, -1):
        for gamma in _y_levels(n, total):
            rhs = [UniPoly(goal.get(gamma, {}))] + [UniPoly.zero()] * num_t
            a_gamma = UniPoly.zero()
            for j, (a, b) in enumerate(pairs):
                if gamma[j]:
                    a_gamma = a_gamma + a * gamma[j]
                upper = z.get(gamma[:j] + (gamma[j] + 1,) + gamma[j + 1 :])
                if upper is not None and not b.is_zero:
                    scale = b * (gamma[j] + 1)
                    for k, part in enumerate(upper):
                        rhs[k] = rhs[k] - scale * part
            reduced = [reduce_linear_ode(a_gamma, c) for c in rhs]
            level = [zk for zk, _ in reduced]
            if total and a_gamma.is_zero:
                num_t += 1
                level.append(UniPoly.one())
            remainders = [rk for _, rk in reduced]
            if not (
                _add_conditions(remainders, 0, conditions)
                and _add_conditions(level, max_x_deg + 1, conditions)
            ):
                return None
            z[gamma] = level
    t = [Fraction(0)] * num_t
    if conditions:
        rows = [row[1:] + [Fraction(0)] * (num_t + 1 - len(row)) for row in conditions]
        space = QMatrix(rows, cols=num_t).solve_affine([-row[0] for row in conditions])
        if space is None:
            return None
        t = list(space.particular)
    terms: dict[tuple[int, ...], Rational] = {}
    for gamma, level in z.items():
        zg = level[0]
        for tk, part in zip(t, level[1:]):
            if tk:
                zg = zg + part * tk
        for xe, v in zg.items():
            terms[(xe, *gamma)] = v
    f = MultiPoly(n, terms)
    if f.degree_x > max_x_deg or apply_derivation(d, f) != target:
        raise VerificationError("preimage failed the exact check D(f) = target within the box")
    return f


def _add_conditions(parts: list[UniPoly], from_deg: int, out: list[list[Rational]]) -> bool:
    """Append the conditions that every coefficient of x-degree >= from_deg of
    the affine polynomial parts[0] + sum_k t_k parts[k] vanishes; False if
    one of them can never hold."""
    degrees = sorted({e for p in parts for e, _ in p.items() if e >= from_deg})
    for e in degrees:
        row = [p.coeff(e) for p in parts]
        if not any(row[1:]):
            if row[0]:
                return False
            continue
        out.append(row)
    return True


def _y_levels(n: int, total: int):
    """Every gamma in N^n with |gamma| = total, by stars and bars."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for bars in itertools.combinations(range(total + n - 1), n - 1):
        prev = -1
        gamma = []
        for bar in bars + (total + n - 1,):
            gamma.append(bar - prev - 1)
            prev = bar
        yield tuple(gamma)
