import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shamsuddin
from conftest import (
    compose,
    constant_poly,
    dense_preimage_oracle,
    derivations,
    iso_rows_oracle,
    multipolys,
    rand_triangular,
    span_dim,
    total_y_degree,
    unipolys,
)
from shamsuddin import analysis, cli, linalg, ode
from shamsuddin import (
    AffineEndo,
    Derivation,
    IsotropyCase,
    MultiPoly,
    MzTag,
    PolyEndo,
    QMatrix,
    TriangularDerivation,
    UniPoly,
    VerificationError,
    affine_commutes,
    affine_is_automorphism,
    affine_to_endo,
    apply_derivation,
    commutes,
    is_locally_finite,
    is_simple,
    is_simple_block,
    isotropy_describe_block,
    isotropy_is_trivial,
    isotropy_witness,
    mz_classify,
    nat_dependence_witness,
    normalize,
    preimage_bounded,
    sample_isotropy_element,
)

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


def test_is_simple_block_examples():
    simple, witness = is_simple_block(X, [ONE])
    assert simple and witness is None

    simple, witness = is_simple_block(ONE, [X])
    assert not simple
    assert witness == ((1,), -X - 1)


@given(unipolys(3))
def test_zero_a_block_never_simple(b):
    simple, witness = is_simple_block(ZERO, [b])
    assert not simple and witness is not None
    k, z = witness
    rhs = ZERO
    for kj, bj in zip(k, [b]):
        rhs = rhs + bj * kj
    assert z.derivative() == rhs


@pytest.mark.parametrize(
    "a, bs",
    [
        (ONE, [X]),
        (ZERO, [ONE, X**3, X + 1]),
        (X**2 + 1, [X**40 + X, X**39 - 2, X**38, X**5 + 3]),
        (X**3 - X, [X**60 + 1, X**59, X**58 - X, X**57, X**56 + X**2, X**55]),
    ],
)
def test_simplicity_eliminates_only_k_columns(monkeypatch, a, bs):
    """Deciding simplicity row-reduces nothing wider than the r weights k."""
    widths = []
    for module in (linalg, ode):
        original = module.rref_rows

        def recording(vectors, original=original):
            widths.extend(len(v) for v in vectors)
            return original(vectors)

        monkeypatch.setattr(module, "rref_rows", recording)
    simple, _ = is_simple_block(a, bs)
    assert not simple and widths
    assert max(widths) <= len(bs)


def test_unchecked_simplicity_witness_raises(monkeypatch):
    original = ode.reduce_linear_ode

    def perturbed(a, c):
        z, rem = original(a, c)
        return z + X, rem

    monkeypatch.setattr(ode, "reduce_linear_ode", perturbed)
    for a, bs in [(ZERO, [ONE]), (ONE, [X]), (X, [ONE, X])]:
        with pytest.raises(VerificationError):
            is_simple_block(a, bs)


def test_unchecked_isotropy_particular_raises(monkeypatch):
    original = ode.reduce_linear_ode

    def perturbed(a, c):
        z, rem = original(a, c)
        return z + X**2, rem

    monkeypatch.setattr(ode, "reduce_linear_ode", perturbed)
    for a, bs in [(ZERO, [ONE]), (ONE, [X]), (constant_poly(-2), [X, ONE])]:
        desc = isotropy_describe_block(a, bs)
        with pytest.raises(VerificationError):
            desc.reduction.isotropy_rows(1)


def test_is_simple_examples():
    assert is_simple(normalize([(X, ONE)])).simple
    verdict = is_simple(normalize([(X, ONE), (ONE, X)]))
    assert not verdict.simple
    by_block = dict(verdict.per_block)
    assert by_block[0] is None and by_block[1] is not None
    assert not is_simple(normalize([(ZERO, ONE)])).simple


def test_isotropy_is_trivial_examples():
    assert isotropy_is_trivial(normalize([(X, ONE)]))
    assert not isotropy_is_trivial(normalize([(ONE, ZERO)]))
    assert not isotropy_is_trivial(normalize([(ONE, X)]))


def test_known_witnesses():
    # a = 1, b = x: mix the ODE solution -x-1 into y1 with scale 2
    rho = isotropy_witness(normalize([(ONE, X)]))
    expected = PolyEndo(
        MultiPoly.x(1), (-MultiPoly.y(1, 1) - 2 * MultiPoly.x(1) - 2,)
    )
    assert affine_to_endo(rho) == expected

    # b = 0: scaling
    rho = isotropy_witness(normalize([(ONE, ZERO)]))
    assert affine_to_endo(rho) == PolyEndo(MultiPoly.x(1), (2 * MultiPoly.y(1, 1),))

    # a = 0: antiderivative family
    rho = isotropy_witness(normalize([(ZERO, ONE)]))
    assert affine_to_endo(rho) == PolyEndo(
        MultiPoly.x(1), (2 * MultiPoly.y(1, 1) - MultiPoly.x(1),)
    )

    assert isotropy_witness(normalize([(X, ONE)])) is None


def test_witness_invertibility_checked_in_library(monkeypatch):
    monkeypatch.setattr(analysis, "affine_is_automorphism", lambda rho: False)
    with pytest.raises(VerificationError):
        isotropy_witness(normalize([(ONE, X)]))


def test_witness_for_multi_block():
    d = normalize([(X, ONE), (ONE, X)])
    rho = isotropy_witness(d)
    assert isinstance(rho, AffineEndo)
    endo = affine_to_endo(rho)
    assert not endo.is_identity
    assert commutes(endo, d)
    # the simple block keeps its variable fixed
    assert endo.images_of_y[0] == MultiPoly.y(2, 1)


@settings(max_examples=80)
@given(derivations())
def test_witness_equivalence(d):
    verdict = is_simple(d)
    rho = isotropy_witness(d)
    if verdict.simple:
        assert rho is None
    else:
        assert isinstance(rho, AffineEndo)
        endo = affine_to_endo(rho)
        assert not endo.is_identity
        assert commutes(endo, d)
        assert affine_is_automorphism(rho)


@pytest.mark.parametrize(
    "pairs, moved",
    [
        # block a = x owns y1 and y3, with kernel k = (1, -1): y1 -> -y1 + 2*y3
        ([(X, ONE), (X + 1, ONE), (X, ONE)], {1: {1: -1, 3: 2}}),
        # the same block with b3 = 0 scales y3 alone
        ([(X, ONE), (X + 1, ONE), (X, ZERO)], {3: {3: 2}}),
        # block a = 0 owns y1 and y3: y1 -> 2*y1 - x^2/2 moves along h1 = x^2/2
        ([(ZERO, X), (X, ONE), (ZERO, ONE)], {1: {1: 2}}),
    ],
    ids=["ode_witness", "b_zero", "a_zero"],
)
def test_witness_moves_only_its_block(pairs, moved):
    """The witness is written at the global indices of a non-simple block
    whose variables are interleaved with another block's: it changes only
    the rows named in moved, and there only the block's own columns."""
    d = normalize(pairs)
    (block,) = [blk for blk in d.blocks if blk.var_indices == (1, 3)]
    rho = isotropy_witness(d)
    assert isinstance(rho, AffineEndo) and rho.c == 0
    for t in range(1, d.arity + 1):
        row = {j: rho.C.entry(t - 1, j - 1) for j in range(1, d.arity + 1) if rho.C.entry(t - 1, j - 1)}
        if t in moved:
            assert row == moved[t] and set(row) <= set(block.var_indices)
        else:
            assert row == {t: 1} and rho.g0[t - 1].is_zero
    assert affine_commutes(rho, d) and commutes(affine_to_endo(rho), d)
    # the same C and g written at the block's local indices 1, 2 would act on
    # y2 of the other block; that map does not commute, unless the witness
    # moves only y1, which has index 1 either way
    local = AffineEndo(
        rho.c,
        QMatrix([[rho.C.entry(i, j) for j in (0, 2, 1)] for i in (0, 2, 1)], cols=3),
        (rho.g0[0], rho.g0[2], rho.g0[1]),
    )
    if set(moved) == {1} and set(moved[1]) == {1}:
        assert local == rho
    else:
        assert not affine_commutes(local, d) and not commutes(affine_to_endo(local), d)


def test_describe_constant_a():
    desc = isotropy_describe_block(ONE, [ZERO])
    assert desc.case is IsotropyCase.A_CONST and not desc.shift_forced_zero
    (space,) = desc.reduction.isotropy_rows(0)
    assert space.dim == 1  # the C entry is free; g is forced (to 0 here)
    member = sample_isotropy_element(desc, seed=1)
    assert member is not None
    rho = affine_to_endo(member)
    assert commutes(rho, normalize([(ONE, ZERO)])) and affine_is_automorphism(member)


def test_describe_deg_ge_1_identity_only():
    desc = isotropy_describe_block(X, [ONE])
    assert desc.case is IsotropyCase.A_DEG_GE_1 and desc.shift_forced_zero
    (space,) = desc.reduction.isotropy_rows(0)
    assert space.dim == 0
    assert space.particular == (1,)  # C = (1), no g coefficients
    member = sample_isotropy_element(desc, seed=0)
    assert affine_to_endo(member).is_identity
    with pytest.raises(ValueError):
        desc.reduction.isotropy_rows(1)


@pytest.mark.parametrize(
    "deriv",
    [
        "y1: a=0, b=x^2 ; y2: a=0, b=1 ; y3: a=0, b=x",
        "y1: a=2, b=x^2+1 ; y2: a=2, b=x ; y3: a=2, b=0",
        "y1: a=x+1, b=x^3 ; y2: a=x+1, b=x^2-1 ; y3: a=x+1, b=1",
    ],
)
def test_describe_reduces_each_b_once(monkeypatch, deriv):
    """describe builds one block reduction and reads every shift it samples
    from it: r b's cost at most r calls of reduce_linear_ode."""
    calls = []
    for module in (ode, analysis):
        original = module.reduce_linear_ode

        def counting(a, c, original=original):
            calls.append(c)
            return original(a, c)

        monkeypatch.setattr(module, "reduce_linear_ode", counting)
    for seed in (0, 1, 5, 9):
        calls.clear()
        argv = ["describe", "--deriv", deriv, "--seed", str(seed)]
        assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
        assert len(calls) <= 3


@pytest.mark.parametrize(
    "deriv",
    [
        "y1: a=2, b=x^2+1 ; y2: a=2, b=x ; y3: a=2, b=0",
        "y1: a=-2, b=x^3 ; y2: a=-2, b=x^2-1 ; y3: a=-2, b=1",
        "y1: a=x+1, b=x^3 ; y2: a=x+1, b=x^2-1 ; y3: a=x+1, b=1",
        "y1: a=x^3-x, b=x^5 ; y2: a=x^3-x, b=x^4+2",
    ],
)
def test_describe_row_reduces_once(monkeypatch, deriv):
    """The isotropy rows' homogeneous basis does not depend on the shift:
    one describe request, which reads the rows at c = 0 and once per
    sampled draw, row-reduces it exactly once."""
    calls = []
    original = linalg.rref_rows

    def counting(vectors):
        calls.append(len(vectors))
        return original(vectors)

    for module in (linalg, ode):
        monkeypatch.setattr(module, "rref_rows", counting)
    for seed in (0, 1, 5, 9):
        calls.clear()
        argv = ["describe", "--deriv", deriv, "--seed", str(seed)]
        assert cli.run(argv, io.StringIO(), io.StringIO()) == 0
        assert len(calls) == 1


def test_describe_zero_a():
    desc = isotropy_describe_block(ZERO, [ONE])
    assert desc.case is IsotropyCase.A_ZERO
    assert desc.reduction.zs == (X,)
    member = sample_isotropy_element(desc, seed=3)
    assert isinstance(member, AffineEndo)
    assert commutes(affine_to_endo(member), normalize([(ZERO, ONE)]))


@settings(max_examples=40)
@given(unipolys(2), st.lists(unipolys(2), min_size=1, max_size=2), st.integers(0, 5))
def test_sampled_members_always_commute(a, bs, seed):
    desc = isotropy_describe_block(a, bs)
    member = sample_isotropy_element(desc, seed=seed)
    if member is None:
        return
    assert isinstance(member, AffineEndo)
    block = normalize([(a, b) for b in bs])
    assert commutes(affine_to_endo(member), block)


def test_sample_is_seed_deterministic():
    desc = isotropy_describe_block(ONE, [X, ZERO])
    assert sample_isotropy_element(desc, seed=7) == sample_isotropy_element(desc, seed=7)


def test_describe_row_spaces_sound_and_complete():
    """Dual route for nonzero a: every generator point of a row space solves
    the row ODE (soundness), and every integer C-row whose ODE is solvable
    lands inside the space (completeness)."""
    import itertools

    from fractions import Fraction

    from conftest import affine_space_contains, solve_linear_ode

    cases = [(ONE, [X]), (X**2, [X**2]), (X, [ONE, X])]
    for a, bs in cases:
        desc = isotropy_describe_block(a, bs)
        spaces = desc.reduction.isotropy_rows(0)
        r = len(bs)
        bound = desc.reduction.bound if desc.reduction.bound is not None else -1
        for t in range(r):
            space = spaces[t]
            corners = [space.particular] + [
                space.point([1 if i == j else 0 for i in range(space.dim)])
                for j in range(space.dim)
            ]
            for point in corners:
                g = UniPoly(enumerate(point[r:]))
                rhs = bs[t]
                for v, b in zip(point[:r], bs):
                    rhs = rhs - b * v
                assert g.derivative() == a * g + rhs
            for row in itertools.product(range(-2, 3), repeat=r):
                rhs = bs[t]
                for v, b in zip(row, bs):
                    rhs = rhs - b * v
                sol = solve_linear_ode(a, rhs)
                if sol.particular is None:
                    continue
                assert sol.particular.is_zero or sol.particular.degree <= bound
                point = tuple(Fraction(v) for v in row) + sol.particular.coeff_vector(bound)
                assert affine_space_contains(space, point)


@st.composite
def isotropy_blocks(draw):
    """(a, bs, c): a of any degree (0 and constants included), b's that may
    vanish or depend linearly on earlier ones, and a shift c, nonzero only
    where the shift is free."""
    a = draw(unipolys(3))
    bs = draw(st.lists(unipolys(5), min_size=1, max_size=4))
    if draw(st.booleans()):
        first, second = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        bs.append(bs[0] * first + bs[-1] * second)
    c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2)) if a.degree <= 0 else 0
    return a, bs, c


@settings(max_examples=150)
@given(isotropy_blocks(), st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), max_size=3))
def test_iso_row_spaces_equal_dense_oracle(block, more_shifts):
    """Same particular solution and same basis as the dense row solve, not
    only the same span: samples are drawn from these exact vectors.  One
    reduction serves every shift in turn, so its cached basis must not
    depend on the shift."""
    a, bs, c = block
    reduction = isotropy_describe_block(a, bs).reduction
    for shift in [c, *(more_shifts if a.degree <= 0 else [0] * len(more_shifts))]:
        assert reduction.isotropy_rows(shift) == iso_rows_oracle(a, bs, shift)


#: shifts each fixed case also reads, in turn, from the same reduction
#: (only where the shift is free)
MORE_SHIFTS = (0, Fraction(-1, 2), 2, -1)


@pytest.mark.parametrize(
    "a, bs, c",
    [
        (ZERO, [X, ONE], 2),  # a = 0
        (ZERO, [ZERO, X**2], 0),  # a = 0 with a vanishing b
        (constant_poly(3), [X**2 + 1, X], -1),  # constant a, shift c != 0
        (ONE, [X, X * 2, ZERO], 1),  # dependent b's and b_3 = 0
        (X + 1, [X**3, X**2 - 1, X**3 * 2 - X**2 + 1], 0),  # deg a >= 1, b_3 = 2 b_1 - b_2
        (X**2, [ONE, X], 0),  # every deg b_j < deg a: g forced to 0
        (X**2 - X, [X**4, ZERO], 0),  # deg a >= 1 with b_2 = 0
    ],
)
def test_iso_row_spaces_fixed_cases(a, bs, c):
    reduction = isotropy_describe_block(a, bs).reduction
    for shift in [c, *(MORE_SHIFTS if a.degree <= 0 else [0])]:
        assert reduction.isotropy_rows(shift) == iso_rows_oracle(a, bs, shift)


def test_zero_a_family_nonaffine_member_commutes():
    # a = 0 block with b = (1, x): shift x along w1 = y1 - x and verify a
    # member whose y2 image is genuinely quadratic
    d = normalize([(ZERO, ONE), (ZERO, X)])
    n = 2
    y1, y2, x = MultiPoly.y(n, 1), MultiPoly.y(n, 2), MultiPoly.x(n)
    f = y1  # x + p(w) with p = w1 = y1 - x
    h1, h2 = ONE.integral(), X.integral()
    rho = PolyEndo(
        f,
        (
            compose(h1, f) + (y1 - h1.lift(n)),
            compose(h2, f) + (y2 - h2.lift(n)),
        ),
    )
    assert total_y_degree(rho.images_of_y[1]) == 2  # not affine in y
    assert commutes(rho, d)


def test_locally_finite_examples():
    tri = TriangularDerivation(
        2,
        (constant_poly(2), constant_poly(-1)),
        (MultiPoly.zero(2), MultiPoly.y(2, 1) ** 2),
    )
    assert is_locally_finite(tri)

    tri2 = TriangularDerivation(1, (X,), (MultiPoly.zero(1),))
    assert not is_locally_finite(tri2)

    assert is_locally_finite(TriangularDerivation(0, (), ()))


def test_locally_finite_probes():
    rng = random.Random(42)
    for _ in range(10):
        tri = rand_triangular(rng, constant_a=True)
        for j in range(1, tri.arity + 1):
            dims = span_dim(tri, MultiPoly.y(tri.arity, j), 30)
            assert dims[-1] == dims[-2]
    for _ in range(10):
        tri = rand_triangular(rng, constant_a=False)
        i0 = next(j for j, a in enumerate(tri.a, start=1) if a.degree >= 1)
        dims = span_dim(tri, MultiPoly.y(tri.arity, i0), 15)
        assert all(b == a + 1 for a, b in zip(dims, dims[1:]))


def test_nat_dependence_examples():
    assert nat_dependence_witness([X]) is None
    assert nat_dependence_witness([X, -X]) == (1, 1)
    assert nat_dependence_witness([ONE, X, X**2]) is None  # linearly independent
    assert nat_dependence_witness([ZERO, X]) == (1, 0)


def test_mz_examples():
    assert mz_classify(normalize([(X, ONE)])).tag is MzTag.NOT_MZ
    assert mz_classify(normalize([(ONE, ONE)])).tag is MzTag.IS_MZ

    verdict = mz_classify(normalize([(X, ZERO), (-X, ONE)]))
    assert verdict.tag is MzTag.UNKNOWN
    assert verdict.gamma == (1, 1)


def test_mz_multi_block_rules():
    # distinct constants: two blocks, still IS_MZ
    assert mz_classify(normalize([(ONE, X), (constant_poly(2), ONE)])).tag is MzTag.IS_MZ
    # independent a's with a nonconstant one: NOT_MZ
    verdict = mz_classify(normalize([(X, ONE), (ONE, ONE)]))
    assert verdict.tag is MzTag.NOT_MZ and verdict.gamma is None


@settings(max_examples=80)
@given(derivations())
def test_mz_rules_are_mutually_exclusive(d):
    verdict = mz_classify(d)
    constant = all(a.degree <= 0 for a, _ in d.coeff_pairs())
    if verdict.tag is MzTag.IS_MZ:
        assert constant
    else:
        assert not constant
    if verdict.tag is MzTag.NOT_MZ:
        assert nat_dependence_witness([a for a, _ in d.coeff_pairs()]) is None
    if verdict.tag is MzTag.UNKNOWN:
        assert verdict.gamma is not None


def test_preimage_examples():
    d_x = Derivation(0, ())
    assert preimage_bounded(d_x, MultiPoly.one(0), 8, 4) == MultiPoly.x(0)

    d = normalize([(ONE, ONE)])  # D(y1) = y1 + 1
    got = preimage_bounded(d, MultiPoly.y(1, 1), 8, 4)
    assert got is not None
    assert apply_derivation(d, got) == MultiPoly.y(1, 1)
    assert got == MultiPoly.y(1, 1) - MultiPoly.x(1)

    hard = normalize([(X, ONE)])
    assert preimage_bounded(hard, MultiPoly.y(1, 1), 8, 4) is None


@settings(max_examples=30, deadline=None)
@given(derivations(max_arity=2, max_deg=2), st.data())
def test_preimage_soundness_on_constructed_targets(d, data):
    f = data.draw(multipolys(arity=d.arity, max_deg=2, max_terms=3))
    g = apply_derivation(d, f)
    mx = int(max(3, f.degree_x if not f.is_zero else 0)) + 3
    my = int(max(1, total_y_degree(f) if not f.is_zero else 0))
    got = preimage_bounded(d, g, mx, my)
    assert got is not None
    assert apply_derivation(d, got) == g


def test_preimage_bound_validation():
    with pytest.raises(ValueError):
        preimage_bounded(Derivation(0, ()), MultiPoly.one(0), -1, 0)


def _check_against_dense(d, g, mx, my):
    """The graded solver agrees with the dense box solve; returns found."""
    got = preimage_bounded(d, g, mx, my)
    want = dense_preimage_oracle(d, g, mx, my)
    assert (got is None) == (want is None)
    if got is None:
        return False
    assert apply_derivation(d, got) == g
    assert all(e[0] <= mx and sum(e[1:]) <= my for e in got.terms())
    if nat_dependence_witness([a for a, _ in d.coeff_pairs()]) is None:
        assert got == want
    return True


def _in_box(f, mx, my):
    return MultiPoly(f.arity, {e: v for e, v in f.terms().items() if e[0] <= mx and sum(e[1:]) <= my})


@settings(max_examples=60, deadline=None)
@given(
    derivations(max_arity=3, max_deg=2),
    st.integers(0, 3),
    st.integers(0, 2),
    st.booleans(),
    st.data(),
)
def test_graded_preimage_matches_dense_oracle(d, mx, my, planted, data):
    f0 = data.draw(multipolys(arity=d.arity, max_deg=3, max_terms=4))
    g = apply_derivation(d, _in_box(f0, mx, my)) if planted else f0
    found = _check_against_dense(d, g, mx, my)
    assert found or not planted


_DEPENDENT_CASES = [
    [(X, ONE), (-X, X)],  # a2 = -a1
    [(X + 1, X), (-2 * (X + 1), ONE)],  # a2 = -2*a1
    [(X, ONE), (-X, ZERO), (X**2 + 1, X)],  # a third, independent block; b2 = 0
    [(X, ZERO), (-2 * X, ZERO)],  # every b_j = 0
    [(X, X), (-X, ONE), (X, ZERO)],  # a2 = -a1 with a shared block
    [(ZERO, ONE), (X, ONE)],  # a1 = 0 is a dependence by itself
]


def _y_exps(n, my):
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(my + 1)]
    return [e for e in out if sum(e) <= my]


@pytest.mark.parametrize("pairs", _DEPENDENT_CASES)
def test_graded_preimage_dependent_cases(pairs):
    d = normalize(pairs)
    n = d.arity
    assert nat_dependence_witness([a for a, _ in d.coeff_pairs()]) is not None
    rng = random.Random(n)
    found = 0
    for mx in range(3):
        for my in range(1, 3):
            box = [(xe, *ye) for xe in range(mx + 1) for ye in _y_exps(n, my)]
            for _ in range(4):
                f0 = MultiPoly(n, {e: rng.randint(-3, 3) for e in rng.sample(box, min(3, len(box)))})
                found += _check_against_dense(d, apply_derivation(d, f0), mx, my)
                g = MultiPoly(n, {e: rng.randint(-2, 2) for e in rng.sample(box, min(2, len(box)))})
                _check_against_dense(d, g, mx, my)
    assert found == 2 * 3 * 4


def test_graded_preimage_dependent_kernel():
    # a2 = -a1 puts y1*y2 in the kernel: the t of level (1, 1) is free
    d = normalize([(X, ONE), (-X, X)])
    g = apply_derivation(d, MultiPoly(2, {(0, 1, 1): 1}))
    assert _check_against_dense(d, g, 2, 2)
    assert not _check_against_dense(d, MultiPoly(2, {(0, 1, 1): 1}), 3, 2)


def test_preimage_without_dependence_starts_at_the_target_degree(monkeypatch):
    # without an N-dependence every level above deg_y g solves to 0, so a large
    # y-degree cap solves no more levels than the target's own y-degree
    calls = []
    reduce = analysis.reduce_linear_ode

    def bounded(a, b):
        calls.append(a)
        if len(calls) > 20:
            raise AssertionError("preimage solved levels above the target's y-degree")
        return reduce(a, b)

    monkeypatch.setattr(analysis, "reduce_linear_ode", bounded)
    y = [MultiPoly.y(3, j) for j in (1, 2, 3)]
    cases = [
        (normalize([(X, ONE)]), MultiPoly.x(1) * MultiPoly.y(1, 1), 100000),
        (normalize([(X, ONE), (X + 1, X), (X**2 + 1, ONE)]), y[0] * y[1] + MultiPoly.x(3) * y[2], 93),
    ]
    for d, f, cap in cases:
        assert nat_dependence_witness([a for a, _ in d.coeff_pairs()]) is None
        g = apply_derivation(d, f)
        calls.clear()
        assert preimage_bounded(d, g, 8, cap) == f
        calls.clear()
        assert preimage_bounded(d, g, 8, total_y_degree(g)) == f
    # with a dependence a preimage may need levels above deg_y g: a2 = -a1
    # gives D(y1*y2) = y1 + y2
    d = normalize([(X, ONE), (-X, ONE)])
    g = MultiPoly.y(2, 1) + MultiPoly.y(2, 2)
    calls.clear()
    assert preimage_bounded(d, g, 2, 1) is None
    calls.clear()
    got = preimage_bounded(d, g, 2, 2)
    assert got is not None and apply_derivation(d, got) == g


def test_preimage_check_raises_verification_error(monkeypatch):
    d = normalize([(ONE, ONE)])
    monkeypatch.setattr(analysis, "apply_derivation", lambda d, f: MultiPoly.zero(d.arity))
    with pytest.raises(VerificationError):
        preimage_bounded(d, MultiPoly.y(1, 1), 8, 4)


@pytest.mark.parametrize(
    "patch, call",
    [
        (
            "analysis.apply_derivation = lambda d, f: MultiPoly.zero(d.arity)",
            "analysis.preimage_bounded(normalize([(ONE, ONE)]), MultiPoly.y(1, 1), 8, 4)",
        ),
        (
            "analysis.affine_commutes = lambda rho, d: False",
            "analysis.isotropy_witness(normalize([(ONE, UniPoly.x())]))",
        ),
        (
            "analysis.QMatrix.matvec = lambda self, v: (1,) * self.rows",
            "analysis.nat_dependence_witness([UniPoly.x(), -UniPoly.x()])",
        ),
        (
            "analysis.QMatrix.entry = lambda self, i, j: -self.row(i)[j]",
            "analysis.nat_dependence_witness([UniPoly.x(), UniPoly.x() + ONE])",
        ),
        (
            "from shamsuddin import ode; _reduce = ode.reduce_linear_ode; "
            "ode.reduce_linear_ode = lambda a, c: (_reduce(a, c)[0] + UniPoly.x() ** 2, _reduce(a, c)[1])",
            "ode.BlockReduction.of(ONE, [UniPoly.x()]).isotropy_rows(1)",
        ),
        (
            "from shamsuddin import ode; _reduce = ode.reduce_linear_ode; "
            "ode.reduce_linear_ode = lambda a, c: (_reduce(a, c)[0] + UniPoly.x(), _reduce(a, c)[1])",
            "analysis.is_simple_block(ONE, [UniPoly.x()])",
        ),
    ],
    ids=[
        "preimage",
        "isotropy_witness",
        "dependence",
        "gordan_certificate",
        "isotropy_particular",
        "simplicity_witness",
    ],
)
def test_preimage_check_survives_optimize_flag(patch, call):
    code = (
        "from shamsuddin import MultiPoly, UniPoly, VerificationError, analysis, normalize\n"
        "ONE = UniPoly.one()\n"
        f"{patch}\n"
        "try:\n"
        f"    {call}\n"
        "except VerificationError:\n"
        "    print('raised')\n"
    )
    src = str(Path(shamsuddin.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.stdout.strip() == "raised", proc.stderr
