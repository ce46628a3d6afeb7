from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    affine_inverse,
    block_derivation,
    constant_poly,
    derivations,
    endo_compose,
    from_coeffs,
    multipolys,
    small_ints,
    unipolys,
)
from shamsuddin import (
    AffineEndo,
    MultiPoly,
    PolyEndo,
    QMatrix,
    UniPoly,
    affine_commutes,
    affine_is_automorphism,
    affine_to_endo,
    apply_derivation,
    commutes,
    endo_apply,
    endo_to_affine,
    isotropy_describe_block,
    isotropy_witness,
    normalize,
    sample_isotropy_element,
)

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


def _endo(arity, fx, *ys):
    return PolyEndo(fx, tuple(ys))


def test_endo_apply_examples():
    ident = PolyEndo.identity(1)
    f = MultiPoly.x(1) * MultiPoly.y(1, 1) + 3
    assert endo_apply(ident, f) == f

    double = _endo(1, MultiPoly.x(1), 2 * MultiPoly.y(1, 1))
    assert endo_apply(double, MultiPoly.y(1, 1) ** 2) == 4 * MultiPoly.y(1, 1) ** 2

    shear = _endo(1, MultiPoly.x(1), MultiPoly.y(1, 1) - MultiPoly.x(1))
    assert (
        endo_apply(shear, MultiPoly.x(1) * MultiPoly.y(1, 1))
        == MultiPoly.x(1) * MultiPoly.y(1, 1) - MultiPoly.x(1) ** 2
    )


def test_commutes_examples():
    d_scale = normalize([(ONE, ZERO)])  # D(y1) = y1
    double = _endo(1, MultiPoly.x(1), 2 * MultiPoly.y(1, 1))
    assert commutes(PolyEndo.identity(1), d_scale)
    assert commutes(double, d_scale)

    d_shifted = normalize([(ONE, ONE)])  # D(y1) = y1 + 1
    assert not commutes(double, d_shifted)


@given(derivations(), st.data())
def test_commutes_extends_to_all_polynomials(d, data):
    """Generator agreement is agreement everywhere (both sides are
    derivations along the endomorphism)."""
    n = d.arity
    # an endo commuting with d: scale a b=0 variable, else identity
    images = [MultiPoly.y(n, j) for j in range(1, n + 1)]
    for blk in d.blocks:
        for b, j in zip(blk.bs, blk.var_indices):
            if b.is_zero:
                images[j - 1] = 2 * images[j - 1]
    rho = PolyEndo(MultiPoly.x(n), tuple(images))
    if commutes(rho, d):
        f = data.draw(multipolys(arity=n))
        assert endo_apply(rho, apply_derivation(d, f)) == apply_derivation(d, endo_apply(rho, f))


def test_affine_is_automorphism_examples():
    assert affine_is_automorphism(AffineEndo.identity(2))
    singular = AffineEndo(Fraction(0), QMatrix([[1, 1], [1, 1]]), (ZERO, ZERO))
    assert not affine_is_automorphism(singular)
    ok = AffineEndo(Fraction(3), QMatrix([[1, -1], [0, 1]]), (X**2, ZERO))
    assert affine_is_automorphism(ok)


def test_affine_to_endo_examples():
    assert affine_to_endo(AffineEndo.identity(2)) == PolyEndo.identity(2)

    shift = AffineEndo(Fraction(1), QMatrix([[1]]), (ZERO,))
    assert affine_to_endo(shift) == _endo(1, MultiPoly.x(1) + 1, MultiPoly.y(1, 1))

    neg = AffineEndo(Fraction(0), QMatrix([[-1]]), (-X - 1,))
    expected = _endo(1, MultiPoly.x(1), -MultiPoly.y(1, 1) - MultiPoly.x(1) - 1)
    assert affine_to_endo(neg) == expected


@settings(max_examples=60)
@given(st.integers(1, 3), st.data())
def test_affine_inverse_composes_to_identity(r, data):
    entries = data.draw(
        st.lists(st.lists(small_ints, min_size=r, max_size=r), min_size=r, max_size=r)
    )
    matrix = QMatrix(entries, cols=r)
    if matrix.det() == 0:
        return
    g0 = tuple(data.draw(unipolys(2)) for _ in range(r))
    c = Fraction(data.draw(small_ints))
    rho = AffineEndo(c, matrix, g0)
    inv = affine_inverse(rho)
    forward = affine_to_endo(rho)
    backward = affine_to_endo(inv)
    assert endo_compose(forward, backward) == PolyEndo.identity(r)
    assert endo_compose(backward, forward) == PolyEndo.identity(r)


def test_endo_to_affine_round_trip():
    rho = AffineEndo(Fraction(2), QMatrix([[1, 2], [0, 1]]), (X, ZERO))
    back = endo_to_affine(affine_to_endo(rho))
    assert back == rho
    # non-affine images are recognized as such
    quad = _endo(1, MultiPoly.x(1), MultiPoly.y(1, 1) ** 2)
    assert endo_to_affine(quad) is None
    moved_x = _endo(1, MultiPoly.x(1) + MultiPoly.y(1, 1), MultiPoly.y(1, 1))
    assert endo_to_affine(moved_x) is None


def test_endo_compose_is_substitution_composition():
    inner = _endo(1, MultiPoly.x(1) + 1, 2 * MultiPoly.y(1, 1))
    outer = _endo(1, MultiPoly.x(1), MultiPoly.y(1, 1) + MultiPoly.x(1))
    composed = endo_compose(outer, inner)
    f = MultiPoly.x(1) * MultiPoly.y(1, 1)
    assert endo_apply(composed, f) == endo_apply(outer, endo_apply(inner, f))


def test_arity_validation():
    with pytest.raises(ValueError):
        PolyEndo(MultiPoly.x(2), (MultiPoly.y(1, 1),))
    with pytest.raises(ValueError):
        AffineEndo(Fraction(0), QMatrix([[1, 0], [0, 1]]), (ZERO,))
    with pytest.raises(ValueError):
        affine_commutes(AffineEndo.identity(2), normalize([(ONE, ZERO)]))


@st.composite
def block_derivations(draw):
    """1-3 blocks with a = 0, a nonzero constant or deg a in 1..3, one or two
    variables each; a block with deg a >= 1 often gets a planted b = z' - a z,
    so that it is not simple and has a witness."""
    pairs = []
    for kind in draw(st.lists(st.sampled_from(["zero", "constant", "degree"]), min_size=1, max_size=3)):
        if kind == "zero":
            a = ZERO
        elif kind == "constant":
            a = constant_poly(draw(st.sampled_from([-2, -1, 1, 2, 3])))
        else:
            lower = draw(st.lists(small_ints, min_size=1, max_size=3))
            a = from_coeffs(lower + [draw(st.sampled_from([-2, -1, 1, 2]))])
        for _ in range(draw(st.integers(1, 2))):
            if kind == "degree" and draw(st.booleans()):
                z = draw(unipolys(2, small_ints))
                pairs.append((a, z.derivative() - a * z))
            else:
                pairs.append((a, draw(unipolys(3, small_ints))))
    return normalize(pairs)


@st.composite
def shifted_chains(draw):
    """Blocks a(x) and a(x + c) with deg a >= 1 and c != 0, and a planted
    map x -> x + c, y1 -> y2 + g1, y2 -> g2 that commutes (C is singular),
    so that a_t(x + c) is used on blocks with deg a >= 1 and still commutes."""
    a = from_coeffs(draw(st.lists(small_ints, min_size=1, max_size=3)) + [1])
    c = draw(st.sampled_from([-2, -1, 1, 2]))
    g1, g2 = draw(unipolys(2, small_ints)), draw(unipolys(2, small_ints))
    a2 = a.shift(c)
    b2 = (g2.derivative() - a2.shift(c) * g2).shift(-c)
    b1 = (b2 + g1.derivative() - a2 * g1).shift(-c)
    rho = AffineEndo(Fraction(c), QMatrix([[0, 1], [0, 0]]), (g1, g2))
    return normalize([(a, b1), (a2, b2)]), rho


def _with_entry(rho, t, j, value):
    rows = rho.C.row_list()
    rows[t][j] = Fraction(value)
    return AffineEndo(rho.c, QMatrix(rows, cols=rho.arity), rho.g0)


def _perturbed(rho, d, draw):
    """The map with x added to one g_t, one C entry flipped, the shift moved
    (when d has a block with deg a >= 1), and a C entry across two blocks."""
    n = rho.arity
    t = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    g0 = list(rho.g0)
    g0[t] = g0[t] + X
    out = [
        AffineEndo(rho.c, rho.C, tuple(g0)),
        _with_entry(rho, t, j, 0 if rho.C.entry(t, j) else 1),
    ]
    if any(blk.a.degree >= 1 for blk in d.blocks):
        out.append(AffineEndo(rho.c + 1, rho.C, rho.g0))
    if len(d.blocks) > 1:
        first, second = draw(st.permutations(d.blocks))[:2]
        out.append(_with_entry(rho, first.var_indices[0] - 1, second.var_indices[0] - 1, 1))
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(block_derivations().map(lambda d: (d, None)), shifted_chains()),
    st.integers(0, 3),
    st.data(),
)
def test_affine_commutes_equals_substitution_check(planted, seed, data):
    """The univariate identities give the verdict of the generic check, on the
    witness and samples the library prints and on perturbed copies of them."""
    d, chain = planted
    cases = [(AffineEndo.identity(d.arity), d)]
    if chain is not None:
        assert affine_commutes(chain, d)
        cases.append((chain, d))
    witness = isotropy_witness(d)
    if witness is not None:
        cases.append((witness, d))
    for index, blk in enumerate(d.blocks):
        sample = sample_isotropy_element(isotropy_describe_block(blk.a, blk.bs), seed)
        if sample is not None:
            cases.append((sample, block_derivation(d, index)))
    cases += [(bad, dd) for rho, dd in list(cases) for bad in _perturbed(rho, dd, data.draw)]
    verdicts = []
    for rho, dd in cases:
        fast = affine_commutes(rho, dd)
        assert fast == commutes(affine_to_endo(rho), dd), (rho, dd)
        verdicts.append(fast)
    # the printed maps commute, and x added to g_t never does
    assert True in verdicts and False in verdicts
