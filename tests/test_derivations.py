import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    block_derivation,
    derivations,
    multipolys,
    rationals,
    span_dim,
    to_triangular,
    unipolys,
)
from shamsuddin import (
    Derivation,
    MultiPoly,
    TriangularDerivation,
    UniPoly,
    apply_derivation,
    normalize,
)

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


def test_normalize_merges_equal_a():
    d = normalize([(X, ONE), (X, X)])
    assert len(d.blocks) == 1
    assert d.blocks[0].bs == (ONE, X)
    assert d.blocks[0].var_indices == (1, 2)


def test_normalize_keeps_distinct_a_apart():
    d = normalize([(X, ONE), (X + 1, ZERO)])
    assert len(d.blocks) == 2


def test_normalize_zero_a():
    d = normalize([(ZERO, ONE)])
    assert len(d.blocks) == 1 and d.blocks[0].a == ZERO


def test_normalize_rejects_multivariate_b():
    with pytest.raises(TypeError):
        normalize([(X, MultiPoly.y(1, 1))])


def test_apply_definition():
    d = normalize([(X, ONE)])  # D(y1) = x y1 + 1
    assert apply_derivation(d, MultiPoly.x(1)) == MultiPoly.one(1)
    y1 = MultiPoly.y(1, 1)
    assert apply_derivation(d, y1) == MultiPoly.x(1) * y1 + 1
    # Leibniz on y1 * y1
    assert apply_derivation(d, y1**2) == 2 * MultiPoly.x(1) * y1**2 + 2 * y1


def test_apply_arity_mismatch():
    d = normalize([(X, ONE)])
    with pytest.raises(ValueError):
        apply_derivation(d, MultiPoly.x(2))


@given(derivations(), st.data())
def test_leibniz_and_linearity(d, data):
    f = data.draw(multipolys(arity=d.arity))
    g = data.draw(multipolys(arity=d.arity))
    alpha = data.draw(rationals)
    assert apply_derivation(d, f * g) == apply_derivation(d, f) * g + f * apply_derivation(d, g)
    assert apply_derivation(d, f * alpha + g) == apply_derivation(d, f) * alpha + apply_derivation(d, g)


@given(st.lists(st.tuples(unipolys(2), unipolys(2)), min_size=1, max_size=3), st.data())
def test_normalize_preserves_action(pairs, data):
    d = normalize(pairs)
    n = len(pairs)
    tri = TriangularDerivation(
        n, tuple(a for a, _ in pairs), tuple(b.lift(n) for _, b in pairs)
    )
    f = data.draw(multipolys(arity=n))
    assert apply_derivation(d, f) == apply_derivation(tri, f)


def test_triangular_rejects_forward_dependency():
    bad = MultiPoly.y(2, 2)  # b_1 may not involve y2
    with pytest.raises(ValueError):
        TriangularDerivation(2, (ZERO, ZERO), (bad, MultiPoly.zero(2)))


def test_span_dim_examples():
    d = normalize([(ONE, ZERO)])  # D(y1) = y1
    assert span_dim(d, MultiPoly.y(1, 1), 5) == [1, 1, 1, 1, 1, 1]

    d_x = Derivation(0, ())
    assert span_dim(d_x, MultiPoly.x(0), 3) == [1, 2, 2, 2]

    d2 = normalize([(X, ZERO)])  # D(y1) = x y1
    dims = span_dim(d2, MultiPoly.y(1, 1), 4)
    assert all(b > a for a, b in zip(dims, dims[1:]))


def test_block_derivation_and_to_triangular():
    d = normalize([(X, ONE), (X + 1, ZERO), (X, X)])
    local = block_derivation(d, 0)
    assert local.arity == 2
    assert local.blocks[0].bs == (ONE, X)
    tri = to_triangular(d)
    assert tri.arity == 3
    f = MultiPoly.y(3, 2) * MultiPoly.x(3)
    assert apply_derivation(tri, f) == apply_derivation(d, f)


def test_coeff_pairs_order():
    d = normalize([(X, ONE), (X + 1, ZERO), (X, X)])
    pairs = d.coeff_pairs()
    assert pairs[0] == (X, ONE)
    assert pairs[1] == (X + 1, ZERO)
    assert pairs[2] == (X, X)
