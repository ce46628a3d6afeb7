from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_ode_solutions,
    brute_param_nullspace,
    constant_poly,
    from_coeffs,
    rationals,
    rref_witness_oracle,
    solve_linear_ode,
    solve_parametric,
    unipolys,
)
from shamsuddin import UniPoly, degree_bound, reduce_linear_ode, rref_rows
from shamsuddin.ode import BlockReduction

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


def _pairs_to_vectors(space, cap):
    return [list(k) + list(z.coeff_vector(cap)) for k, z in space.basis]


def _satisfies(a, bs, k, z):
    rhs = a * z
    for kj, b in zip(k, bs):
        rhs = rhs + b * kj
    return z.derivative() == rhs


def test_degree_bound_examples():
    assert degree_bound(X, [ONE]) is None
    assert degree_bound(ONE, [X]) == 1
    assert degree_bound(ZERO, [X**2]) == 3


def test_degree_bound_edge_cases():
    assert degree_bound(ZERO, [ZERO]) == 0  # constants still solve z' = 0
    assert degree_bound(ONE, [ZERO]) is None
    assert degree_bound(X**2, [X**3, X]) == 1


def test_solve_linear_ode_examples():
    sol = solve_linear_ode(ZERO, ONE)
    assert sol.particular == X and sol.homogeneous_dim == 1

    sol = solve_linear_ode(ONE, X)
    assert sol.particular == -X - 1 and sol.homogeneous_dim == 0

    sol = solve_linear_ode(X, ONE)
    assert sol.particular is None and sol.homogeneous_dim == 0


@given(unipolys(3), unipolys(3))
def test_ode_solutions_verified_by_substitution(a, c):
    sol = solve_linear_ode(a, c)
    assert sol.homogeneous_dim == (1 if a.is_zero else 0)
    if sol.particular is not None:
        assert sol.particular.derivative() == a * sol.particular + c


@given(unipolys(3), unipolys(3))
def test_ode_matches_bruteforce(a, c):
    got = solve_linear_ode(a, c)
    brute = brute_ode_solutions(a, c)
    if brute is None:
        assert got.particular is None
    else:
        particular, homdim = brute
        assert got.particular is not None
        assert homdim == got.homogeneous_dim
        # particulars may differ by a homogeneous solution only when a = 0
        if not a.is_zero:
            assert got.particular == particular


@given(st.integers(-5, -1).map(Fraction) | st.integers(1, 5).map(Fraction), unipolys(4))
def test_constant_a_always_uniquely_solvable(a_const, c):
    sol = solve_linear_ode(constant_poly(a_const), c)
    assert sol.particular is not None and sol.homogeneous_dim == 0
    assert sol.particular.degree == c.degree


def test_solve_parametric_examples():
    space = solve_parametric(X, [ONE])
    assert space.basis == ()
    assert space.num_params == 1 and space.z_bound is None

    space = solve_parametric(ONE, [X])
    assert len(space.basis) == 1
    # spanned by (k=1, z=-x-1); basis scaling is not pinned
    vectors = _pairs_to_vectors(space, space.z_bound)
    assert rref_rows(vectors) == rref_rows([[Fraction(1), Fraction(-1), Fraction(-1)]])

    space = solve_parametric(X**2, [X, -X])
    vectors = _pairs_to_vectors(space, space.z_bound if space.z_bound is not None else -1)
    member = [Fraction(1), Fraction(1)] + [Fraction(0)] * (len(vectors[0]) - 2)
    assert rref_rows(vectors + [member]) == rref_rows(vectors)


def test_parametric_offset_is_zero_pair():
    space = solve_parametric(ONE, [X])
    k0, z0 = space.offset
    assert not any(k0) and z0.is_zero
    assert space.ambient_dim == space.num_params + (space.z_bound + 1)


@given(unipolys(3), st.lists(unipolys(3), min_size=1, max_size=3))
def test_parametric_soundness(a, bs):
    space = solve_parametric(a, bs)
    for k, z in space.basis:
        assert _satisfies(a, bs, k, z)


@settings(max_examples=60)
@given(unipolys(3), st.lists(unipolys(3), min_size=1, max_size=3))
def test_parametric_completeness_with_headroom(a, bs):
    space = solve_parametric(a, bs)
    brute, cap = brute_param_nullspace(a, bs, extra=5)
    ours = _pairs_to_vectors(space, cap)
    assert rref_rows(ours) == rref_rows(brute)


@given(st.lists(unipolys(2), min_size=1, max_size=3))
def test_zero_a_always_admits_first_unit_weight(bs):
    space = solve_parametric(ZERO, bs)
    cap = space.z_bound
    member = [Fraction(1)] + [Fraction(0)] * (len(bs) - 1) + list(bs[0].integral().coeff_vector(cap))
    vectors = _pairs_to_vectors(space, cap)
    assert rref_rows(vectors + [member]) == rref_rows(vectors)


def test_low_degree_independent_bs_force_trivial_space():
    # deg b_j < deg a with linearly independent b's: only the zero solution
    a = X**2
    bs = [ONE, X]
    space = solve_parametric(a, bs)
    assert space.basis == ()


def test_has_nonzero_k_examples():
    assert BlockReduction.of(X, [ONE]).witness() is None

    found = BlockReduction.of(ONE, [X]).witness()
    assert found is not None and found[0] == (1,) and found[1] == -X - 1

    found = BlockReduction.of(ZERO, [ONE]).witness()
    assert found is not None and found[0] == (1,) and found[1] == X


@given(unipolys(3), st.lists(unipolys(3), min_size=1, max_size=3))
def test_nonzero_k_solution_is_normalized_and_valid(a, bs):
    found = BlockReduction.of(a, bs).witness()
    if found is None:
        return
    k, z = found
    lead = next(v for v in k if v)
    assert lead == 1
    assert _satisfies(a, bs, k, z)


@st.composite
def blocks(draw):
    """(a, bs) with a = 0, a nonzero constant or deg a = 1..3, r = 1..5 and
    zero b's allowed; b_r is sometimes made dependent, a combination of the
    other b's plus z' - a z, so that a nonzero k always exists."""
    deg_a = draw(st.integers(-1, 3))
    a = ZERO
    if deg_a >= 0:
        lower = draw(st.lists(rationals, min_size=deg_a, max_size=deg_a))
        a = from_coeffs([*lower, draw(rationals.filter(bool))])
    r = draw(st.integers(1, 5))
    bs = [draw(st.just(ZERO) | unipolys(6)) for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        z = draw(unipolys(3))
        b = z.derivative() - a * z
        for c, bj in zip(draw(st.lists(rationals, min_size=r - 1, max_size=r - 1)), bs):
            b = b + bj * c
        bs[-1] = b
    return a, bs


@settings(max_examples=300)
@given(blocks())
def test_nonzero_k_solution_equals_full_space_rref(block):
    a, bs = block
    assert BlockReduction.of(a, bs).witness() == rref_witness_oracle(a, bs)


def test_solve_parametric_needs_bs():
    with pytest.raises(ValueError):
        solve_parametric(X, [])


@given(unipolys(3), unipolys(6))
def test_reduce_linear_ode_decomposition(a, c):
    z, r = reduce_linear_ode(a, c)
    assert c == z.derivative() + a * z + r
    assert r.is_zero or r.degree < a.degree
    if a.is_zero:
        assert z.coeff(0) == 0


def test_reduce_linear_ode_examples():
    assert reduce_linear_ode(X, X**2 + 1) == (X, ZERO)  # (x)' + x*x = x^2 + 1
    assert reduce_linear_ode(X**2, X + 3) == (ZERO, X + 3)
    assert reduce_linear_ode(ZERO, X) == (X**2 * Fraction(1, 2), ZERO)
    assert reduce_linear_ode(constant_poly(2), X) == (X * Fraction(1, 2) - Fraction(1, 4), ZERO)
