"""Acceptance suite: one test per criterion, every check exact (rational
arithmetic, zero tolerance).  Run with `pytest tests/test_acceptance.py -v -s`
to see one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from fractions import Fraction

from conftest import (
    basic_nonneg_kernel,
    brute_ode_solutions,
    brute_param_nullspace,
    exhaustive_nonneg_kernel,
    rand_derivation,
    rand_multipoly_in_prefix,
    rand_triangular,
    rand_unipoly,
    solve_parametric,
)
from shamsuddin import (
    Derivation,
    MultiPoly,
    MzTag,
    ParseError,
    PolyEndo,
    QMatrix,
    SemanticError,
    UniPoly,
    affine_is_automorphism,
    affine_to_endo,
    commutes,
    format_derivation,
    format_endo,
    format_poly,
    is_simple,
    isotropy_is_trivial,
    isotropy_witness,
    mz_classify,
    nat_dependence_witness,
    nonneg_kernel_witness,
    normalize,
    parse_derivation,
    parse_endo,
    parse_poly,
    preimage_bounded,
    rref_rows,
    span_dim,
)

X = UniPoly.x()
ONE = UniPoly.one()
ZERO = UniPoly.zero()


@contextlib.contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title}")


# -- criterion 1 ---------------------------------------------------------------


def _bounded_affine_commutant_is_identity_only(d: Derivation, span: int = 2) -> bool:
    """Exhaustive bounded search for affine endomorphisms commuting with d.

    Shift c and C entries range over -span..span; per row t the commutation
    identity on y_t decouples from the other rows and decomposes into (i) a
    per-variable constraint C[t][j] * (a_j - a_t(x+c)) = 0 and (ii) the ODE
    g' = a_t(x+c) g + b_t(x+c) - sum_j C[t][j] b_j, solved here completely by
    an independent generic-coefficient solver.  The commuting endomorphisms
    with a given shift are exactly the assemblies of per-row solutions, so
    "identity only" means: at c = 0 every row's solution set is the identity
    row alone, and at c != 0 some row has no solutions at all.
    """
    n = d.arity
    pairs = d.coeff_pairs()
    for c in range(-span, span + 1):
        row_sols = []
        for t in range(n):
            a_t, b_t = pairs[t]
            a_sh, b_sh = a_t.shift(c), b_t.shift(c)
            support = [j for j in range(n) if pairs[j][0] == a_sh]
            sols = []
            for values in itertools.product(range(-span, span + 1), repeat=len(support)):
                rhs = b_sh
                for j, v in zip(support, values):
                    if v:
                        rhs = rhs - pairs[j][1] * v
                got = brute_ode_solutions(a_sh, rhs)
                if got is not None:
                    vec = [0] * n
                    for j, v in zip(support, values):
                        vec[j] = v
                    sols.append((tuple(vec), got[0], got[1]))
            row_sols.append(sols)
        if c == 0:
            for t, sols in enumerate(row_sols):
                ident = tuple(1 if j == t else 0 for j in range(n))
                if len(sols) != 1 or sols[0][0] != ident:
                    return False
                if not sols[0][1].is_zero or sols[0][2] != 0:
                    return False
        elif n and all(row_sols[t] for t in range(n)):
            return False
    return True


def test_criterion_1_simplicity_isotropy_equivalence():
    rng = random.Random(20260808)
    corpus = [rand_derivation(rng, max_arity=4, max_deg=3) for _ in range(520)]
    with criterion(1, "simple <=> trivial bounded isotropy on a 520-derivation corpus"):
        n_simple = 0
        for d in corpus:
            if is_simple(d).simple:
                n_simple += 1
                assert _bounded_affine_commutant_is_identity_only(d), format_derivation(d)
            else:
                rho = isotropy_witness(d)
                assert rho is not None and not affine_to_endo(rho).is_identity
                assert commutes(affine_to_endo(rho), d)
                assert affine_is_automorphism(rho)
        assert len(corpus) >= 500
        assert 0 < n_simple < len(corpus)  # both directions genuinely exercised


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_ode_space_equals_bruteforce():
    rng = random.Random(20260802)
    with criterion(2, "parametric ODE space = brute force at degree_bound + 5, 1000 instances"):
        for _ in range(1000):
            a = rand_unipoly(rng, max_deg=4)
            bs = [rand_unipoly(rng, max_deg=4) for _ in range(rng.randint(1, 3))]
            space = solve_parametric(a, bs)
            brute, cap = brute_param_nullspace(a, bs, extra=5)
            ours = [list(k) + list(z.coeff_vector(cap)) for k, z in space.basis]
            assert rref_rows(ours) == rref_rows(brute), (a, bs)
            for k, z in space.basis:
                rhs = a * z
                for kj, b in zip(k, bs):
                    rhs = rhs + b * kj
                assert z.derivative() == rhs


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_known_instances():
    with criterion(3, "known-instance suite (witnesses and verdicts exact)"):
        # D = d/dx + (x y1 + 1) d/dy1
        d1 = normalize([(X, ONE)])
        assert is_simple(d1).simple
        assert isotropy_is_trivial(d1)
        assert isotropy_witness(d1) is None
        assert mz_classify(d1).tag is MzTag.NOT_MZ
        assert preimage_bounded(d1, MultiPoly.y(1, 1), 8, 4) is None

        # D = d/dx + (y1 + x) d/dy1: witness (x, -y1 - 2x - 2)
        d2 = normalize([(ONE, X)])
        rho2 = affine_to_endo(isotropy_witness(d2))
        assert rho2 == PolyEndo(
            MultiPoly.x(1), (-MultiPoly.y(1, 1) - 2 * MultiPoly.x(1) - 2,)
        )
        assert commutes(rho2, d2)

        # D = d/dx + y1 d/dy1: witness (x, 2 y1)
        d3 = normalize([(ONE, ZERO)])
        rho3 = affine_to_endo(isotropy_witness(d3))
        assert rho3 == PolyEndo(MultiPoly.x(1), (2 * MultiPoly.y(1, 1),))
        assert commutes(rho3, d3)

        # D = d/dx + d/dy1: antiderivative-family member (x, 2 y1 - x)
        d4 = normalize([(ZERO, ONE)])
        rho4 = affine_to_endo(isotropy_witness(d4))
        assert rho4 == PolyEndo(MultiPoly.x(1), (2 * MultiPoly.y(1, 1) - MultiPoly.x(1),))
        assert commutes(rho4, d4)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_local_finiteness_probes():
    rng = random.Random(20260804)
    with criterion(4, "iterate-span probes: stabilization iff all a constant (100 + 100)"):
        for _ in range(100):
            tri = rand_triangular(rng, constant_a=True)
            for j in range(1, tri.arity + 1):
                dims = span_dim(tri, MultiPoly.y(tri.arity, j), 30)
                assert dims[-1] == dims[-2], dims
        for _ in range(100):
            tri = rand_triangular(rng, constant_a=False)
            i0 = next(j for j, a in enumerate(tri.a, start=1) if a.degree >= 1)
            dims = span_dim(tri, MultiPoly.y(tri.arity, i0), 15)
            assert all(b == a + 1 for a, b in zip(dims, dims[1:])), dims


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_mz_rules():
    rng = random.Random(20260805)
    with criterion(5, "image classification rules and nonnegative-kernel decision"):
        # single shared a: IS_MZ iff a constant, on 200 random blocks
        for _ in range(200):
            a = rand_unipoly(rng, max_deg=3)
            r = rng.randint(1, 3)
            d = normalize([(a, rand_unipoly(rng, max_deg=3)) for _ in range(r)])
            verdict = mz_classify(d)
            if a.degree <= 0:
                assert verdict.tag is MzTag.IS_MZ
            else:
                assert verdict.tag is MzTag.NOT_MZ

        # the nonconstant rule fires only with no nonnegative dependence
        for _ in range(150):
            d = rand_derivation(rng, max_arity=4, max_deg=2)
            verdict = mz_classify(d)
            a_per_var = [a for a, _ in d.coeff_pairs()]
            if verdict.tag is MzTag.NOT_MZ:
                assert any(a.degree >= 1 for a in a_per_var)
                assert nat_dependence_witness(a_per_var) is None
                degrees = [int(a.degree) for a in a_per_var if not a.is_zero]
                matrix = QMatrix(
                    [[a.coeff(deg) for a in a_per_var] for deg in range(max(degrees) + 1)],
                    cols=len(a_per_var),
                )
                assert basic_nonneg_kernel(matrix) is None  # complete cross-check
            elif verdict.tag is MzTag.UNKNOWN:
                gamma = verdict.gamma
                assert gamma is not None and any(gamma) and all(v >= 0 for v in gamma)
                combo = UniPoly.zero()
                for g, a in zip(gamma, a_per_var):
                    combo = combo + a * g
                assert combo.is_zero

        # Fourier-Motzkin decision vs exhaustive/basic search on 3x4 matrices
        for _ in range(300):
            matrix = QMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)], cols=4)
            got = nonneg_kernel_witness(matrix)
            complete = basic_nonneg_kernel(matrix)
            assert (got is None) == (complete is None)
            grid = exhaustive_nonneg_kernel(matrix, max_entry=5)
            if grid is not None:
                assert got is not None
            if got is None:
                assert grid is None
            else:
                assert all(isinstance(v, int) and v >= 0 for v in got) and any(got)
                assert not any(matrix.matvec(got))


# -- criterion 6 ---------------------------------------------------------------


_FUZZ_CHARS = "xy0123456789+-*/^(), ;:=->\t\nqz"


def test_criterion_6_round_trip_and_fuzz():
    rng = random.Random(20260806)
    with criterion(6, "1000 format->parse->format round trips byte-identical; 1000 fuzzed inputs"):
        texts = []
        for _ in range(400):
            arity = rng.randint(0, 3)
            p = rand_multipoly_in_prefix(rng, arity, arity, max_x_deg=3, max_y_deg=3, terms=6)
            if rng.random() < 0.5:
                p = p * Fraction(1, rng.randint(2, 5))
            text = format_poly(p)
            assert parse_poly(text, arity) == p
            assert format_poly(parse_poly(text, arity)) == text
            texts.append(text)
        for _ in range(300):
            d = rand_triangular(rng, constant_a=bool(rng.getrandbits(1))) if rng.random() < 0.4 else rand_derivation(rng, max_arity=3)
            text = format_derivation(d)
            again = parse_derivation(text)
            assert format_derivation(again) == text
            texts.append(text)
        for _ in range(300):
            n = rng.randint(1, 3)
            rho = PolyEndo(
                rand_multipoly_in_prefix(rng, n, n, max_x_deg=2, max_y_deg=2),
                tuple(rand_multipoly_in_prefix(rng, n, n, max_x_deg=2, max_y_deg=2) for _ in range(n)),
            )
            text = format_endo(rho)
            assert parse_endo(text, n) == rho
            assert format_endo(parse_endo(text, n)) == text
            texts.append(text)

        for _ in range(1000):
            chars = list(rng.choice(texts))
            for _ in range(rng.randint(1, 5)):
                op = rng.randrange(3)
                pos = rng.randrange(max(1, len(chars)))
                if op == 0 and chars:
                    del chars[pos]
                elif op == 1:
                    chars.insert(pos, rng.choice(_FUZZ_CHARS))
                elif chars:
                    chars[pos] = rng.choice(_FUZZ_CHARS)
            mutated = "".join(chars)
            for attempt in (
                lambda: parse_poly(mutated, 3),
                lambda: parse_derivation(mutated),
                lambda: parse_endo(mutated, 3),
            ):
                try:
                    attempt()
                except ParseError as exc:
                    assert isinstance(exc.pos, int) and 0 <= exc.pos <= len(mutated)
                except SemanticError:
                    pass
