"""Shared hypothesis strategies, seeded random generators, and independent
oracles used across the test suite."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from shamsuddin import (
    AffineEndo,
    Derivation,
    MultiPoly,
    ParseError,
    PolyEndo,
    QMatrix,
    Rational,
    SemanticError,
    TriangularDerivation,
    UniPoly,
    apply_derivation,
    degree_bound,
    endo_apply,
    linalg,
    normalize,
    reduce_linear_ode,
    rref_rows,
)
from shamsuddin.ode import parametric_spaces
from shamsuddin.polynomials import NEG_INF
from shamsuddin.textio import MAX_DEPTH, MAX_EXPONENT, _split_entries

# -- hypothesis strategies ----------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_ints = st.integers(min_value=-4, max_value=4)


def unipolys(max_deg: int = 4, coeffs=rationals):
    return st.lists(coeffs, min_size=0, max_size=max_deg + 1).map(UniPoly.from_coeffs)


@st.composite
def multipolys(draw, arity: int | None = None, max_arity: int = 3, max_deg: int = 3, max_terms: int = 6):
    n = arity if arity is not None else draw(st.integers(0, max_arity))
    exps = st.tuples(*([st.integers(0, max_deg)] * (n + 1)))
    terms = draw(st.lists(st.tuples(exps, rationals), max_size=max_terms))
    return MultiPoly(n, terms)


@st.composite
def derivations(draw, max_arity: int = 3, max_deg: int = 2):
    n = draw(st.integers(1, max_arity))
    pairs = [(draw(unipolys(max_deg)), draw(unipolys(max_deg))) for _ in range(n)]
    return normalize(pairs)


@st.composite
def q_matrices(draw, max_rows: int = 4, max_cols: int = 4, coeffs=small_ints):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.lists(coeffs, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )
    return QMatrix(entries, cols=cols)


# -- seeded plain-random generators (for fixed-size corpora) -------------------


def rand_unipoly(rng: random.Random, max_deg: int = 3, lo: int = -3, hi: int = 3, allow_zero: bool = True) -> UniPoly:
    deg = rng.randint(-1 if allow_zero else 0, max_deg)
    if deg < 0:
        return UniPoly.zero()
    nonzero = [c for c in range(lo, hi + 1) if c]
    coeffs = {deg: rng.choice(nonzero)}
    for d in range(deg):
        coeffs[d] = rng.randint(lo, hi)
    return UniPoly(coeffs)


def rand_derivation(rng: random.Random, max_arity: int = 4, max_deg: int = 3) -> Derivation:
    n = rng.randint(1, max_arity)
    return normalize([(rand_unipoly(rng, max_deg), rand_unipoly(rng, max_deg)) for _ in range(n)])


def rand_multipoly_in_prefix(
    rng: random.Random, arity: int, prefix: int, max_x_deg: int = 2, max_y_deg: int = 1, terms: int = 3
) -> MultiPoly:
    """Random polynomial in x and y1..y<prefix> inside the full ring."""
    out: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(0, terms)):
        exps = [0] * (arity + 1)
        exps[0] = rng.randint(0, max_x_deg)
        for j in range(1, prefix + 1):
            exps[j] = rng.randint(0, max_y_deg)
        out[tuple(exps)] = rng.randint(-3, 3)
    return MultiPoly(arity, out.items())


def rand_triangular(rng: random.Random, constant_a: bool, max_arity: int = 3) -> TriangularDerivation:
    n = rng.randint(1, max_arity)
    a = [UniPoly.constant(rng.randint(-2, 2)) for _ in range(n)]
    if not constant_a:
        i0 = rng.randrange(n)
        deg = rng.randint(1, 2)
        coeffs = {deg: rng.choice([-2, -1, 1, 2])}
        for d in range(deg):
            coeffs[d] = rng.randint(-2, 2)
        a[i0] = UniPoly(coeffs)
    b = [rand_multipoly_in_prefix(rng, n, j) for j in range(n)]
    return TriangularDerivation(n, tuple(a), tuple(b))


# -- independent oracles --------------------------------------------------------


def ode_rows_oracle(a: UniPoly, bs, z_cap: int):
    """Coefficient rows of z' - a z - sum_j k_j b_j over (k, z_0..z_cap),
    written directly from the definition (kept separate from the library's
    row builder on purpose)."""
    r = len(bs)
    deg_a = int(a.degree) if not a.is_zero else -1
    top = max(
        [z_cap + deg_a, z_cap - 1]
        + [int(b.degree) for b in bs if not b.is_zero]
        + [0]
    )
    rows = []
    for d in range(top + 1):
        row = [Fraction(0)] * (r + z_cap + 1)
        for j, b in enumerate(bs):
            row[j] = -b.coeff(d)
        if d + 1 <= z_cap:
            row[r + d + 1] += d + 1
        for i in range(min(d, z_cap) + 1):
            row[r + i] -= a.coeff(d - i)
        rows.append(row)
    return rows


def brute_ode_solutions(a: UniPoly, c: UniPoly, extra: int = 6):
    """All polynomial solutions of z' = a z + c by generic-coefficient
    enumeration with degree headroom: (particular, homogeneous_dim) or None."""
    if c.is_zero and a.is_zero:
        cap = extra
    elif a.is_zero:
        cap = int(c.degree) + 1 + extra
    elif c.is_zero:
        cap = extra
    elif a.degree == 0:
        cap = int(c.degree) + extra
    else:
        cap = max(0, int(c.degree - a.degree)) + extra
    rows = ode_rows_oracle(a, [c], cap)
    matrix = QMatrix([row[1:] for row in rows], cols=cap + 1)
    rhs = [-row[0] for row in rows]
    space = matrix.solve_affine(rhs)
    if space is None:
        return None
    return UniPoly(enumerate(space.particular)), len(space.basis)


def brute_param_nullspace(a: UniPoly, bs, extra: int = 5):
    """Nullspace basis of the parametric system at degree_bound + extra."""
    bound = degree_bound(a, list(bs))
    cap = (bound if bound is not None else -1) + extra
    rows = ode_rows_oracle(a, bs, cap)
    return QMatrix(rows, cols=len(bs) + cap + 1).nullspace(), cap


def rref_witness_oracle(a: UniPoly, bs):
    """The simplicity witness read off the full solution space: the basis of
    solve_parametric row reduced with the k columns first, and the first row
    with k != 0 split into (k, z), or None (the original
    has_nonzero_k_solution)."""
    space = solve_parametric(a, bs)
    r = space.num_params
    nz = space.z_bound + 1 if space.z_bound is not None else 0
    rows = [list(k) + list(z.coeff_vector(nz - 1) if nz else ()) for k, z in space.basis]
    for row in rref_rows(rows):
        if any(row[:r]):
            return tuple(row[:r]), UniPoly(enumerate(row[r:]))
    return None


def iso_rows_oracle(a: UniPoly, bs, c):
    """Row spaces of g' = a g + b_t(x+c) - sum_j C[t][j] b_j over the unknowns
    (C[t][1..r], g_0..g_B), B = degree_bound(a, bs), each by one dense solve
    of its coefficient rows (the original isotropy row builder).

    The rows of z' - a z - sum_j k_j (-b_j) are those of g' - a g +
    sum_j C_j b_j, so row t is that system against the coefficients of
    b_t(x+c)."""
    bound = degree_bound(a, list(bs))
    cap = bound if bound is not None else -1
    rows = ode_rows_oracle(a, [-b for b in bs], cap)
    matrix = QMatrix(rows, cols=len(bs) + cap + 1)
    return tuple(matrix.solve_affine([b.shift(c).coeff(d) for d in range(len(rows))]) for b in bs)


def dense_preimage_oracle(d: Derivation, target: MultiPoly, max_x_deg: int, max_y_total_deg: int):
    """Preimage of target under d supported on the box, or None, by one dense
    system with a column per box monomial (the original box solver)."""
    n = d.arity
    y_exps = [e for e in itertools.product(range(max_y_total_deg + 1), repeat=n) if sum(e) <= max_y_total_deg]
    box = sorted((xe, *ye) for ye in y_exps for xe in range(max_x_deg + 1))
    images = [apply_derivation(d, MultiPoly(n, {exps: 1})) for exps in box]
    row_keys = sorted(set(target.terms()) | {m for im in images for m in im.terms()})
    index = {key: i for i, key in enumerate(row_keys)}
    rows = [[Fraction(0)] * len(box) for _ in row_keys]
    for col, im in enumerate(images):
        for mono, val in im.terms().items():
            rows[index[mono]][col] = val
    rhs = [target.coeff(key) for key in row_keys]
    space = QMatrix(rows, cols=len(box)).solve_affine(rhs)
    if space is None:
        return None
    return MultiPoly(n, {exps: v for exps, v in zip(box, space.particular) if v})


def exhaustive_nonneg_kernel(matrix: QMatrix, max_entry: int = 5):
    """Smallest nonzero gamma >= 0 with A gamma = 0 and entries <= max_entry,
    by full enumeration.  Conclusive only in the positive direction: a miss
    does not rule out witnesses with larger entries."""
    n = matrix.cols
    for gamma in itertools.product(range(max_entry + 1), repeat=n):
        if any(gamma) and not any(matrix.matvec(gamma)):
            return gamma
    return None


def basic_nonneg_kernel(matrix: QMatrix):
    """Complete exact decision of {gamma >= 0, A gamma = 0, gamma != 0} by
    enumerating basic solutions of {A gamma = 0, sum gamma = 1, gamma >= 0}:
    if the polytope is nonempty it has a vertex, and every vertex is the
    unique solution supported on some linearly independent column set."""
    n = matrix.cols
    rows = matrix.row_list()
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            sub_rows = [[row[j] for j in support] for row in rows]
            sub_rows.append([Fraction(1)] * size)
            sub = QMatrix(sub_rows, cols=size)
            rhs = [0] * len(rows) + [1]
            space = sub.solve_affine(rhs)
            if space is not None and not space.basis and all(v >= 0 for v in space.particular):
                gamma = [Fraction(0)] * n
                for j, v in zip(support, space.particular):
                    gamma[j] = v
                return tuple(gamma)
    return None


def affine_space_contains(space, point) -> bool:
    """Exact membership test: point - particular must lie in span(basis)."""
    shifted = [p - q for p, q in zip(point, space.particular)]
    if not any(shifted):
        return True
    base = rref_rows(space.basis)
    return rref_rows(list(space.basis) + [shifted]) == base


def fraction_rref_rank(matrix: QMatrix) -> int:
    """Rank by plain fraction Gauss-Jordan, independent of the Bareiss path."""
    rows = matrix.row_list()
    rank = 0
    for c in range(matrix.cols):
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        piv = rows[rank][c]
        rows[rank] = [v / piv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [u - f * w for u, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank



# -- solvers and maps the library no longer exports ------------------------------


@dataclass(frozen=True)
class OdeSolutions:
    """Complete polynomial solution set of one ODE z' = a z + c.

    ``particular`` is None when no polynomial solution exists.  The
    homogeneous equation z' = a z has polynomial solutions exactly when a = 0
    (the constants), so homogeneous_dim is 1 iff a = 0 and 0 otherwise.
    """

    particular: UniPoly | None
    homogeneous_dim: int


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


def solve_parametric(a: UniPoly, bs) -> ParamSolutionSpace:
    """Basis of all pairs (k, z) with z' = a z + sum_j k_j b_j, read off the
    library's parametric_spaces with the single target 0."""
    if not bs:
        raise ValueError("need at least one b")
    r = len(bs)
    (space,) = parametric_spaces(a, bs, [UniPoly.zero()])
    pairs = tuple((tuple(vec[:r]), UniPoly(enumerate(vec[r:]))) for vec in space.basis)
    return ParamSolutionSpace(r, degree_bound(a, bs), pairs)


def compose(u: UniPoly, arg: MultiPoly) -> MultiPoly:
    """u(arg): substitute a multivariate polynomial for x (Horner evaluation)."""
    acc = MultiPoly.zero(arg.arity)
    if not u.is_zero:
        for d in range(int(u.degree), -1, -1):
            acc = acc * arg + MultiPoly.const(arg.arity, u.coeff(d))
    return acc


def endo_compose(outer: PolyEndo, inner: PolyEndo) -> PolyEndo:
    """The ring map v -> outer(inner(v))."""
    return PolyEndo(
        endo_apply(outer, inner.image_of_x),
        tuple(endo_apply(outer, g) for g in inner.images_of_y),
    )


def matrix_inverse(matrix: QMatrix) -> QMatrix | None:
    """Inverse of a square matrix by one Bareiss elimination of [A | I], or
    None when A is singular."""
    if matrix.rows != matrix.cols:
        raise ValueError("inverse of a non-square matrix")
    n = matrix.rows
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(matrix.row_list())]
    ech, pivots, _ = linalg._ff_echelon(linalg._int_rows(aug), n)
    if len(pivots) < n:
        return None
    cols = [linalg._back_substitute(ech, pivots, n, rhs=n + j) for j in range(n)]
    return QMatrix([[cols[j][i] for j in range(n)] for i in range(n)], cols=n)


def affine_inverse(rho: AffineEndo) -> AffineEndo:
    """Inverse of an invertible affine map: x -> x - c, y -> C^-1 (y - g0(x - c))."""
    inv = matrix_inverse(rho.C)
    if inv is None:
        raise ValueError("singular C: not an automorphism")
    shifted = [g.shift(-rho.c) for g in rho.g0]
    g0 = []
    for t in range(rho.arity):
        acc = UniPoly.zero()
        for j in range(rho.arity):
            entry = inv.entry(t, j)
            if entry:
                acc = acc + shifted[j] * (-entry)
        g0.append(acc)
    return AffineEndo(-rho.c, inv, tuple(g0))


# -- reference parser: the MultiPoly-arithmetic parser the term-level one replaced


_REF_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+[0-9]*|->|[-+*^()/:,=]")
_REF_SKIP = re.compile(r"[ \t\r\n]*")


class _RefTokens:
    def __init__(self, text: str, offset: int = 0):
        self.toks: list[tuple[str, int]] = []
        i = 0
        while i < len(text):
            i = _REF_SKIP.match(text, i).end()
            if i >= len(text):
                break
            m = _REF_TOKEN.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {text[i]!r}", offset + i)
            self.toks.append((m.group(), offset + i))
            i = m.end()
        self.toks.append(("", offset + len(text)))  # end marker
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.toks[self.i][0]

    def pos(self) -> int:
        return self.toks[self.i][1]

    def next(self) -> tuple[str, int]:
        tok = self.toks[self.i]
        if tok[0]:
            self.i += 1
        return tok

    def expect(self, token: str) -> None:
        got, pos = self.toks[self.i]
        if got != token:
            raise ParseError(f"expected {token!r}, found {got!r}", pos)
        self.i += 1

    def expect_end(self) -> None:
        got, pos = self.toks[self.i]
        if got:
            raise ParseError(f"unexpected trailing input {got!r}", pos)


def _ref_nat(ts: _RefTokens, what: str) -> int:
    got, pos = ts.next()
    if not got.isdigit():
        raise ParseError(f"expected {what}, found {got!r}", pos)
    return int(got)


def _ref_base(ts: _RefTokens, arity: int) -> MultiPoly:
    got, pos = ts.next()
    if got.isdigit():
        num = int(got)
        if ts.peek() == "/":
            ts.next()
            den = _ref_nat(ts, "a denominator")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return MultiPoly.const(arity, Fraction(num, den))
        return MultiPoly.const(arity, num)
    if got == "(":
        if ts.depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than the parser limit {MAX_DEPTH}", pos)
        ts.depth += 1
        inner = _ref_poly(ts, arity)
        ts.expect(")")
        ts.depth -= 1
        return inner
    if got == "x":
        return MultiPoly.x(arity)
    m = re.fullmatch(r"y([0-9]+)", got)
    if m:
        j = int(m.group(1))
        if not 1 <= j <= arity:
            raise ParseError(f"unknown variable {got!r} (arity {arity})", pos)
        return MultiPoly.y(arity, j)
    raise ParseError(f"expected a number, variable, or '(', found {got!r}", pos)


def _ref_factor(ts: _RefTokens, arity: int) -> MultiPoly:
    base = _ref_base(ts, arity)
    if ts.peek() == "^":
        ts.next()
        pos = ts.pos()
        exponent = _ref_nat(ts, "an exponent")
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the parser limit {MAX_EXPONENT}", pos)
        return base**exponent
    return base


def _ref_term(ts: _RefTokens, arity: int) -> MultiPoly:
    acc = _ref_factor(ts, arity)
    while ts.peek() == "*":
        ts.next()
        acc = acc * _ref_factor(ts, arity)
    return acc


def _ref_poly(ts: _RefTokens, arity: int) -> MultiPoly:
    negate = False
    if ts.peek() in ("+", "-"):
        negate = ts.next()[0] == "-"
    acc = _ref_term(ts, arity)
    if negate:
        acc = -acc
    while ts.peek() in ("+", "-"):
        op = ts.next()[0]
        term = _ref_term(ts, arity)
        acc = acc - term if op == "-" else acc + term
    return acc


def reference_parse_poly(text: str, arity: int) -> MultiPoly:
    """parse_poly by MultiPoly arithmetic: one `*` per factor, `**` per power,
    and `+` per term."""
    ts = _RefTokens(text)
    poly = _ref_poly(ts, arity)
    ts.expect_end()
    return poly


def _ref_head_index(frag: str, offset: int) -> int:
    ts = _RefTokens(frag, offset)
    got, pos = ts.next()
    m = re.fullmatch(r"y([0-9]+)", got)
    if not m:
        raise ParseError(f"entry must start with y<i>, found {got!r}", pos)
    return int(m.group(1))


def reference_parse_derivation(text: str):
    """parse_derivation with every entry tokenized twice: once to check all
    heads, once more to parse its body."""
    entries = _split_entries(text)
    n = len(entries)
    indices = [_ref_head_index(frag, off) for frag, off in entries]
    if sorted(indices) != list(range(1, n + 1)):
        raise SemanticError(f"entries must cover y1..y{n} exactly once, got {sorted(indices)}")
    a_by: dict[int, UniPoly] = {}
    b_by: dict[int, MultiPoly] = {}
    for frag, off in entries:
        ts = _RefTokens(frag, off)
        j = int(ts.next()[0][1:])
        ts.expect(":")
        got, pos = ts.next()
        if got != "a":
            raise ParseError(f"expected 'a', found {got!r}", pos)
        ts.expect("=")
        a_poly = _ref_poly(ts, n)
        ts.expect(",")
        got, pos = ts.next()
        if got != "b":
            raise ParseError(f"expected 'b', found {got!r}", pos)
        ts.expect("=")
        b_poly = _ref_poly(ts, n)
        ts.expect_end()
        if not a_poly.is_univariate_in_x():
            raise SemanticError(f"a for y{j} must be a polynomial in x only")
        a_by[j] = a_poly.as_unipoly()
        b_by[j] = b_poly
    if all(b.is_univariate_in_x() for b in b_by.values()):
        return normalize([(a_by[j], b_by[j].as_unipoly()) for j in range(1, n + 1)])
    try:
        return TriangularDerivation(
            n,
            tuple(a_by[j] for j in range(1, n + 1)),
            tuple(b_by[j] for j in range(1, n + 1)),
        )
    except ValueError as exc:
        raise SemanticError(f"non-triangular dependency: {exc}") from None


def reference_parse_endo(text: str, arity: int) -> PolyEndo:
    """parse_endo over the reference polynomial parser."""
    image_x: MultiPoly | None = None
    images_y: dict[int, MultiPoly] = {}
    for frag, off in _split_entries(text):
        ts = _RefTokens(frag, off)
        got, pos = ts.next()
        ts.expect("->")
        poly = _ref_poly(ts, arity)
        ts.expect_end()
        if got == "x":
            if image_x is not None:
                raise SemanticError("duplicate image for x")
            image_x = poly
            continue
        m = re.fullmatch(r"y([0-9]+)", got)
        if not m:
            raise ParseError(f"entry must map x or y<i>, found {got!r}", pos)
        j = int(m.group(1))
        if not 1 <= j <= arity:
            raise SemanticError(f"variable y{j} out of range for arity {arity}")
        if j in images_y:
            raise SemanticError(f"duplicate image for y{j}")
        images_y[j] = poly
    if image_x is None:
        raise SemanticError("missing image for x")
    missing = [j for j in range(1, arity + 1) if j not in images_y]
    if missing:
        raise SemanticError(f"missing images for {', '.join(f'y{j}' for j in missing)}")
    return PolyEndo(image_x, tuple(images_y[j] for j in range(1, arity + 1)))

assert NEG_INF < 0  # degree marker sanity for the oracles above
