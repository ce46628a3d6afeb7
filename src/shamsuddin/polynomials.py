"""Exact sparse polynomial arithmetic over the rationals.

Scalars are `fractions.Fraction` (aliased ``Rational``): arbitrary precision,
always in lowest terms with positive denominator.  ``UniPoly`` is a univariate
polynomial in x stored sparsely by degree; ``MultiPoly`` is a sparse polynomial
in x, y1, ..., yn with exponent-vector keys and the variable order fixed at
construction (x first, then the y's in declaration order).

All values are immutable after construction and every operation is a pure
function, so instances may be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[Rational, int]

#: degree of the zero polynomial (compares below every true degree)
NEG_INF = float("-inf")


def as_rational(value: Scalar) -> Rational:
    """Coerce an int or Fraction to a Fraction; reject inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {value!r}")


class UniPoly:
    """Sparse univariate polynomial in x with rational coefficients.

    Zero coefficients are never stored; two polynomials are equal iff their
    stored term maps are equal, so equality is exact.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        c: dict[int, Rational] = {}
        for deg, val in items:
            if deg < 0:
                raise ValueError(f"negative degree {deg}")
            q = c.get(deg, _ZERO) + as_rational(val)
            if q:
                c[deg] = q
            else:
                c.pop(deg, None)
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls({0: 1})

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: 1})

    @classmethod
    def constant(cls, value: Scalar) -> "UniPoly":
        return cls({0: value})

    @classmethod
    def from_coeffs(cls, ascending: Sequence[Scalar]) -> "UniPoly":
        """Build from coefficients listed by ascending degree."""
        return cls(enumerate(ascending))

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int | float:
        """Degree, or NEG_INF for the zero polynomial."""
        return max(self._c) if self._c else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, degree: int) -> Rational:
        return self._c.get(degree, _ZERO)

    def items(self) -> list[tuple[int, Rational]]:
        """Terms as (degree, coefficient), ascending by degree."""
        return sorted(self._c.items())

    def leading_coeff(self) -> Rational:
        return self._c[max(self._c)] if self._c else _ZERO

    def coeff_vector(self, up_to: int) -> tuple[Rational, ...]:
        """Coefficients of x^0..x^up_to as a dense tuple."""
        return tuple(self._c.get(d, _ZERO) for d in range(up_to + 1))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _coerce_uni(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for d, v in other._c.items():
            q = c.get(d, _ZERO) + v
            if q:
                c[d] = q
            else:
                c.pop(d, None)
        return _raw_uni(c)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return _raw_uni({d: -v for d, v in self._c.items()})

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _coerce_uni(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if not q:
                return UniPoly()
            return _raw_uni({d: v * q for d, v in self._c.items()})
        if not isinstance(other, UniPoly):
            return NotImplemented
        c: dict[int, Rational] = {}
        for d1, v1 in self._c.items():
            for d2, v2 in other._c.items():
                d = d1 + d2
                q = c.get(d, _ZERO) + v1 * v2
                if q:
                    c[d] = q
                else:
                    c.pop(d, None)
        return _raw_uni(c)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = UniPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return _raw_uni({d - 1: v * d for d, v in self._c.items() if d >= 1})

    def integral(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        return _raw_uni({d + 1: v / (d + 1) for d, v in self._c.items()})

    def shift(self, offset: Scalar) -> "UniPoly":
        """Substitute x -> x + offset, expanded exactly by the binomial theorem."""
        c = as_rational(offset)
        if not c:
            return self
        out: dict[int, Rational] = {}
        for k, v in self._c.items():
            cp = _ONE  # c^(k-i), built down from c^0
            # accumulate from i = k down to 0 so powers of c grow incrementally
            for i in range(k, -1, -1):
                q = out.get(i, _ZERO) + v * math.comb(k, i) * cp
                if q:
                    out[i] = q
                else:
                    out.pop(i, None)
                cp *= c
        return _raw_uni(out)

    def __call__(self, point: Scalar) -> Rational:
        p = as_rational(point)
        acc = _ZERO
        for d, v in self._c.items():
            acc += v * p**d
        return acc

    def compose(self, arg: "MultiPoly") -> "MultiPoly":
        """Substitute a multivariate polynomial for x (Horner evaluation)."""
        acc = MultiPoly.zero(arg.arity)
        if self._c:
            for d in range(int(self.degree), -1, -1):
                acc = acc * arg + MultiPoly.const(arg.arity, self.coeff(d))
        return acc

    def lift(self, arity: int) -> "MultiPoly":
        """View as a MultiPoly in x, y1..y<arity> (no y dependence)."""
        pad = (0,) * arity
        return _raw_multi(arity, {(d, *pad): v for d, v in self._c.items()})

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        return str(self.lift(0))

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def _coerce_uni(value):
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly({0: value})
    return NotImplemented


def _raw_uni(c: dict) -> UniPoly:
    p = UniPoly.__new__(UniPoly)
    p._c = c
    return p


class MultiPoly:
    """Sparse polynomial in x, y1..yn.

    Keys are exponent tuples (x_exp, y1_exp, ..., yn_exp) of length arity+1.
    Variable indices throughout the package: 0 is x, and j in 1..n is yj.
    """

    __slots__ = ("arity", "_t")

    def __init__(
        self,
        arity: int,
        terms: Mapping[tuple[int, ...], Scalar] | Iterable[tuple[tuple[int, ...], Scalar]] = (),
    ):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        items = terms.items() if isinstance(terms, Mapping) else terms
        t: dict[tuple[int, ...], Rational] = {}
        for exps, val in items:
            exps = tuple(exps)
            if len(exps) != arity + 1 or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for arity {arity}")
            q = t.get(exps, _ZERO) + as_rational(val)
            if q:
                t[exps] = q
            else:
                t.pop(exps, None)
        self._t = t

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "MultiPoly":
        return cls.const(arity, 1)

    @classmethod
    def const(cls, arity: int, value: Scalar) -> "MultiPoly":
        return cls(arity, {(0,) * (arity + 1): value})

    @classmethod
    def x(cls, arity: int) -> "MultiPoly":
        return cls.monomial(arity, 0)

    @classmethod
    def y(cls, arity: int, j: int) -> "MultiPoly":
        """The variable yj (1-based j)."""
        if not 1 <= j <= arity:
            raise ValueError(f"y{j} out of range for arity {arity}")
        return cls.monomial(arity, j)

    @classmethod
    def monomial(cls, arity: int, var: int, exp: int = 1, coeff: Scalar = 1) -> "MultiPoly":
        exps = [0] * (arity + 1)
        exps[var] = exp
        return cls(arity, {tuple(exps): coeff})

    @classmethod
    def variable(cls, arity: int, var: int) -> "MultiPoly":
        """Variable by index: 0 is x, 1..n are the y's."""
        return cls.x(arity) if var == 0 else cls.y(arity, var)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._t

    def terms(self) -> dict[tuple[int, ...], Rational]:
        return dict(self._t)

    def coeff(self, exps: tuple[int, ...]) -> Rational:
        return self._t.get(tuple(exps), _ZERO)

    @property
    def degree_x(self) -> int | float:
        return max((e[0] for e in self._t), default=NEG_INF)

    @property
    def total_y_degree(self) -> int | float:
        return max((sum(e[1:]) for e in self._t), default=NEG_INF)

    def uses_y(self, j: int) -> bool:
        return any(e[j] for e in self._t)

    def is_univariate_in_x(self) -> bool:
        return all(not any(e[1:]) for e in self._t)

    def as_unipoly(self) -> UniPoly:
        """Drop y's; raises if any y actually occurs."""
        if not self.is_univariate_in_x():
            raise ValueError("polynomial involves y variables")
        return _raw_uni({e[0]: v for e, v in self._t.items()})

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        other = _coerce_multi(other, self.arity)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        t = dict(self._t)
        for e, v in other._t.items():
            q = t.get(e, _ZERO) + v
            if q:
                t[e] = q
            else:
                t.pop(e, None)
        return _raw_multi(self.arity, t)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _raw_multi(self.arity, {e: -v for e, v in self._t.items()})

    def __sub__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        other = _coerce_multi(other, self.arity)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if not q:
                return MultiPoly.zero(self.arity)
            return _raw_multi(self.arity, {e: v * q for e, v in self._t.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        t: dict[tuple[int, ...], Rational] = {}
        for e1, v1 in self._t.items():
            for e2, v2 in other._t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                q = t.get(e, _ZERO) + v1 * v2
                if q:
                    t[e] = q
                else:
                    t.pop(e, None)
        return _raw_multi(self.arity, t)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.arity)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and substitution -----------------------------------------

    def partial(self, var: int) -> "MultiPoly":
        """Formal partial derivative; var 0 is x, var j in 1..n is yj."""
        if not 0 <= var <= self.arity:
            raise ValueError(f"variable index {var} out of range for arity {self.arity}")
        t: dict[tuple[int, ...], Rational] = {}
        for e, v in self._t.items():
            k = e[var]
            if k:
                e2 = list(e)
                e2[var] = k - 1
                t[tuple(e2)] = v * k
        return _raw_multi(self.arity, t)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Evaluate at (images[0], ..., images[arity]); all images share one arity."""
        if len(images) != self.arity + 1:
            raise ValueError("need one image per variable (x and each y)")
        target = images[0].arity
        for im in images:
            if im.arity != target:
                raise ValueError("images must share one arity")
        # powers[var][e - 1] = images[var] ** e, built upward from the highest
        # power already held, one multiplication by the image per step
        powers = [[im] for im in images]

        def power(var: int, e: int) -> MultiPoly:
            held = powers[var]
            while len(held) < e:
                held.append(held[-1] * images[var])
            return held[e - 1]

        acc = MultiPoly.zero(target)
        for exps, v in self._t.items():
            term = MultiPoly.const(target, v)
            for var, e in enumerate(exps):
                if e:
                    term = term * power(var, e)
            acc = acc + term
        return acc

    def remap_y(self, new_arity: int, mapping: Mapping[int, int]) -> "MultiPoly":
        """Renumber y variables (old 1-based index -> new 1-based index); x is kept."""
        t: dict[tuple[int, ...], Rational] = {}
        for e, v in self._t.items():
            out = [0] * (new_arity + 1)
            out[0] = e[0]
            for j in range(1, self.arity + 1):
                if e[j]:
                    out[mapping[j]] = e[j]
            t[tuple(out)] = v
        return MultiPoly(new_arity, t)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.arity == other.arity and self._t == other._t
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._t.items())))

    def __bool__(self) -> bool:
        return bool(self._t)

    def __str__(self) -> str:
        return format_terms(self._t)

    def __repr__(self) -> str:
        return f"MultiPoly<{self.arity}>({self})"


def _coerce_multi(value, arity: int):
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(arity, value)
    return NotImplemented


def _raw_multi(arity: int, t: dict) -> MultiPoly:
    p = MultiPoly.__new__(MultiPoly)
    p.arity = arity
    p._t = t
    return p


def format_terms(terms: Mapping[tuple[int, ...], Rational]) -> str:
    """Canonical text form: terms sorted by exponent vector descending
    (x-degree first, then y1, y2, ...), coefficients as reduced fractions.
    """
    if not terms:
        return "0"
    parts: list[str] = []
    for exps in sorted(terms, reverse=True):
        coeff = terms[exps]
        factors = []
        for var, e in enumerate(exps):
            if not e:
                continue
            name = "x" if var == 0 else f"y{var}"
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        else:
            parts.append(f"{coeff}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


_ZERO = Fraction(0)
_ONE = Fraction(1)
