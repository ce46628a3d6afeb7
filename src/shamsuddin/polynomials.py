"""Exact sparse polynomial arithmetic over the rationals.

Scalars are `fractions.Fraction` (aliased ``Rational``): arbitrary precision,
always in lowest terms with positive denominator.  ``UniPoly`` is a univariate
polynomial in x stored sparsely by degree; ``MultiPoly`` is a sparse polynomial
in x, y1, ..., yn with exponent-vector keys and the variable order fixed at
construction (x first, then the y's in declaration order).

Coefficients are stored as normalized nonzero ``Fraction``s, but the hot
loops run on Python ints: a product of two polynomials clears each factor's
denominators once (``_integer_form``), convolves the integer numerators, and
divides by the common denominator once per output term; ``UniPoly.shift`` is
an integer Taylor shift.  Every output coefficient is built as one Fraction.

All values are immutable after construction and every operation is a pure
function, so instances may be shared freely between threads.
"""

from __future__ import annotations

import math
import operator
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
        """Product; of two polynomials by integer convolution of the
        numerators over the common denominators (``_integer_form``)."""
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if not q:
                return UniPoly()
            return _raw_uni({d: v * q for d, v in self._c.items()})
        if not isinstance(other, UniPoly):
            return NotImplemented
        den1, nums1 = _integer_form(self._c)
        den2, nums2 = _integer_form(other._c)
        acc: dict[int, int] = {}
        for d1, v1 in nums1.items():
            for d2, v2 in nums2.items():
                d = d1 + d2
                acc[d] = acc.get(d, 0) + v1 * v2
        return _raw_uni(_rational_terms(acc, den1 * den2))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "UniPoly":
        return _square_and_multiply(self, exponent, UniPoly.one())

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "UniPoly":
        return _raw_uni({d - 1: v * d for d, v in self._c.items() if d >= 1})

    def integral(self) -> "UniPoly":
        """Antiderivative with zero constant term."""
        return _raw_uni({d + 1: v / (d + 1) for d, v in self._c.items()})

    def shift(self, offset: Scalar) -> "UniPoly":
        """Substitute x -> x + offset, as an integer Taylor shift.

        With offset = s/t in lowest terms and den the common denominator of
        the coefficients, q(y) = den * t^m * p(y/t) has integer coefficients
        (m = deg p), and q(y + s) = den * t^m * p(x + s/t) at y = t*x.  So
        Horner's scheme shifts q by the integer s, and coefficient i of the
        result is that of y^i in q(y + s), over den * t^(m-i): one Fraction
        per term (von zur Gathen and Gerhard, "Fast algorithms for Taylor
        shifts and certain difference equations", ISSAC 1997).  Offset 0
        and the zero polynomial return self.
        """
        c = as_rational(offset)
        if not c or not self._c:
            return self
        s, t = c.numerator, c.denominator
        den, nums = _integer_form(self._c)
        m = max(nums)
        q = [0] * (m + 1)
        for k, v in nums.items():
            q[k] = v * t ** (m - k)
        for i in range(m):
            for j in range(m - 1, i - 1, -1):
                q[j] += s * q[j + 1]
        out: dict[int, Rational] = {}
        for i in range(m, -1, -1):
            if q[i]:
                out[i] = Fraction(q[i], den)
            den *= t
        return _raw_uni(out)

    def __call__(self, point: Scalar) -> Rational:
        p = as_rational(point)
        acc = _ZERO
        for d, v in self._c.items():
            acc += v * p**d
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


def _square_and_multiply(base, exponent: int, one, mul=operator.mul):
    """base**exponent over the bits of exponent, low to high: a set bit
    multiplies the base into the result (the first takes it as it is), and
    the base is squared only while a higher bit remains.  ``one`` is the
    value at exponent 0; ``mul`` does every product (the parser's checks its
    work budget)."""
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if result is None else result


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
        """Product; of two polynomials by integer convolution of the
        numerators over the common denominators (``_integer_form``)."""
        if isinstance(other, (int, Fraction)):
            q = as_rational(other)
            if not q:
                return MultiPoly.zero(self.arity)
            return _raw_multi(self.arity, {e: v * q for e, v in self._t.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        den1, nums1 = _integer_form(self._t)
        den2, nums2 = _integer_form(other._t)
        acc: dict[tuple[int, ...], int] = {}
        for e1, v1 in nums1.items():
            for e2, v2 in nums2.items():
                e = tuple(map(operator.add, e1, e2))
                acc[e] = acc.get(e, 0) + v1 * v2
        return _raw_multi(self.arity, _rational_terms(acc, den1 * den2))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        return _square_and_multiply(self, exponent, MultiPoly.one(self.arity))

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


def _integer_form(terms: Mapping) -> tuple[int, dict]:
    """(den, nums) with terms[key] == nums[key] / den for every key; den is
    the least common denominator, so the integer products of two forms
    share the one denominator den1 * den2."""
    den = math.lcm(*[v.denominator for v in terms.values()])
    return den, {k: v.numerator * (den // v.denominator) for k, v in terms.items()}


def _rational_terms(nums: dict, den: int) -> dict:
    """{key: nums[key] / den} without the zero numerators, one Fraction each."""
    if den == 1:
        return {k: Fraction(v) for k, v in nums.items() if v}
    return {k: Fraction(v, den) for k, v in nums.items() if v}


#: most decimal digits a printed numerator or denominator may have (CPython's
#: own limit for converting an int to text)
MAX_OUTPUT_DIGITS = 4300
_OUTPUT_BOUND = 10**MAX_OUTPUT_DIGITS


def format_rational(q: Rational) -> str:
    """``str(q)``; ValueError naming the cap and the side when the numerator
    or the denominator has more than MAX_OUTPUT_DIGITS digits.  Every printed
    rational goes through here."""
    if abs(q.numerator) >= _OUTPUT_BOUND:
        raise ValueError(f"coefficient numerator exceeds the output limit of {MAX_OUTPUT_DIGITS} digits")
    if q.denominator >= _OUTPUT_BOUND:
        raise ValueError(f"coefficient denominator exceeds the output limit of {MAX_OUTPUT_DIGITS} digits")
    return str(q)


def format_terms(terms: Mapping[tuple[int, ...], Rational]) -> str:
    """Canonical text form: terms sorted by exponent vector descending
    (x-degree first, then y1, y2, ...), coefficients as reduced fractions
    (``format_rational``).
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
            parts.append(format_rational(coeff))
        elif coeff == 1:
            parts.append(mono)
        else:
            parts.append(f"{format_rational(coeff)}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


_ZERO = Fraction(0)
