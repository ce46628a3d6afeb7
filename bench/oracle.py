"""Exact polynomial arithmetic kept apart from the package under test.

The benchmark plants its truth (targets, expected derivatives, witnesses)
with this module, so a defect in the measured code cannot also corrupt the
answer it is checked against.  Univariate polynomials are dicts
``degree -> Fraction``; polynomials in x, y1..yn are dicts
``(x_exp, y1_exp, ..., yn_exp) -> Fraction``.  Zero coefficients are never
stored, so equality of dicts is equality of polynomials.
"""

from __future__ import annotations

from fractions import Fraction


def clean(p: dict) -> dict:
    return {k: v for k, v in p.items() if v}


def add(*ps: dict) -> dict:
    out: dict = {}
    for p in ps:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return clean(out)


def scale(p: dict, c) -> dict:
    return clean({k: v * c for k, v in p.items()})


# -- univariate ---------------------------------------------------------------


def u_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for i, v in p.items():
        for j, w in q.items():
            out[i + j] = out.get(i + j, 0) + v * w
    return clean(out)


def u_deriv(p: dict) -> dict:
    return {k - 1: v * k for k, v in p.items() if k}


def u_integral(p: dict) -> dict:
    return {k + 1: v / (k + 1) for k, v in p.items()}


def u_image(a: dict, z: dict) -> dict:
    """z' - a z: the operator whose image decides solvability of z' = a z + c."""
    return add(u_deriv(z), scale(u_mul(a, z), -1))


def u_deg(p: dict) -> int:
    return max(p, default=-1)


def u_text(p: dict) -> str:
    return m_text({(k,): v for k, v in p.items()})


# -- multivariate -------------------------------------------------------------


def m_lift(p: dict, n: int) -> dict:
    return {(k,) + (0,) * n: v for k, v in p.items()}


def m_y(n: int, j: int) -> dict:
    e = [0] * (n + 1)
    e[j] = 1
    return {tuple(e): Fraction(1)}


def m_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, v in p.items():
        for e2, w in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + v * w
    return clean(out)


def m_partial(p: dict, var: int) -> dict:
    out = {}
    for e, v in p.items():
        k = e[var]
        if k:
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = v * k
    return out


def m_apply(pairs: list[tuple[dict, dict]], f: dict, n: int) -> dict:
    """D(f) for D = d/dx + sum_j (a_j y_j + b_j) d/dy_j; a_j univariate, b_j in x, y."""
    terms = [m_partial(f, 0)]
    for j, (a, b) in enumerate(pairs, start=1):
        df = m_partial(f, j)
        if df:
            terms.append(m_mul(add(m_mul(m_lift(a, n), m_y(n, j)), b), df))
    return add(*terms)


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def m_text(p: dict) -> str:
    """Input text in the package's grammar, terms by descending exponent vector."""
    if not p:
        return "0"
    out = []
    for e in sorted(p, reverse=True):
        c = Fraction(p[e])
        factors = []
        for var, k in enumerate(e):
            if k:
                name = "x" if var == 0 else f"y{var}"
                factors.append(name if k == 1 else f"{name}^{k}")
        body = "*".join([_coeff_text(abs(c))] + factors) if factors else _coeff_text(abs(c))
        if factors and abs(c) == 1:
            body = "*".join(factors)
        sign = "-" if c < 0 else "+"
        out.append((sign, body))
    first_sign, first = out[0]
    text = ("-" if first_sign == "-" else "") + first
    for sign, body in out[1:]:
        text += f" {sign} {body}"
    return text
