"""Answer checks: compare one request's output with its planted truth.

Runs after the request's clock stops.  Every check is an explicit comparison
(no ``assert``), so it also runs under ``python -O``.  ``check`` returns None
for a correct answer and a one-line reason otherwise; a wrong verdict, an
unverifiable witness, a missing planted preimage, an unexpected exit code and
an exception inside the program all count as failures.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle as O


def _uni(text: str) -> dict:
    """Univariate polynomial text -> oracle dict."""
    from shamsuddin import parse_poly

    return {e[0]: v for e, v in parse_poly(text, 0).terms().items()}


def _endo_failure(text: str, deriv: str, nonidentity: bool) -> str | None:
    """Re-parse a printed endomorphism; it must commute with D and be invertible."""
    from shamsuddin import (affine_is_automorphism, commutes, endo_to_affine,
                            parse_derivation, parse_endo)

    d = parse_derivation(deriv)
    rho = parse_endo(text, d.arity)
    if nonidentity and rho.is_identity:
        return "witness is the identity"
    if not commutes(rho, d):
        return "printed map does not commute with D"
    affine = endo_to_affine(rho)
    if affine is None:
        return "printed map is not affine in y, invertibility unverified"
    if not affine_is_automorphism(affine):
        return "printed map is not invertible"
    return None


def _simple(truth: dict, out: dict) -> str | None:
    if out["simple"] is not truth["simple"]:
        return "simplicity verdict differs from planted truth"
    if len(out["blocks"]) != len(truth["blocks"]):
        return "wrong number of blocks"
    for got, want in zip(out["blocks"], truth["blocks"]):
        if got["simple"] is not want["simple"]:
            return f"block {got['block']} verdict differs from planted truth"
        if want["simple"]:
            continue
        k = [Fraction(v) for v in got["witness"]["k"]]
        z = _uni(got["witness"]["z"])
        if len(k) != len(want["bs"]) or not any(k):
            return "witness weights k are empty or zero"
        combo = O.add(*(O.scale(b, kj) for kj, b in zip(k, want["bs"])))
        if O.add(O.u_image(want["a"], z), O.scale(combo, -1)):
            return "witness (k, z) does not solve z' = a z + sum k_j b_j"
    return None


def _isotropy(truth: dict, out: dict) -> str | None:
    if out["trivial"] is not truth["trivial"]:
        return "isotropy verdict differs from planted truth"
    if truth["trivial"]:
        return None if out["witness"] is None else "witness printed for trivial isotropy"
    if out["witness"] is None:
        return "no witness for non-trivial isotropy"
    return _endo_failure(out["witness"], truth["deriv"], nonidentity=True)


_CASES = {"zero": "a_zero", "const": "a_constant", "deg": "deg_a_ge_1"}


def _describe(truth: dict, out: dict) -> str | None:
    block = truth["blocks"][0]
    if out["case"] != _CASES[block["regime"]]:
        return "describe case differs from the regime of a"
    if out["shift_free"] is not (block["regime"] != "deg"):
        return "shift freedom differs from the regime of a"
    if block["regime"] == "zero":
        if [_uni(h) for h in out["h"]] != [O.u_integral(b) for b in block["bs"]]:
            return "h_t is not the antiderivative of b_t"
    elif out["row_dims"] != [block["row_dim"]] * len(block["bs"]):
        return "row space dimensions differ from planted truth"
    if out["sample"] is None:
        return "no sample drawn"
    return _endo_failure(out["sample"], truth["deriv"], nonidentity=False)


def _locally_finite(truth: dict, out: dict) -> str | None:
    return None if out["locally_finite"] is truth["lf"] else "local finiteness verdict differs"


def _mz(truth: dict, out: dict) -> str | None:
    if out["mz"] != truth["tag"]:
        return "MZ tag differs from planted truth"
    gamma = out["gamma"]
    if truth["tag"] != "UNKNOWN":
        return None if gamma is None else "gamma printed without a dependence"
    a = truth["a"]
    if (
        not isinstance(gamma, list)
        or len(gamma) != len(a)
        or any(not isinstance(g, int) or g < 0 for g in gamma)
        or not any(gamma)
    ):
        return "gamma is not a nonzero vector of nonnegative integers"
    if O.add(*(O.scale(p, g) for p, g in zip(a, gamma))):
        return "sum gamma_j a_j is not zero"
    return None


def _preimage(truth: dict, out: dict) -> str | None:
    from shamsuddin import MultiPoly, apply_derivation, parse_derivation, parse_poly

    if not out["found"]:
        if out["preimage"] is not None:
            return "preimage printed with found=false"
        return "planted preimage not found" if truth["planted"] else None
    n = truth["n"]
    f = parse_poly(out["preimage"], n)
    if apply_derivation(parse_derivation(truth["deriv"]), f) != MultiPoly(n, truth["target"]):
        return "D(f) differs from the target"
    return None


def _apply(truth: dict, out: dict) -> str | None:
    from shamsuddin import parse_poly

    got = parse_poly(out["result"], truth["n"]).terms()
    return None if got == truth["result"] else "D(f) differs from the oracle"


def _commute(truth: dict, out: dict) -> str | None:
    return None if out["commutes"] is truth["commutes"] else "commutation verdict differs"


_CHECKS = {
    "simple": _simple,
    "isotropy": _isotropy,
    "describe": _describe,
    "locally-finite": _locally_finite,
    "mz": _mz,
    "preimage": _preimage,
    "apply": _apply,
    "commute": _commute,
}


def check(kind: str, truth: dict, rc, out: str, err: str) -> str | None:
    """None if the request's answer is correct, else why it failed."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not one JSON object"
    try:
        return _CHECKS[kind](truth, payload)
    except Exception as exc:  # a malformed answer is a failed request, not a crash
        return f"unverifiable output: {exc!r}"[:200]
