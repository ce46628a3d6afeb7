"""Textual grammar, parser, and canonical serializer.

Polynomial grammar (whitespace-insensitive; '^' binds tighter than '*' binds
tighter than '+'/'-'):

    poly     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' poly ')'
    rational := nat ('/' nat)?
    var      := 'x' | 'y' nat

Derivation files are semicolon- or newline-separated entries

    y<i> : a = <poly in x> , b = <poly>

(the x-component of every derivation is implicitly 1 and never written), and
endomorphism files are entries ``x -> <poly>`` and ``y<i> -> <poly>``.

Serialization is canonical: terms sorted by exponent vector descending
(x-degree first, then y1, y2, ...), coefficients as reduced fractions, so
formatting then re-parsing is the identity and output is byte-stable.
"""

from __future__ import annotations

import re

from .derivations import AnyDerivation, Derivation, TriangularDerivation, normalize
from .endos import PolyEndo
from .polynomials import MultiPoly, Rational, UniPoly


class ParseError(ValueError):
    """Syntax-level failure; carries the offending position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SemanticError(ValueError):
    """Well-formed text whose meaning is rejected (arity, dependencies, ...)."""


_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+[0-9]*|->|[-+*^()/:,=]")
_SKIP = re.compile(r"[ \t\r\n]*")

# parser-level guard against pathological inputs like (x+1)^999999; the
# library API itself has no degree limit
MAX_EXPONENT = 256

# parenthesis nesting limit: the parser recurses once per level, so deeper
# input would exhaust the interpreter stack
MAX_DEPTH = 100


class _Tokens:
    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.offset = offset
        self.toks: list[tuple[str, int]] = []
        i = 0
        while i < len(text):
            i = _SKIP.match(text, i).end()
            if i >= len(text):
                break
            m = _TOKEN.match(text, i)
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

    def expect(self, token: str, what: str | None = None) -> None:
        got, pos = self.toks[self.i]
        if got != token:
            raise ParseError(f"expected {what or token!r}, found {got!r}", pos)
        self.i += 1

    def expect_end(self) -> None:
        got, pos = self.toks[self.i]
        if got:
            raise ParseError(f"unexpected trailing input {got!r}", pos)


def _parse_nat(ts: _Tokens, what: str) -> int:
    got, pos = ts.next()
    if not got.isdigit():
        raise ParseError(f"expected {what}, found {got!r}", pos)
    return int(got)


def _parse_base(ts: _Tokens, arity: int) -> MultiPoly:
    got, pos = ts.next()
    if got.isdigit():
        num = int(got)
        if ts.peek() == "/":
            ts.next()
            den = _parse_nat(ts, "a denominator")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return MultiPoly.const(arity, Rational(num, den))
        return MultiPoly.const(arity, num)
    if got == "(":
        if ts.depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested deeper than the parser limit {MAX_DEPTH}", pos)
        ts.depth += 1
        inner = _parse_poly(ts, arity)
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


def _parse_factor(ts: _Tokens, arity: int) -> MultiPoly:
    base = _parse_base(ts, arity)
    if ts.peek() == "^":
        ts.next()
        pos = ts.pos()
        exponent = _parse_nat(ts, "an exponent")
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the parser limit {MAX_EXPONENT}", pos)
        return base**exponent
    return base


def _parse_term(ts: _Tokens, arity: int) -> MultiPoly:
    acc = _parse_factor(ts, arity)
    while ts.peek() == "*":
        ts.next()
        acc = acc * _parse_factor(ts, arity)
    return acc


def _parse_poly(ts: _Tokens, arity: int) -> MultiPoly:
    negate = False
    if ts.peek() in ("+", "-"):
        negate = ts.next()[0] == "-"
    acc = _parse_term(ts, arity)
    if negate:
        acc = -acc
    while ts.peek() in ("+", "-"):
        op = ts.next()[0]
        term = _parse_term(ts, arity)
        acc = acc - term if op == "-" else acc + term
    return acc


def parse_poly(text: str, arity: int) -> MultiPoly:
    """Parse one polynomial in x, y1..y<arity>."""
    ts = _Tokens(text)
    poly = _parse_poly(ts, arity)
    ts.expect_end()
    return poly


def _split_entries(text: str) -> list[tuple[str, int]]:
    entries = []
    start = 0
    for i, ch in enumerate(text + ";"):
        if ch in ";\n":
            frag = text[start:i]
            if frag.strip():
                entries.append((frag, start))
            start = i + 1
    return entries


def _entry_head_index(frag: str, offset: int) -> int:
    ts = _Tokens(frag, offset)
    got, pos = ts.next()
    m = re.fullmatch(r"y([0-9]+)", got)
    if not m:
        raise ParseError(f"entry must start with y<i>, found {got!r}", pos)
    return int(m.group(1))


def parse_derivation(text: str) -> AnyDerivation:
    """Parse a derivation file into its normalized block form when every b is
    univariate in x, and into triangular form otherwise."""
    entries = _split_entries(text)
    n = len(entries)
    indices = [_entry_head_index(frag, off) for frag, off in entries]
    if sorted(indices) != list(range(1, n + 1)):
        raise SemanticError(f"entries must cover y1..y{n} exactly once, got {sorted(indices)}")
    a_by: dict[int, UniPoly] = {}
    b_by: dict[int, MultiPoly] = {}
    for frag, off in entries:
        ts = _Tokens(frag, off)
        j = int(ts.next()[0][1:])
        ts.expect(":")
        got, pos = ts.next()
        if got != "a":
            raise ParseError(f"expected 'a', found {got!r}", pos)
        ts.expect("=")
        a_poly = _parse_poly(ts, n)
        ts.expect(",")
        got, pos = ts.next()
        if got != "b":
            raise ParseError(f"expected 'b', found {got!r}", pos)
        ts.expect("=")
        b_poly = _parse_poly(ts, n)
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


def parse_endo(text: str, arity: int) -> PolyEndo:
    """Parse an endomorphism file; needs images for x and every y1..yn."""
    image_x: MultiPoly | None = None
    images_y: dict[int, MultiPoly] = {}
    for frag, off in _split_entries(text):
        ts = _Tokens(frag, off)
        got, pos = ts.next()
        ts.expect("->")
        poly = _parse_poly(ts, arity)
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


def format_poly(p: MultiPoly | UniPoly) -> str:
    return str(p)


def format_derivation(d: AnyDerivation) -> str:
    if isinstance(d, Derivation):
        pairs: list[tuple[UniPoly, object]] = d.coeff_pairs()
    else:
        pairs = list(zip(d.a, d.b))
    return " ; ".join(f"y{j}: a={a}, b={b}" for j, (a, b) in enumerate(pairs, start=1))


def format_endo(rho: PolyEndo) -> str:
    parts = [f"x -> {rho.image_of_x}"]
    parts += [f"y{t} -> {img}" for t, img in enumerate(rho.images_of_y, start=1)]
    return " ; ".join(parts)
