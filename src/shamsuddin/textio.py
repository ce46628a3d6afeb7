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

Parsing is one pass over the tokens.  A term's numbers and ``var^e``
factors fold straight into one coefficient and one exponent vector, and a
sum accumulates its signed terms into one exponent-vector dict, so a flat
polynomial costs time linear in its number of terms and no polynomial
arithmetic.  Only parenthesised factors are multiplied (and raised to powers)
as ``MultiPoly``; each such product of an m-term by a k-term polynomial must
keep m*k within ``MAX_TERM_PAIRS``, or parsing stops with a
``SemanticError`` (exit 3 in the CLI).  Exponents are capped at
``MAX_EXPONENT``, numbers and y indices at ``MAX_DIGITS`` digits, and
nesting at ``MAX_DEPTH``.

Serialization is canonical: terms sorted by exponent vector descending
(x-degree first, then y1, y2, ...), coefficients as reduced fractions, so
formatting then re-parsing is the identity and output is byte-stable.
"""

from __future__ import annotations

import re

from .derivations import AnyDerivation, Derivation, TriangularDerivation, normalize
from .endos import PolyEndo
from .polynomials import _ZERO, MultiPoly, Rational, Scalar, UniPoly, _raw_multi
from .polynomials import _square_and_multiply


class ParseError(ValueError):
    """Syntax-level failure; carries the offending position in the input."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class SemanticError(ValueError):
    """Well-formed text whose meaning is rejected (arity, dependencies, ...)."""


# a token, or else the first character that starts none, after whitespace
_LEX = re.compile(r"[ \t\r\n]*(?:([0-9]+|[A-Za-z]+[0-9]*|->|[-+*^()/:,=])|([^ \t\r\n]))")
_Y_VAR = re.compile(r"y([0-9]+)")

# parser-level guard against pathological inputs like (x+1)^999999; the
# library API itself has no degree limit
MAX_EXPONENT = 256

# digit limit of a number or a y<index>: CPython's int() refuses longer digit
# strings by default, so the parser stops there itself, with a position
MAX_DIGITS = 4300

# parenthesis nesting limit: the parser recurses once per level, so deeper
# input would exhaust the interpreter stack
MAX_DEPTH = 100

# work budget of the parser: a product of parenthesised polynomials with m
# and k terms costs m*k coefficient products, and (y1+x+1)^256 would need
# billions of them; every product the parser performs must stay within this
MAX_TERM_PAIRS = 2**16


class _Tokens:
    def __init__(self, text: str, offset: int = 0):
        # group 1 is a token, group 2 a character that starts none
        self.toks = [(m.group(1), offset + m.start(m.lastindex)) for m in _LEX.finditer(text)]
        for tok, pos in self.toks:
            if tok is None:
                raise ParseError(f"unexpected character {text[pos - offset]!r}", pos)
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


def _int(digits: str, pos: int) -> int:
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"{len(digits)} digits exceed the parser limit {MAX_DIGITS}", pos)
    return int(digits)


def _parse_nat(ts: _Tokens, what: str) -> int:
    got, pos = ts.next()
    if not got.isdigit():
        raise ParseError(f"expected {what}, found {got!r}", pos)
    return _int(got, pos)


def _parse_exponent(ts: _Tokens) -> int:
    if ts.peek() != "^":
        return 1
    ts.next()
    pos = ts.pos()
    exponent = _parse_nat(ts, "an exponent")
    if exponent > MAX_EXPONENT:
        raise ParseError(f"exponent {exponent} exceeds the parser limit {MAX_EXPONENT}", pos)
    return exponent


def _product(p: MultiPoly, q: MultiPoly, pos: int) -> MultiPoly:
    pairs = len(p.terms()) * len(q.terms())
    if pairs > MAX_TERM_PAIRS:
        raise SemanticError(
            f"product of {pairs} term pairs exceeds the parser limit {MAX_TERM_PAIRS} "
            f"(at position {pos})"
        )
    return p * q


def _power(base: MultiPoly, exponent: int, pos: int) -> MultiPoly:
    """base**exponent by the square-and-multiply steps of MultiPoly.__pow__
    (so the terms come out in the same order), each step within the budget."""
    one = MultiPoly.one(base.arity)
    return _square_and_multiply(base, exponent, one, lambda p, q: _product(p, q, pos))


def _parse_term(ts: _Tokens, arity: int) -> list[tuple[tuple[int, ...], Scalar]]:
    """One product of factors, as its (exponent vector, coefficient) pairs.

    Numbers and variable powers fold into one coefficient and one exponent
    vector; only parenthesised factors are multiplied as polynomials.  A
    monomial factor moves no term of such a product, so the pairs come out in
    the order left-to-right polynomial multiplication gives them.
    """
    coeff: Scalar = 1
    exps = [0] * (arity + 1)
    product: MultiPoly | None = None
    while True:
        got, pos = ts.next()
        if got.isdigit():
            value: Scalar = _int(got, pos)
            if ts.peek() == "/":
                ts.next()
                den = _parse_nat(ts, "a denominator")
                if den == 0:
                    raise ParseError("zero denominator", pos)
                value = Rational(value, den)
            coeff *= value ** _parse_exponent(ts)
        elif got == "(":
            if ts.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than the parser limit {MAX_DEPTH}", pos)
            ts.depth += 1
            inner = _parse_poly(ts, arity)
            ts.expect(")")
            ts.depth -= 1
            factor = _power(inner, _parse_exponent(ts), pos)
            product = factor if product is None else _product(product, factor, pos)
        elif got == "x":
            exps[0] += _parse_exponent(ts)
        else:
            m = _Y_VAR.fullmatch(got)
            if not m:
                raise ParseError(f"expected a number, variable, or '(', found {got!r}", pos)
            j = _int(m.group(1), pos)
            if not 1 <= j <= arity:
                raise ParseError(f"unknown variable {got!r} (arity {arity})", pos)
            exps[j] += _parse_exponent(ts)
        if ts.peek() != "*":
            break
        ts.next()
    if not coeff:
        return []
    if product is None:
        return [(tuple(exps), coeff)]
    return [
        (tuple(a + b for a, b in zip(e, exps)), v * coeff) for e, v in product.terms().items()
    ]


def _parse_poly(ts: _Tokens, arity: int) -> MultiPoly:
    """A signed sum of terms, accumulated into one exponent-vector dict;
    terms that cancel are popped, as MultiPoly.__add__ does."""
    acc: dict[tuple[int, ...], Rational] = {}
    negate = False
    if ts.peek() in ("+", "-"):
        negate = ts.next()[0] == "-"
    while True:
        for e, v in _parse_term(ts, arity):
            q = acc.get(e, _ZERO) - v if negate else acc.get(e, _ZERO) + v
            if q:
                acc[e] = q
            else:
                acc.pop(e, None)
        if ts.peek() not in ("+", "-"):
            return _raw_multi(arity, acc)
        negate = ts.next()[0] == "-"


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


def _entry_head(frag: str, offset: int) -> tuple[_Tokens, int]:
    """Tokenize one derivation entry and read its y<i> head; the tokens are
    left just past the head, for the body."""
    ts = _Tokens(frag, offset)
    got, pos = ts.next()
    m = _Y_VAR.fullmatch(got)
    if not m:
        raise ParseError(f"entry must start with y<i>, found {got!r}", pos)
    return ts, _int(m.group(1), pos)


def parse_derivation(text: str) -> AnyDerivation:
    """Parse a derivation file into its normalized block form when every b is
    univariate in x, and into triangular form otherwise."""
    heads = [_entry_head(frag, off) for frag, off in _split_entries(text)]
    n = len(heads)
    indices = sorted(j for _, j in heads)
    if indices != list(range(1, n + 1)):
        raise SemanticError(f"entries must cover y1..y{n} exactly once, got {indices}")
    a_by: dict[int, UniPoly] = {}
    b_by: dict[int, MultiPoly] = {}
    for ts, j in heads:
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
        m = _Y_VAR.fullmatch(got)
        if not m:
            raise ParseError(f"entry must map x or y<i>, found {got!r}", pos)
        j = _int(m.group(1), pos)
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
