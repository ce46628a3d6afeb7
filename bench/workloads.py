"""Seeded request generators for the benchmark workloads.

A request is an argv for ``shamsuddin.cli.run`` together with the truth the
checker compares the output against and the shape fields of its per-request
record.  Requests come in rounds.  A round is a fixed list of shapes, and
every round draws fresh coefficients from the seeded generator, so each seed
sees the same mix of sizes and the spread between seeds comes from the
coefficients, not from the mix.  All truth is planted with ``oracle``, never
computed by the package under test.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle as O


@dataclass
class Request:
    kind: str  # subcommand
    argv: list[str]
    truth: dict  # what the checker compares the output against
    meta: dict  # shape fields of the per-request record


# -- random polynomials ---------------------------------------------------------


def _nonzero(rng: random.Random, c: int) -> int:
    v = rng.randint(1, c)
    return v if rng.random() < 0.5 else -v


def _poly(rng: random.Random, deg: int, c: int = 3) -> dict:
    """Random dense integer polynomial of the given degree ({} below 0).

    Every coefficient is nonzero, so the term count, and with it the cost of a
    request, does not depend on the draw."""
    if deg < 0:
        return {}
    return {k: Fraction(_nonzero(rng, c)) for k in range(deg + 1)}


def _multi(rng: random.Random, n: int, terms: int, max_x: int, max_y: int, ys: int) -> dict:
    """Random polynomial with up to `terms` terms in x and y1..y<ys> of an arity-n ring."""
    p: dict = {}
    for _ in range(terms):
        e = [rng.randint(0, max_x)] + [0] * n
        budget = rng.randint(0, max_y)
        for _ in range(budget):
            if ys:
                e[rng.randint(1, ys)] += 1
        p[tuple(e)] = p.get(tuple(e), 0) + _nonzero(rng, 4)
    return O.clean({k: Fraction(v) for k, v in p.items()})


# -- blocks with planted truth --------------------------------------------------


@dataclass
class Block:
    a: dict
    bs: list[dict]
    regime: str  # "zero", "const" or "deg"
    simple: bool
    row_dim: int | None  # dimension of each describe row space; None when a = 0
    k: list | None = None  # planted weights of a non-simple block, k[0] = 1
    z: dict | None = None  # planted solution of z' = a z + sum k_j b_j


def draw_block(rng, regime: str, r: int, deg_b: int, deg_a: int = 0, simple: bool = False) -> Block:
    """One block whose simplicity is known by construction.

    With m = deg a >= 1 the map L(z) = z' - a z is injective and its image has
    the polynomials of degree < m as a complement, so the block is simple iff
    the residues of the b_j modulo Im L are independent; b_j = residue + L(z_j)
    plants them.  For a = 0 or a constant, L is onto and no block is simple.
    A non-simple block plants k = (1, k_2..k_r) and z with b_1 = L(z) - sum k_j b_j.
    """
    if regime == "zero":
        a, m = {}, 0
    elif regime == "const":
        a, m = {0: Fraction(_nonzero(rng, 3))}, 0
    else:
        a, m = _poly(rng, deg_a), deg_a
    zdeg = deg_b + 1 if regime == "zero" else deg_b - m

    def image() -> dict:
        return O.u_image(a, _poly(rng, zdeg)) if regime == "deg" else {}

    def residue(i: int) -> dict:
        return O.add(_poly(rng, i - 1, 2), {i: Fraction(_nonzero(rng, 3))})

    if simple:
        if regime != "deg" or r > m:
            raise ValueError("a simple block needs deg a >= r")
        bs = [O.add(residue(i), image()) for i in range(r)]
        return Block(a, bs, regime, True, 0)
    rest = []
    residues: list[dict] = []
    for i in range(r - 1):
        if regime != "deg":
            rest.append(_poly(rng, deg_b))
            continue
        if i < m:
            res = residue(i)
        else:
            res = O.add(*(O.scale(p, rng.randint(-2, 2)) for p in residues))
        residues.append(res)
        rest.append(O.add(res, image()))
    k = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(r - 1)]
    z = _poly(rng, zdeg)
    b1 = O.add(O.u_image(a, z), *(O.scale(b, -kj) for kj, b in zip(k[1:], rest)))
    if regime == "zero":
        row_dim = None
    elif regime == "const":
        row_dim = r
    else:
        row_dim = r - min(r - 1, m)
    return Block(a, [b1] + rest, regime, False, row_dim, k, z)


def draw_blocks(rng, specs) -> list[Block]:
    """Blocks for the given specs with pairwise distinct a (normalize merges equal a)."""
    blocks: list[Block] = []
    for spec in specs:
        while True:
            blk = draw_block(rng, *spec)
            if all(blk.a != other.a for other in blocks):
                break
        blocks.append(blk)
    return blocks


def deriv_text(pairs: list[tuple[dict, dict]], n: int) -> str:
    """Derivation text from per-variable (a_j univariate, b_j in x, y1..yn)."""
    return " ; ".join(
        f"y{j}: a={O.u_text(a)}, b={O.m_text(b)}" for j, (a, b) in enumerate(pairs, start=1)
    )


def block_pairs(blocks: list[Block]) -> list[tuple[dict, dict]]:
    n = sum(len(b.bs) for b in blocks)
    return [(blk.a, O.m_lift(b, n)) for blk in blocks for b in blk.bs]


def _shape(blocks: list[Block], **extra) -> dict:
    degs_a = [O.u_deg(b.a) for b in blocks]
    return {
        "n": sum(len(b.bs) for b in blocks),
        "r": max(len(b.bs) for b in blocks),
        "deg_a": max(degs_a),
        "max_deg_b": max(O.u_deg(p) for b in blocks for p in b.bs),
        "box_cols": 0,
        "planted": "planted",
        **extra,
    }


def _pairs_meta(pairs: list[tuple[dict, dict]], **extra) -> dict:
    """Record fields of a derivation given per variable, outside the block model."""
    return {
        "n": len(pairs),
        "r": 1,
        "deg_a": max(O.u_deg(a) for a, _ in pairs),
        "max_deg_b": max(max((e[0] for e in b), default=-1) for _, b in pairs),
        "box_cols": 0,
        "planted": "planted",
        **extra,
    }


def _blocks_truth(blocks: list[Block]) -> dict:
    return {
        "blocks": [
            {"a": blk.a, "bs": blk.bs, "simple": blk.simple, "regime": blk.regime, "row_dim": blk.row_dim}
            for blk in blocks
        ]
    }


# -- one request per subcommand -------------------------------------------------


def req_simple(rng, specs) -> Request:
    blocks = draw_blocks(rng, specs)
    text = deriv_text(block_pairs(blocks), _shape(blocks)["n"])
    truth = {"deriv": text, "simple": all(b.simple for b in blocks), **_blocks_truth(blocks)}
    return Request("simple", ["simple", "--json", "--deriv", text], truth, _shape(blocks))


def req_isotropy(rng, specs) -> Request:
    blocks = draw_blocks(rng, specs)
    text = deriv_text(block_pairs(blocks), _shape(blocks)["n"])
    truth = {"deriv": text, "trivial": all(b.simple for b in blocks)}
    return Request("isotropy", ["isotropy", "--witness", "--json", "--deriv", text], truth, _shape(blocks))


def req_describe(rng, spec) -> Request:
    blocks = draw_blocks(rng, [spec])
    text = deriv_text(block_pairs(blocks), len(blocks[0].bs))
    truth = {"deriv": text, **_blocks_truth(blocks)}
    # a fixed sampling seed: the sampled member's size, and so the cost of
    # verifying it, varies with the seed far more than with the coefficients
    return Request("describe", ["describe", "--seed", "1", "--json", "--deriv", text], truth, _shape(blocks))


def req_commute(rng, specs, commuting: bool) -> Request:
    """The first block is non-simple; its planted (k, z) gives a commuting
    automorphism y_1 -> (1-e) y_1 + e z - e sum_{j>=2} k_j y_j.  Adding e*x
    breaks commutation for every a, since D(e x) - a e x = e (1 - a x) != 0."""
    blocks = draw_blocks(rng, specs)
    first = blocks[0]
    n = sum(len(b.bs) for b in blocks)
    r = len(first.bs)
    e = Fraction(rng.choice([2, 3, -1]))
    img = O.add(O.scale(O.m_y(n, 1), 1 - e), O.scale(O.m_lift(first.z, n), e))
    for j in range(1, r):
        img = O.add(img, O.scale(O.m_y(n, j + 1), -e * first.k[j]))
    if not commuting:
        img = O.add(img, {(1,) + (0,) * n: e})
    images = [img] + [O.m_y(n, j) for j in range(2, n + 1)]
    endo = " ; ".join(["x -> x"] + [f"y{j} -> {O.m_text(p)}" for j, p in enumerate(images, start=1)])
    text = deriv_text(block_pairs(blocks), n)
    meta = _shape(blocks, planted="planted" if commuting else "perturbed")
    return Request("commute", ["commute", "--json", "--deriv", text, "--endo", endo], {"commutes": commuting}, meta)


def req_locally_finite(rng, n: int, finite: bool) -> Request:
    """Triangular derivation; locally finite iff every a_j is constant."""
    a_list = [{0: Fraction(rng.randint(-3, 3))} for _ in range(n)]
    if not finite:
        a_list[rng.randrange(n)] = _poly(rng, rng.randint(1, 3))
    a_list = [O.clean(a) for a in a_list]
    pairs = [(a, _multi(rng, n, 3, 2, 2, j)) for j, a in enumerate(a_list)]
    text = deriv_text(pairs, n)
    return Request("locally-finite", ["locally-finite", "--json", "--deriv", text], {"lf": finite},
                   _pairs_meta(pairs))


def _positive_at(rng, deg: int, t: int) -> dict:
    """Random polynomial of the given degree with p(t) in 1..4."""
    p = _poly(rng, deg)
    value = sum(v * t**k for k, v in p.items())
    return O.add(p, {0: Fraction(rng.randint(1, 4)) - value})


def mz_coefficients(rng, n: int, tag: str, max_deg: int) -> list[dict]:
    """a_1..a_n with a known Mathieu-Zhao tag, distinct unless all constant.

    IS_MZ: all constant.  NOT_MZ: every a_j is positive at one point t, so no
    nonzero nonnegative combination vanishes.  UNKNOWN: a_n is minus a planted
    nonnegative combination of the others.  Degrees cycle through 1..max_deg,
    so the first max_deg of them are independent and the Fourier-Motzkin
    search runs over at most n - max_deg variables.
    """
    degrees = [1 + j % max_deg for j in range(n)]
    while True:
        if tag == "IS_MZ":
            return [O.clean({0: Fraction(rng.randint(-4, 4))}) for _ in range(n)]
        if tag == "NOT_MZ":
            t = rng.choice([1, 2, -1])
            a = [_positive_at(rng, deg, t) for deg in degrees]
        else:
            a = [_poly(rng, deg) for deg in degrees[:-1]]
            gamma = [rng.randint(0, 2) for _ in range(n - 1)]
            gamma[rng.randrange(n - 1)] = rng.randint(1, 2)
            last = rng.randint(1, 2)
            a.append(O.scale(O.add(*(O.scale(p, g) for p, g in zip(a, gamma))), Fraction(-1, last)))
        if len({tuple(sorted(p.items())) for p in a}) == n:
            return a


def req_mz(rng, n: int, tag: str, max_deg: int = 3) -> Request:
    a_list = mz_coefficients(rng, n, tag, max_deg)
    pairs = [(a, O.m_lift(_poly(rng, rng.randint(0, 2)), n)) for a in a_list]
    text = deriv_text(pairs, n)
    return Request("mz", ["mz", "--json", "--deriv", text], {"tag": tag, "a": a_list}, _pairs_meta(pairs))


def req_apply(rng, n: int, triangular: bool) -> Request:
    if triangular:
        pairs = [(_poly(rng, rng.randint(0, 2)), _multi(rng, n, 3, 2, 2, j)) for j in range(n)]
    else:
        pairs = [(_poly(rng, rng.randint(0, 3)), O.m_lift(_poly(rng, rng.randint(0, 3)), n)) for _ in range(n)]
    f = _multi(rng, n, 5, 3, 3, n)
    text = deriv_text(pairs, n)
    truth = {"result": O.m_apply(pairs, f, n), "n": n}
    return Request("apply", ["apply", "--json", "--deriv", text, f"--poly={O.m_text(f)}"], truth, _pairs_meta(pairs))


def _box(n: int, max_x: int, max_y: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(max_y + 1)]
    return [(xe,) + e for e in out if sum(e) <= max_y for xe in range(max_x + 1)]


def preimage_coefficients(rng, n: int, dependent: bool) -> list[dict]:
    """a_1..a_n with (dependent) or without a nonzero dependence over N."""
    if dependent:
        a = [_poly(rng, rng.randint(1, 2)) for _ in range(n - 1)]
        a.append(O.scale(a[0], -rng.randint(1, 2)))
        return a
    t = rng.choice([1, 2])
    return [_positive_at(rng, rng.randint(1, 2), t) for _ in range(n)]


def req_preimage(rng, n: int, max_x: int, max_y: int, dependent: bool, planted: bool) -> Request:
    """Planted targets are D(f0) with f0 inside the box and must be found;
    for a random target "none" is an accepted answer."""
    a_list = preimage_coefficients(rng, n, dependent)
    pairs = [(a, O.m_lift(_poly(rng, rng.randint(0, 2), 2), n)) for a in a_list]
    box = _box(n, max_x, max_y)
    if planted:
        f0 = O.clean({e: Fraction(_nonzero(rng, 3)) for e in rng.sample(box, min(4, len(box)))})
        target = O.m_apply(pairs, f0, n)
    else:
        target = _multi(rng, n, 4, max_x, max_y, n)
    text = deriv_text(pairs, n)
    argv = ["preimage", "--json", "--deriv", text, f"--target={O.m_text(target)}",
            "--max-x-deg", str(max_x), "--max-y-deg", str(max_y)]
    meta = _pairs_meta(pairs, box_cols=len(box), planted="planted" if planted else "random",
                       dependent=dependent)
    truth = {"deriv": text, "planted": planted, "target": target, "n": n}
    return Request("preimage", argv, truth, meta)


# -- workloads ------------------------------------------------------------------

# cli-mix: small requests, round-robin over every subcommand; n <= 4 and
# deg <= 3, except mz inputs with 6-10 distinct a_j that make Fourier-Motzkin
# run.  Those with 8 or 10 a_j take degrees up to n - 2: with deg <= 3 the
# search has 4-6 free variables and its elimination blows up (seconds and
# gigabytes for one request).  Each slot is one pass over the subcommands.
_CLI_MIX = [
    [
        lambda g: req_simple(g, [("deg", 2, 3, 2, True)]),
        lambda g: req_isotropy(g, [("deg", 2, 3, 2)]),
        lambda g: req_describe(g, ("deg", 2, 3, 2)),
        lambda g: req_locally_finite(g, 3, True),
        lambda g: req_mz(g, 8, "NOT_MZ", 6),
        lambda g: req_preimage(g, 2, 2, 2, False, True),
        lambda g: req_apply(g, 3, False),
        lambda g: req_commute(g, [("deg", 2, 3, 1)], True),
    ],
    [
        lambda g: req_simple(g, [("deg", 1, 2, 1), ("const", 1, 3)]),
        lambda g: req_isotropy(g, [("deg", 3, 3, 3, True)]),
        lambda g: req_describe(g, ("const", 3, 3)),
        lambda g: req_locally_finite(g, 4, False),
        lambda g: req_mz(g, 3, "IS_MZ"),
        lambda g: req_preimage(g, 1, 3, 2, False, False),
        lambda g: req_apply(g, 3, True),
        lambda g: req_commute(g, [("zero", 2, 3), ("deg", 1, 1, 1, True)], False),
    ],
    [
        lambda g: req_simple(g, [("deg", 3, 3, 3, True), ("zero", 1, 2)]),
        lambda g: req_isotropy(g, [("const", 2, 3), ("deg", 1, 1, 1, True)]),
        lambda g: req_describe(g, ("zero", 2, 3)),
        lambda g: req_locally_finite(g, 2, True),
        lambda g: req_mz(g, 10, "UNKNOWN", 8),
        lambda g: req_preimage(g, 2, 2, 1, True, True),
        lambda g: req_apply(g, 2, False),
        lambda g: req_commute(g, [("const", 2, 3)], True),
    ],
    [
        lambda g: req_simple(g, [("zero", 2, 3)]),
        lambda g: req_isotropy(g, [("zero", 1, 3), ("deg", 2, 3, 2, True)]),
        lambda g: req_describe(g, ("deg", 3, 3, 3, True)),
        lambda g: req_locally_finite(g, 4, False),
        lambda g: req_mz(g, 6, "NOT_MZ"),
        lambda g: req_preimage(g, 2, 2, 2, True, False),
        lambda g: req_apply(g, 4, True),
        lambda g: req_commute(g, [("deg", 3, 3, 2), ("const", 1, 2)], False),
    ],
]

# block-deep: single blocks with r = 2..6, deg b = 10..60 and all three
# regimes of a, simple and planted non-simple mixed.  Sizes sweep in small
# steps, so request costs spread evenly and no percentile sits in a gap
# between two much different shapes; the records give the scaling in deg b
# and r.
_BLOCK_SHAPES = [
    ("zero", 2, 36), ("zero", 2, 24), ("zero", 3, 28), ("zero", 4, 20), ("zero", 5, 14), ("zero", 6, 10),
    ("const", 2, 30), ("const", 2, 20), ("const", 3, 22), ("const", 4, 16), ("const", 5, 12), ("const", 6, 10),
    ("deg", 2, 50, 2, True), ("deg", 2, 30, 2, True), ("deg", 3, 30, 3, True), ("deg", 3, 20, 3, True),
    ("deg", 4, 40, 1), ("deg", 3, 30, 1), ("deg", 6, 20, 2), ("deg", 5, 25, 2), ("deg", 2, 60, 3), ("deg", 2, 40, 3),
]
_BLOCK_DEEP = [
    [
        lambda g, s=s: req_simple(g, [s]),
        lambda g, s=s: req_isotropy(g, [s]),
        lambda g, s=s: req_describe(g, s),
    ]
    for s in _BLOCK_SHAPES
]

# preimage-box: n = 2..3, a sweep of boxes from 24 to 140 columns, one
# planted and one random target each; the a_j have a nonzero dependence over
# N on every other box.
_BOXES = [
    (2, 3, 2), (2, 4, 2), (2, 5, 2), (2, 6, 2), (2, 7, 2), (2, 9, 2),
    (2, 2, 3), (2, 3, 3), (2, 4, 3), (2, 5, 3), (2, 6, 3), (2, 7, 3),
    (2, 3, 4), (2, 4, 4), (2, 5, 4), (2, 6, 4), (2, 7, 4),
    (3, 2, 2), (3, 3, 2), (3, 4, 2),
    (3, 1, 3), (3, 2, 3), (3, 3, 3), (3, 4, 3), (3, 5, 3),
    (3, 2, 4), (3, 3, 4),
]
_PREIMAGE_BOX = [
    [lambda g, b=b, dep=i % 2 == 1, pl=pl: req_preimage(g, *b, dep, pl) for pl in (True, False)]
    for i, b in enumerate(_BOXES)
]

WORKLOADS = {
    "cli-mix": _CLI_MIX,
    "block-deep": _BLOCK_DEEP,
    "preimage-box": _PREIMAGE_BOX,
}

# tiny fixed requests run during set-up, one per subcommand the workload uses
WARMUP = {
    "cli-mix": [
        ["simple", "--json", "--deriv", "y1: a=x, b=1"],
        ["isotropy", "--witness", "--json", "--deriv", "y1: a=1, b=x"],
        ["describe", "--seed", "0", "--json", "--deriv", "y1: a=0, b=1"],
        ["locally-finite", "--json", "--deriv", "y1: a=1, b=0 ; y2: a=2, b=y1^2"],
        ["mz", "--json", "--deriv", "y1: a=x, b=1 ; y2: a=x+1, b=0"],
        ["preimage", "--json", "--deriv", "y1: a=1, b=1", "--target", "y1", "--max-x-deg", "2", "--max-y-deg", "1"],
        ["apply", "--json", "--deriv", "y1: a=x, b=1", "--poly", "y1^2"],
        ["commute", "--json", "--deriv", "y1: a=1, b=0", "--endo", "x -> x ; y1 -> 2*y1"],
    ],
    "block-deep": [
        ["simple", "--json", "--deriv", "y1: a=x, b=1 ; y2: a=x, b=x"],
        ["isotropy", "--witness", "--json", "--deriv", "y1: a=1, b=x ; y2: a=1, b=x^2"],
        ["describe", "--seed", "0", "--json", "--deriv", "y1: a=x^2, b=x^3 ; y2: a=x^2, b=1"],
    ],
    "preimage-box": [
        ["preimage", "--json", "--deriv", "y1: a=x, b=1 ; y2: a=1, b=x", "--target", "y1*y2",
         "--max-x-deg", "2", "--max-y-deg", "2"],
    ],
}


class Generator:
    """Endless, seeded stream of requests for one workload, round by round."""

    def __init__(self, workload: str, seed: int):
        self.slots = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")

    def round(self) -> list[Request]:
        """One request per shape, in slot order (round-robin over subcommands for cli-mix)."""
        return [make(self.rng) for group in self.slots for make in group]


def inputs_digest(workload: str, seed: int, rounds: int) -> str:
    gen = Generator(workload, seed)
    h = hashlib.sha256()
    for _ in range(rounds):
        for req in gen.round():
            h.update("\0".join(req.argv).encode())
            h.update(b"\n")
    return h.hexdigest()
