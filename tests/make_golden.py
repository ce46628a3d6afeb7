"""Regenerate the golden corpus of the isotropy commands.

Builds a fixed, seeded set of ``simple``, ``isotropy`` and ``describe``
requests from the generators in ``conftest.py``, runs each through
``cli.run`` and stores its argv, exit code and verbatim stdout and stderr in
``data/golden_isotropy.json``, which ``test_golden.py`` replays.  Run it from
the repository root after a change that alters output on purpose:

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

from conftest import rand_unipoly

from shamsuddin import UniPoly, format_derivation, normalize
from shamsuddin.cli import run

CORPUS = Path(__file__).resolve().parent / "data" / "golden_isotropy.json"

SEED = 20240917
#: the coefficient a of each single block, by degree: -1 is a = 0
A_DEGREES = (-1, 0, 1, 2, 3)
SAMPLE_SEEDS = (0, 1, 5, 9)


def _a(rng: random.Random, deg: int) -> UniPoly:
    if deg < 0:
        return UniPoly.zero()
    while True:
        a = rand_unipoly(rng, deg, allow_zero=False)
        if a.degree == deg:
            return a


def _bs(rng: random.Random, a: UniPoly, r: int) -> list[UniPoly]:
    """r b's of degree <= 12.  For deg a >= 1 either at most deg a random
    b's, which are likely simple, or one b planted in the image of
    z -> z' - a z or a combination of the others, which is not simple."""
    bs = [rand_unipoly(rng, 12) for _ in range(r)]
    if a.degree >= 1:
        kind = rng.choice(["random", "random", "planted", "dependent"])
        if kind == "random":
            del bs[int(a.degree) :]
        elif kind == "planted":
            z = rand_unipoly(rng, 12 - int(a.degree), allow_zero=False)
            bs[-1] = z.derivative() - a * z
        elif kind == "dependent" and r >= 2:
            bs[-1] = bs[0] * rng.randint(-2, 2) + bs[-2] * rng.randint(1, 2)
    return bs


def _derivations(rng: random.Random) -> list[str]:
    texts = []
    for i in range(15):
        a = _a(rng, A_DEGREES[i % len(A_DEGREES)])
        texts.append(format_derivation(normalize([(a, b) for b in _bs(rng, a, 1 + i % 4)])))
    for _ in range(2):
        pairs = [(_a(rng, rng.choice(A_DEGREES)), rand_unipoly(rng, 12)) for _ in range(rng.randint(2, 3))]
        texts.append(format_derivation(normalize(pairs)))
    return texts


def build_argvs() -> list[list[str]]:
    """Per derivation: simple and isotropy --witness in text and --json,
    plain isotropy, and describe at each sample seed, alternating text and
    --json."""
    rng = random.Random(SEED)
    argvs = []
    for text in _derivations(rng):
        for extra in ([], ["--json"]):
            argvs.append(["simple", "--deriv", text, *extra])
            argvs.append(["isotropy", "--deriv", text, "--witness", *extra])
        argvs.append(["isotropy", "--deriv", text])
        for i, seed in enumerate(SAMPLE_SEEDS):
            argvs.append(["describe", "--deriv", text, "--seed", str(seed), *(["--json"] if i % 2 else [])])
    return argvs


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    records = [replay(argv) for argv in build_argvs()]
    CORPUS.parent.mkdir(exist_ok=True)
    body = ",\n".join(json.dumps(rec) for rec in records)
    CORPUS.write_text(f"[\n{body}\n]\n", encoding="utf-8")
    print(f"{len(records)} requests, {CORPUS.stat().st_size} bytes -> {CORPUS}")


if __name__ == "__main__":
    main()
