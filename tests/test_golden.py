"""Byte-identical output of the isotropy commands.

Replays every request of the committed golden corpus through ``cli.run`` and
compares the exit code, stdout and stderr verbatim.  A change that alters
output on purpose regenerates the corpus with ``tests/make_golden.py``.
"""

import io
import json

import pytest

from make_golden import CORPUS

from shamsuddin.cli import run


def test_golden_corpus_replays_byte_identical():
    records = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(records) >= 150
    mismatches = []
    for rec in records:
        out, err = io.StringIO(), io.StringIO()
        code = run(rec["argv"], out, err)
        got = (code, out.getvalue(), err.getvalue())
        want = (rec["exit"], rec["stdout"], rec["stderr"])
        if got != want:
            mismatches.append(
                f"argv: {rec['argv']}\n"
                f"expected exit {want[0]}\nstdout:\n{want[1]}stderr:\n{want[2]}"
                f"got exit {got[0]}\nstdout:\n{got[1]}stderr:\n{got[2]}"
            )
    if mismatches:
        pytest.fail(f"{len(mismatches)} of {len(records)} requests differ\n\n" + "\n".join(mismatches))
