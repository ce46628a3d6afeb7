"""Tests of the benchmark itself: seeded inputs are reproducible and the
checker catches wrong answers.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

RUN = Path(run.__file__)


def _digest(workload: str, seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--inputs-digest", "2"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    first = _digest(workload, 7, "0")
    assert len(first) == 64
    assert _digest(workload, 7, "0") == first
    assert _digest(workload, 7, "1") == first
    assert _digest(workload, 8, "1") != first


@pytest.fixture(scope="module")
def answered():
    """Every request of two cli-mix rounds with its real output."""
    cli = run._import_cli()
    gen = workloads.Generator("cli-mix", 3)
    out = []
    for req in gen.round() + gen.round():
        o, e = io.StringIO(), io.StringIO()
        rc = cli.run(req.argv, o, e)
        out.append((req, rc, o.getvalue(), e.getvalue()))
    return out


def _pick(answered, kind, predicate=lambda req, payload: True):
    for req, rc, out, err in answered:
        if req.kind == kind and predicate(req, json.loads(out)):
            return req, rc, out, err
    raise LookupError(kind)


def _recheck(req, payload: dict) -> str | None:
    return checks.check(req.kind, req.truth, 0, json.dumps(payload), "")


def test_real_answers_pass(answered):
    failures = [(req.kind, checks.check(req.kind, req.truth, rc, out, err)) for req, rc, out, err in answered]
    assert [f for f in failures if f[1] is not None] == []
    assert {req.kind for req, *_ in answered} == set(checks._CHECKS)


def test_tampered_witness_fails(answered):
    req, _, out, _ = _pick(answered, "isotropy", lambda r, p: p["witness"] is not None)
    payload = json.loads(out)
    head, _, rest = payload["witness"].partition(" ; y1 -> ")
    payload["witness"] = f"{head} ; y1 -> x + {rest}"
    assert _recheck(req, payload) is not None


def test_tampered_sample_fails(answered):
    req, _, out, _ = _pick(answered, "describe", lambda r, p: p["sample"] is not None)
    payload = json.loads(out)
    payload["sample"] = payload["sample"].replace("x -> x", "x -> 2*x", 1)
    assert _recheck(req, payload) is not None


@pytest.mark.parametrize("kind, key", [
    ("simple", "simple"),
    ("isotropy", "trivial"),
    ("locally-finite", "locally_finite"),
    ("commute", "commutes"),
])
def test_flipped_verdict_fails(answered, kind, key):
    req, _, out, _ = _pick(answered, kind)
    payload = json.loads(out)
    payload[key] = not payload[key]
    assert _recheck(req, payload) is not None


def test_changed_mz_tag_fails(answered):
    req, _, out, _ = _pick(answered, "mz")
    payload = json.loads(out)
    payload["mz"] = "IS_MZ" if payload["mz"] != "IS_MZ" else "NOT_MZ"
    assert _recheck(req, payload) is not None


def test_preimage_with_one_coefficient_changed_fails(answered):
    from shamsuddin import MultiPoly, parse_poly

    req, _, out, _ = _pick(answered, "preimage", lambda r, p: p["found"])
    payload = json.loads(out)
    n = req.truth["n"]
    terms = parse_poly(payload["preimage"], n).terms()
    mono = next(e for e in sorted(terms) if any(e))  # D kills constants, so skip them
    terms[mono] += 1
    payload["preimage"] = str(MultiPoly(n, terms))
    assert _recheck(req, payload) is not None


def test_missing_planted_preimage_fails(answered):
    req, _, out, _ = _pick(answered, "preimage", lambda r, p: r.truth["planted"])
    payload = dict(json.loads(out), found=False, preimage=None)
    assert _recheck(req, payload) is not None


def test_wrong_derivative_fails(answered):
    req, _, out, _ = _pick(answered, "apply")
    payload = json.loads(out)
    payload["result"] += " + x"
    assert _recheck(req, payload) is not None


def test_nonzero_exit_code_fails(answered):
    req, rc, out, err = _pick(answered, "simple")
    assert checks.check(req.kind, req.truth, 0, out, err) is None
    assert checks.check(req.kind, req.truth, 3, out, "error: boom") is not None
    broken = req.argv[:-1] + [req.argv[-1] + " ; y9: a=(("]
    from shamsuddin.cli import run as cli_run

    rc = cli_run(broken, io.StringIO(), io.StringIO())
    assert rc != 0
    assert checks.check(req.kind, req.truth, rc, "", "") is not None


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _spec() -> dict:
    return json.loads((RUN.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    proc = _bench(["--workload", "cli-mix", "--seed", "1", "--seconds", "0.2", "--trace", trace],
                  RUN.parent.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_fails_without_the_package_source(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in RUN.parent.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(_spec()), encoding="utf-8")
    proc = _bench(["--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
