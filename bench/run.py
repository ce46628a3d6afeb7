"""Benchmark of the shamsuddin command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Load is a closed loop with one client: one process and one thread send one
request at a time, in process, through ``shamsuddin.cli.run(argv, out, err)``,
the way a script or shell loop waits for each verdict.  The program sees only
the generated argv; the seed drives the generator (``workloads.py``).  Every
answer is checked against planted truth after its clock stops
(``checks.py``).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
requests three times: untraced, with spans around every layer's public
functions (``spans.py``), and under cProfile; it reports the per-layer
metrics, writes spans and per-request records under ``.bench_out/``, and
names the layer with the largest self time.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 2  # set-ups before the first request (the first one also warms caches)
SETUP_SPACING = 1 / 8  # share of --seconds of request time between two later set-ups
MIN_SAMPLES = 100  # so that ten samples lie beyond the 90th percentile
TRACED_SHARE = 1 / 5  # share of --seconds the traced run spends on its untraced pass


def _import_cli():
    """Import the package fresh from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "shamsuddin" / "cli.py").is_file():
        raise SystemExit(f"error: no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "shamsuddin" or m.startswith("shamsuddin.")]:
        del sys.modules[name]
    cli = importlib.import_module("shamsuddin.cli")
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported {cli.__file__}, not the package under {src}")
    return cli


def setup(workload: str, seed: int):
    """Import the package, generate the first round, warm up; returns (seconds, cli, generator, round)."""
    start = perf_counter()
    cli = _import_cli()
    gen = workloads.Generator(workload, seed)
    first = gen.round()
    for argv in workloads.WARMUP[workload]:
        rc = cli.run(argv, io.StringIO(), io.StringIO())
        if rc != 0:
            raise SystemExit(f"error: warm-up request {argv[0]} exited with {rc}")
    return perf_counter() - start, cli, gen, first


class Result:
    __slots__ = ("req", "latency", "failure")

    def __init__(self, req, latency: float, failure: str | None):
        self.req, self.latency, self.failure = req, latency, failure


def issue(cli, req, enable=None, disable=None) -> Result:
    """Run one request; the clock (and any probe) covers only cli.run, the check comes after."""
    out, err = io.StringIO(), io.StringIO()
    if enable is not None:
        enable()
    start = perf_counter()
    try:
        rc = cli.run(req.argv, out, err)
    except Exception as exc:  # an escaping exception is a failed request
        rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        latency = perf_counter() - start
        if disable is not None:
            disable()
    return Result(req, latency, checks.check(req.kind, req.truth, rc, out.getvalue(), err.getvalue()))


def measure(cli, gen, first: list, seconds: float, min_samples: int = MIN_SAMPLES, keep: bool = False,
            between=None):
    """Whole rounds until the requests took `seconds` and min_samples were made.

    Returns (latencies, failure reasons, results); results are kept only when
    asked, so that the benchmark's own memory does not grow with the run.
    `between` is called after a request whenever SETUP_SPACING of `seconds`
    has passed since its last call."""
    latencies: list[float] = []
    failures: list[str] = []
    results: list[Result] = []
    busy = last = 0.0
    batch = first
    while True:
        for req in batch:
            res = issue(cli, req)
            busy += res.latency
            latencies.append(res.latency)
            if res.failure is not None:
                failures.append(f"request {len(latencies) - 1} ({req.kind}): {res.failure}")
            if keep:
                results.append(res)
            if between is not None and busy - last >= seconds * SETUP_SPACING:
                between()
                last = busy
        if busy >= seconds and len(latencies) >= min_samples:
            return latencies, failures, results
        batch = gen.round()


def _report(failures: list[str]) -> None:
    for line in failures:
        print(f"# FAILED {line}", file=sys.stderr)


def run_untraced(args) -> dict:
    # Set-ups are spread over the run, so that they meet the same machine
    # conditions as the requests; the requests keep the first import.
    setups = []
    for _ in range(SETUP_REPEATS):
        took, cli, gen, first = setup(args.workload, args.seed)
        setups.append(took)
    wall = perf_counter()
    lat, failures, _ = measure(cli, gen, first, args.seconds,
                               between=lambda: setups.append(setup(args.workload, args.seed)[0]))
    wall = perf_counter() - wall
    _report(failures)
    busy = sum(lat)
    deciles = statistics.quantiles(lat, n=10)
    failed = len(failures)
    metrics = {
        "requests_per_s": (len(lat) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# {args.workload} seed {args.seed}: {len(lat)} requests (latency samples) "
          f"in {busy:.2f} s inside cli.run ({wall:.2f} s with generation and checks), "
          f"failed_ratio {failed / len(lat):.4f}")
    return {"correct": failed == 0, "attempted": len(lat), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_traced(args) -> dict:
    _, cli, gen, first = setup(args.workload, args.seed)
    _, _, plain = measure(cli, gen, first, args.seconds * TRACED_SHARE, min_samples=1, keep=True)
    requests = [r.req for r in plain]

    tracer = spans.SpanTracer()
    tracer.install()
    try:
        traced = [issue(cli, req, tracer.start, tracer.stop) for req in requests]
    finally:
        tracer.uninstall()

    profiler = cProfile.Profile()
    profiled = [issue(cli, req, profiler.enable, profiler.disable) for req in requests]

    everything = plain + traced + profiled
    _report([f"request {i} ({r.req.kind}): {r.failure}" for i, r in enumerate(everything) if r.failure])
    failed = sum(r.failure is not None for r in everything)
    traced_time = sum(r.latency for r in traced)
    plain_time = sum(r.latency for r in plain)
    metrics = tracer.metrics(traced_time)
    rollup = spans.profile_rollup(profiler)
    profile_total = sum(rollup.values())
    metrics["fractions.share"] = rollup["fractions"] / profile_total
    for bucket in spans.PROFILE_BUCKETS:
        metrics[f"profile.{bucket}.share"] = rollup[bucket] / profile_total
    metrics["trace.overhead_ratio"] = traced_time / plain_time
    metrics["failed_ratio"] = failed / len(everything)

    _print_layers(args, metrics, len(requests))
    _write_trace(args, tracer, plain, traced)
    units = _units()
    return {"correct": failed == 0, "attempted": len(everything), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _print_layers(args, m: dict, count: int) -> None:
    print(f"# {args.workload} seed {args.seed}: traced {count} requests; "
          f"trace.overhead_ratio {m['trace.overhead_ratio']:.3f}")
    print(f"# {'layer':12s} {'calls':>10s} {'self_s':>9s} {'share':>7s} {'cProfile share':>15s}")
    for layer in spans.LAYERS:
        print(f"# {layer:12s} {m[layer + '.calls']:10d} {m[layer + '.self_s']:9.3f} "
              f"{m[layer + '.share']:7.3f} {m['profile.' + layer + '.share']:15.3f}")
    for bucket in ("fractions", "argparse", "other"):
        print(f"# {bucket:12s} {'':>10s} {'':>9s} {'':>7s} {m['profile.' + bucket + '.share']:15.3f}")
    top = max(spans.LAYERS, key=lambda layer: m[layer + ".self_s"])
    print(f"# largest self time on {args.workload}: {top} "
          f"({m[top + '.self_s']:.3f} s, share {m[top + '.share']:.3f})")
    print("# time waited: not measured; the program is single-threaded and has no "
          "queues, so no layer waits for another")


def _write_trace(args, tracer: spans.SpanTracer, plain: list, traced: list) -> None:
    """Spans and per-request records of the traced run, written once at the end."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    records = [
        {"workload": args.workload, "request": i, "subcommand": p.req.kind, **p.req.meta,
         "latency_ms": p.latency * 1e3, "traced_latency_ms": t.latency * 1e3,
         "failed": p.failure is not None}
        for i, (p, t) in enumerate(zip(plain, traced))
    ]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "records": records,
        "span_fields": ["id", "name", "start", "end", "parent", "request"],
        "spans": tracer.spans,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    print(f"# spans and per-request records: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="request time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs-digest", type=int, metavar="ROUNDS",
                   help="print the digest of the first ROUNDS rounds of inputs and exit")
    args = p.parse_args(argv)
    if args.inputs_digest is not None:
        print(workloads.inputs_digest(args.workload, args.seed, args.inputs_digest))
        return 0
    result = run_traced(args) if args.trace else run_untraced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
