"""Per-layer attribution for the traced run, installed from outside the package.

A layer is one module of the package.  ``SpanTracer.install`` replaces every
public function and method of each layer, and every alias another module
bound with ``from .x import y``, by a wrapper that counts the call and, at a
layer boundary, records a span (name, start, end, parent, request id).  A
call from a layer into the same layer, or into an O(1) accessor, is counted
but opens no span.  The elimination and Fourier-Motzkin entry points always
open one, so their own time can be read apart.  A span's self time is its duration minus
the time of its child spans.  Spans are kept in memory and written out at
the end.

The package is single-threaded and has no queues, so no layer ever waits for
another: there is no "time waited" metric to report.

``profile_rollup`` is the cross-check: cProfile tottime summed per package
module, plus ``fractions``, ``argparse`` and everything else.
"""

from __future__ import annotations

import pstats
import sys
from collections import defaultdict
from enum import Enum
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "textio", "analysis", "ode", "linalg", "derivations", "endos", "polynomials")

# dunder methods that do a layer's work (arithmetic, construction, evaluation)
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__pow__", "__call__"}

# O(1) accessors: counted, but their time stays with the caller, since a span
# would cost more than the call
_COUNT_ONLY = {"polynomials.as_rational", "polynomials.UniPoly.coeff", "polynomials.UniPoly.items",
               "polynomials.MultiPoly.coeff", "polynomials.MultiPoly.terms",
               "linalg.QMatrix.entry", "linalg.QMatrix.row"}

ELIMINATIONS = {f"linalg.QMatrix.{m}" for m in ("rank", "det", "nullspace", "solve_affine", "inverse")}
FM = "linalg.nonneg_kernel_witness"
_ALWAYS_SPAN = ELIMINATIONS | {FM}


def _entry_bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _returned_entries(name: str, result):
    """Rational entries of what an elimination returned."""
    if result is None or name.endswith(".rank"):
        return ()
    if name.endswith(".det"):
        return (result,)
    if name.endswith(".nullspace"):
        return [v for vec in result for v in vec]
    if name.endswith(".solve_affine"):
        return list(result.particular) + [v for vec in result.basis for v in vec]
    return [v for row in result.row_list() for v in row]  # inverse


class SpanTracer:
    """Wrappers, spans and per-layer counters for one traced pass."""

    def __init__(self):
        self.active = False
        self.request = -1
        self.stack: list[list] = []  # open spans: [layer, child_time, span_id]
        self.spans: list[tuple] = []  # (span_id, name, start, end, parent_id, request)
        self.calls: dict[str, int] = defaultdict(int)  # per function name
        self.self_s: dict[str, float] = defaultdict(float)  # per function name
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.stats: dict[str, float] = defaultdict(float)
        self._undo: list[tuple] = []

    def start(self) -> None:
        """Trace the calls of the next request."""
        self.request += 1
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        always = name in _ALWAYS_SPAN
        count_only = name in _COUNT_ONLY
        on_result = self._result_hook(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer.layer_calls[layer] += 1
            stack = tracer.stack
            if count_only or (stack and stack[-1][0] == layer and not always):
                result = fn(*args, **kwargs)
            else:
                span_id = len(tracer.spans)
                tracer.spans.append(None)  # placeholder keeps ids in start order
                parent = stack[-1][2] if stack else -1
                frame = [layer, 0.0, span_id]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    own = end - start - frame[1]
                    tracer.self_s[name] += own
                    tracer.layer_self[layer] += own
                    if stack:
                        stack[-1][1] += end - start
                    tracer.spans[span_id] = (span_id, name, start, end, parent, tracer.request)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _result_hook(self, name: str):
        stats = self.stats
        if name in ELIMINATIONS:
            def hook(args, result):
                matrix = args[0]
                stats["linalg.eliminations"] += 1
                stats["linalg.cells"] += matrix.rows * matrix.cols
                stats["linalg.max_cols"] = max(stats["linalg.max_cols"], matrix.cols)
                bits = _entry_bits(_returned_entries(name, result))
                stats["linalg.max_entry_bits"] = max(stats["linalg.max_entry_bits"], bits)
            return hook
        if name == "ode.solve_parametric":
            def hook(args, result):
                stats["ode.system_cols"] += result.ambient_dim
                if result.z_bound is not None:
                    stats["ode.max_z_bound"] = max(stats["ode.max_z_bound"], result.z_bound)
            return hook
        if name == "analysis.sample_isotropy_element":
            def hook(args, result):
                stats["accepted_samples"] += result is not None
            return hook
        return None

    def _echelon_counter(self, fn):
        """Counts pivots against columns of every Bareiss run (private helper)."""
        tracer = self

        def counted(rows, limit_cols):
            result = fn(rows, limit_cols)
            if tracer.active:
                tracer.stats["rank_total"] += len(result[1])
                tracer.stats["cols_total"] += limit_cols
            return result

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "shamsuddin" or name.startswith("shamsuddin.")}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"shamsuddin.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    replaced[id(obj)] = self._wrap(obj, layer, f"{layer}.{attr}")
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, Enum)):
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._replace(mod, attr, replaced[id(obj)])
        linalg = modules["shamsuddin.linalg"]
        self._replace(linalg, "_ff_echelon", self._echelon_counter(linalg._ff_echelon))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, FunctionType):
                self._replace(cls, attr, self._wrap(val, layer, name))
            elif isinstance(val, (classmethod, staticmethod)):
                self._replace(cls, attr, type(val)(self._wrap(val.__func__, layer, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------------

    def metrics(self, request_time: float) -> dict[str, float]:
        """Per-layer metrics of the pass; shares are of the traced request time."""
        s = self.stats
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.share"] = self.layer_self[layer] / request_time
        for key in ("linalg.eliminations", "linalg.cells", "linalg.max_cols", "linalg.max_entry_bits"):
            out[key] = int(s[key])
        out["linalg.rank_ratio"] = s["rank_total"] / s["cols_total"] if s["cols_total"] else 0.0
        out["linalg.fm_calls"] = self.calls[FM]
        out["linalg.fm_self_s"] = self.self_s[FM]
        out["ode.system_cols"] = int(s["ode.system_cols"])
        out["ode.max_z_bound"] = int(s["ode.max_z_bound"])
        out["endos.commutes_calls"] = self.calls["endos.commutes"]
        checks = self.calls["endos.affine_is_automorphism"]
        out["endos.det_checks_per_sample"] = checks / s["accepted_samples"] if s["accepted_samples"] else 0.0
        out["polynomials.mul_calls"] = sum(
            self.calls[f"polynomials.{c}.{m}"] for c in ("UniPoly", "MultiPoly") for m in ("__mul__", "__rmul__"))
        out["polynomials.substitute_calls"] = self.calls["polynomials.MultiPoly.substitute"]
        return out


# -- cProfile roll-up --------------------------------------------------------------

PROFILE_BUCKETS = LAYERS + ("fractions", "argparse", "other")


def _bucket(filename: str) -> str | None:
    """Bucket of a profiled function's file; None for C builtins."""
    if filename == "~":
        return None
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "shamsuddin" and parts[-1][:-3] in LAYERS:
        return parts[-1][:-3]
    if parts[-1] in ("fractions.py", "argparse.py"):
        return parts[-1][:-3]
    return "other"


def profile_rollup(profiler) -> dict[str, float]:
    """tottime per bucket; a C builtin's time goes to the bucket of its caller."""
    stats = pstats.Stats(profiler).stats
    totals = dict.fromkeys(PROFILE_BUCKETS, 0.0)
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        bucket = _bucket(filename)
        if bucket is not None:
            totals[bucket] += tottime
            continue
        for (caller_file, _, _), edge in callers.items():
            totals[_bucket(caller_file) or "other"] += edge[2]
    return totals
