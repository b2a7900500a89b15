"""Span recorder and per-layer metrics for the traced benchmark pass.

The layers are the modules of ``hilbert_kp``. ``instrument`` wraps, from the
outside, every public function of those modules, plus the construction
(``__post_init__``) and public methods of their dataclasses. It patches each
wrapped function under every name the package binds it to, so calls through
names imported into another module (``norms.kernel_matrix``,
``proof_checks.adaptive_integrate``) are recorded too. No library source is
edited, and every patched attribute is restored on exit.

Everything runs in one thread, so a span's children are exactly the spans
opened while it was the innermost open one. Nothing queues or waits, and no
wait time is recorded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

LAYERS = ("sequences", "kernels", "kp", "quadrature", "proof_checks", "norms", "cli")

# Layer of each module's functions, where a module is split by job.
DEFAULT_LAYER = {"kernels": "kernels.form"}
SUB_LAYER = {
    "kernels.row_sum_alpha": "kernels.row_sum",
    "norms.ascent_lower_bound": "norms.ascent",
    "norms.epsilon_family": "norms.eps_family",
    "norms.epsilon_family_ratio": "norms.eps_family",
    "norms.epsilon_family_estimate": "norms.eps_family",
    "norms.default_truncation": "norms.eps_family",
    "norms.pushed_epsilon_family": "norms.eps_family",
    "norms.kp_sharpness_bound": "norms.eps_family",
}
# Private functions that are a layer boundary all the same: CSV formatting
# and writing.
PRIVATE_BOUNDARIES = {"cli._emit"}


def _checks(args, result):
    from hilbert_kp.proof_checks import CheckReport
    reports = result if isinstance(result, list) else [result]
    reports = [r for r in reports if isinstance(r, CheckReport)]
    if not reports:
        return None
    return {"proof_checks.checks": len(reports),
            "proof_checks.failed": sum(not r.passed for r in reports)}


def _kp_entries(args, result):
    nnz = sum(v != 0.0 for v in args[0].coeffs.values)
    return {"kp.entries": nnz * len(result.coeffs)}


# Work counted at a boundary, from the call's arguments and result.
COUNTERS = {
    "quadrature.adaptive_integrate":
        lambda args, result: {"quadrature.panels": result.subdivisions},
    "kernels.kernel_matrix": lambda args, result: {"kernels.entries": result.size},
    "sequences.Sequence.__post_init__":
        lambda args, result: {"sequences.entries": len(args[0].values)},
    "kp.hilbert_apply": _kp_entries,
    "norms.ascent_lower_bound":
        lambda args, result: {"norms.ascent.matvecs": len(result.trace)},
    "cli._emit": lambda args, result: {"cli.rows": len(args[2])},
}
MODULE_COUNTERS = {"proof_checks": _checks}
TRACE_MEMORY = {"norms.ascent_lower_bound": "norms.ascent.peak_mb"}
# A sweep returns the reports of the checks it ran, so checks are counted
# only where a call enters the layer.
ENTRY_ONLY = {"proof_checks.checks", "proof_checks.failed"}
PEAK = {"norms.ascent.peak_mb"}

# The per-layer metrics of one job, with their units.
PER_LAYER = (
    ("quadrature.calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.panels_per_s", "1/s"),
    ("proof_checks.checks", "count"),
    ("proof_checks.failed", "count"),
    ("proof_checks.self_s", "s"),
    ("kernels.form.calls", "count"),
    ("kernels.form.self_s", "s"),
    ("kernels.entries", "count"),
    ("kernels.entries_per_s", "1/s"),
    ("kernels.row_sum.calls", "count"),
    ("kernels.row_sum.self_s", "s"),
    ("sequences.calls", "count"),
    ("sequences.entries", "count"),
    ("sequences.self_s", "s"),
    ("kp.calls", "count"),
    ("kp.entries", "count"),
    ("kp.self_s", "s"),
    ("norms.ascent.calls", "count"),
    ("norms.ascent.matvecs", "count"),
    ("norms.ascent.self_s", "s"),
    ("norms.ascent.peak_mb", "MB"),
    ("norms.eps_family.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.rows", "count"),
    ("trace.overhead_frac", "fraction"),
)


@dataclasses.dataclass(slots=True)
class Span:
    layer: str
    name: str
    parent: int          # index into the same span list, -1 for a root
    start: int           # perf_counter_ns
    end: int = 0
    counts: dict | None = None


class SpanRecorder:
    """Keeps the spans of the current job in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _enter(self, layer: str, name: str) -> Span:
        span = Span(layer, name, self._open[-1] if self._open else -1,
                    time.perf_counter_ns())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _leave(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        span = self._enter(layer, name)
        try:
            yield span
        finally:
            self._leave(span)

    def wrap(self, layer: str, name: str, fn, count=None, peak_key=None):
        """`fn` recording one span per call; `count(args, result)` gives the
        span's work counts, `peak_key` names a tracemalloc peak in MB."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if peak_key:
                tracemalloc.start()
            span = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span)
                if peak_key:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counts = count(args, result) if count else None
            if peak_key:
                counts = {**(counts or {}), peak_key: peak / 2 ** 20}
            span.counts = counts
            return result
        return wrapper


def _boundaries(module):
    """(owner, attribute, qualified name, function) for every boundary the
    module defines."""
    short = module.__name__.rsplit(".", 1)[1]
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        qualified = f"{short}.{attr}"
        if inspect.isfunction(obj):
            if not attr.startswith("_") or qualified in PRIVATE_BOUNDARIES:
                yield module, attr, qualified, obj
        elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            for name, member in list(vars(obj).items()):
                fn = member.__func__ if isinstance(member, staticmethod) else member
                if inspect.isfunction(fn) and (name == "__post_init__"
                                               or not name.startswith("_")):
                    yield obj, name, f"{qualified}.{name}", member


@contextmanager
def instrument(recorder: SpanRecorder):
    """Record a span for every call into a layer while the block runs."""
    modules = [importlib.import_module(f"hilbert_kp.{name}") for name in LAYERS]
    package = [m for n, m in sys.modules.items()
               if n == "hilbert_kp" or n.startswith("hilbert_kp.")]
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for owner, attr, qualified, member in _boundaries(module):
                layer = SUB_LAYER.get(qualified, DEFAULT_LAYER.get(short, short))
                count = COUNTERS.get(qualified, MODULE_COUNTERS.get(short))
                if isinstance(member, staticmethod):
                    patch(owner, attr, staticmethod(recorder.wrap(
                        layer, qualified, member.__func__, count)))
                    continue
                wrapped = recorder.wrap(layer, qualified, member, count,
                                        TRACE_MEMORY.get(qualified))
                if owner is module:
                    for other in package:
                        for name, value in list(vars(other).items()):
                            if value is member:
                                patch(other, name, wrapped)
                else:
                    patch(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one job's spans. A layer's calls are its entry
    spans: those whose parent lies in another layer."""
    self_ns = Counter()
    calls = Counter()
    counts = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_ns[span.layer] += own
        entry = span.parent < 0 or spans[span.parent].layer != span.layer
        calls[span.layer] += entry
        for key, value in (span.counts or {}).items():
            if key in PEAK:
                counts[key] = max(counts[key], value)
            elif entry or key not in ENTRY_ONLY:
                counts[key] += value
    metrics = {}
    for layer in ("quadrature", "kernels.form", "kernels.row_sum", "sequences",
                  "kp", "norms.ascent"):
        metrics[f"{layer}.calls"] = calls[layer]
    for layer in ("quadrature", "proof_checks", "kernels.form", "kernels.row_sum",
                  "sequences", "kp", "norms.ascent", "norms.eps_family", "cli"):
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    for key in ("quadrature.panels", "proof_checks.checks", "proof_checks.failed",
                "kernels.entries", "sequences.entries", "kp.entries",
                "norms.ascent.matvecs", "norms.ascent.peak_mb", "cli.rows"):
        metrics[key] = counts[key]
    metrics["quadrature.panels_per_s"] = _rate(counts["quadrature.panels"],
                                               metrics["quadrature.self_s"])
    metrics["kernels.entries_per_s"] = _rate(counts["kernels.entries"],
                                             metrics["kernels.form.self_s"])
    return metrics


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def write_spans(path, jobs: list[list[Span]]) -> None:
    """One CSV line per span; `parent` indexes spans of the same job."""
    with open(path, "w") as fh:
        fh.write("job,id,parent,layer,name,start_ns,end_ns,counts\n")
        for job, spans in enumerate(jobs):
            for i, s in enumerate(spans):
                counts = ";".join(f"{k}={v}" for k, v in (s.counts or {}).items())
                fh.write(f"{job},{i},{s.parent},{s.layer},{s.name},"
                         f"{s.start},{s.end},{counts}\n")
