"""Spans around calls into ftlab's layers, recorded from outside the package.

Tracer.install() rebinds each traced public function, in every loaded ftlab
module that holds it, to a wrapper that records a span: name, start, end,
parent span and job id. `jsonschema.validate` is traced as ftlab.cli calls
it, through a stand-in for the jsonschema module inside ftlab.cli only.
Spans stay in memory until the run ends. With `alloc=True` each span also
records the peak tracemalloc allocation above its starting level.

Only the benchmark's traced run installs a tracer; spans are opened and
closed on the calling thread, and none of the traced functions is called
from the worker threads ftlab starts.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import jsonschema

# (defining module, function) pairs; the span name is "<layer>.<function>".
TRACED = [
    ("matcore", "embed_operator"),
    ("matcore", "trace_norm"),
    ("matcore", "partial_trace"),
    ("channels", "diamond_distance"),
    ("channels", "strength_markovian"),
    ("channels", "compose_channels"),
    ("circuit", "simulate_ideal"),
    ("circuit", "simulate_noisy"),
    ("circuit", "simulate_with_environment"),
    ("faultpaths", "accuracy_delta_exact"),
    ("faultpaths", "zeta_earliest"),
    ("faultpaths", "zeta_subset"),
    ("faultpaths", "verify_ie_identity"),
    ("gadgets", "level_reduce_mc"),
    ("gadgets", "truncate_and_classify"),
    ("gadgets", "sample_fault_config"),
    ("gadgets", "level1_failure_mc"),
    ("threshold", "pseudothreshold_mc"),
    ("threshold", "threshold_report"),
    ("cli", "main"),
    ("cli", "emit_report"),
    ("cli", "json_dumps"),
]


def _operator_bytes(out) -> int:
    """Bytes of a returned complex128 operator: 16 * d^2."""
    return 16 * int(out.shape[0]) * int(out.shape[1])


def _payload_bytes(out) -> int:
    return len(out)


# Per-span size counters, by span name.
MEASURES = {"matcore.embed_operator": _operator_bytes, "cli.emit_report": _payload_bytes}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    job: str
    start: float
    end: float = 0.0
    bytes: int = 0
    alloc_base: int = 0
    alloc_peak: int = 0

    @property
    def peak_alloc(self) -> int:
        return self.alloc_peak - self.alloc_base


@dataclass
class Tracer:
    alloc: bool = False
    spans: list[Span] = field(default_factory=list)
    job: str = ""
    _stack: list[Span] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, self.job, 0.0)
        if self.alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.alloc_peak = max(parent.alloc_peak, peak)
            tracemalloc.reset_peak()
            span.alloc_base = span.alloc_peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.alloc:
            span.alloc_peak = max(span.alloc_peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].alloc_peak = max(self._stack[-1].alloc_peak, span.alloc_peak)

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.bytes = measure(out)
            return out

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ftlab" or key.startswith("ftlab.")]
        for layer, fname in TRACED:
            original = getattr(sys.modules[f"ftlab.{layer}"], fname)
            wrapper = self.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    self._undo.append((mod, fname, original))
                    setattr(mod, fname, wrapper)
        cli = sys.modules["ftlab.cli"]
        self._undo.append((cli, "jsonschema", cli.jsonschema))
        cli.jsonschema = _JsonschemaInCli(self.wrap("cli.schema_validate", jsonschema.validate))
        if self.alloc:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.alloc:
            tracemalloc.stop()
        while self._undo:
            mod, name, original = self._undo.pop()
            setattr(mod, name, original)


class _JsonschemaInCli:
    """The jsonschema module as ftlab.cli sees it, with `validate` traced."""

    def __init__(self, validate):
        self.validate = validate

    def __getattr__(self, name):
        return getattr(jsonschema, name)


# -- analysis -------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self seconds, bytes, and peak allocation."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "bytes": 0, "peak_alloc": 0})
        agg["calls"] += 1
        agg["self_s"] += selfs[s.id]
        agg["bytes"] += s.bytes
        agg["peak_alloc"] = max(agg["peak_alloc"], s.peak_alloc)
    return out


def child_calls(spans: list[Span], parent_name: str, child_name: str) -> int:
    parents = {s.id for s in spans if s.name == parent_name}
    return sum(1 for s in spans if s.name == child_name and s.parent in parents)
