"""Span recording around the scanner's layer boundaries.

The tracer replaces each boundary function in the module that looks it up
at call time, records one span per call (name, start, end, parent) and puts
the original back afterwards.  Nothing inside the scanner changes.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# module -> {function looked up there: span name}
BOUNDARIES: dict[str, dict[str, str]] = {
    "udgscan.harness.scan": {
        "parse_repository": "frontend.parse",
        "build_type_hierarchy": "frontend.hierarchy",
        "resolve_label_targets": "frontend.labels",
        "assemble_original_udg": "udg.assemble",
        "enhance_graph": "enhance.graph",
        "find_sensitive_invocations": "context.sinks",
        "holistic_context": "context.holistic",
        "build_detection_prompt": "reasoning.prompt",
        "query_rounds": "reasoning.vote",
        "aggregate_votes": "reasoning.aggregate",
    },
    "udgscan.enhance.pipeline": {
        "add_global_nodes": "enhance.globals",
        "enhance_polymorphic_calls": "enhance.polymorphism",
        "enhance_reflective_calls": "enhance.reflection",
        "reconstruct_labeled_jumps": "enhance.labeled_jumps",
        "compute_analysis_order": "enhance.order",
        "compute_all_summaries": "enhance.summaries",
        "prune_data_edges": "enhance.prune",
    },
    "udgscan.udg.build": {
        "build_cfg": "udg.cfg",
        "build_ddg": "udg.ddg",
        "build_call_graph": "udg.callgraph",
    },
    "udgscan.context.holistic": {
        "data_slice": "context.data_slice",
        "control_slice": "context.control_slice",
        "usage_context": "context.usage",
        "definition_context": "context.definition",
        "declaration_context": "context.declaration",
        "render_context": "context.render",
    },
}

# Spans the benchmark itself opens: the whole scan and each request to the
# resolution oracle or the inference client.
SCAN = "harness.scan"
ORACLE = "enhance.oracle"
CLIENT = "reasoning.client"


class MissingBoundary(RuntimeError):
    """A traced function no longer exists, or never ran during a scan."""


def check_boundaries() -> None:
    """Fail when a module no longer defines a traced function."""
    for module_name, names in BOUNDARIES.items():
        module = importlib.import_module(module_name)
        missing = [n for n in names if not callable(getattr(module, n, None))]
        if missing:
            raise MissingBoundary(f"{module_name} no longer defines {', '.join(missing)}")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=parent))
        self._open.append(index)
        self.spans[index].start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Trace every boundary for the duration of the block."""
        check_boundaries()
        saved = []
        try:
            for module_name, names in BOUNDARIES.items():
                module = importlib.import_module(module_name)
                for fn_name, span_name in names.items():
                    original = getattr(module, fn_name)
                    saved.append((module, fn_name, original))
                    setattr(module, fn_name, self._wrap(original, span_name))
            yield self
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)


@dataclass
class Profile:
    """Per-name totals of one traced scan."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    calls: dict[str, int]
    durations: dict[str, list[float]]
    scan_s: float
    tail_s: float  # the scan span's self time after its last child ended


def profile(tracer: Tracer) -> Profile:
    """Self time is a span's duration minus the time its children cover."""
    child_s = [0.0] * len(tracer.spans)
    last_child_end: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
            last_child_end[span.parent] = max(last_child_end.get(span.parent, 0.0), span.end)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    scan_s = tail_s = 0.0
    for i, span in enumerate(tracer.spans):
        duration = span.end - span.start
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - child_s[i]
        total_s[span.name] = total_s.get(span.name, 0.0) + duration
        calls[span.name] = calls.get(span.name, 0) + 1
        durations.setdefault(span.name, []).append(duration)
        if span.name == SCAN:
            scan_s += duration
            tail_s += span.end - last_child_end.get(i, span.start)
    expected = {n for names in BOUNDARIES.values() for n in names.values()}
    silent = sorted(expected - set(calls))
    if silent:
        raise MissingBoundary(f"traced boundaries never ran: {', '.join(silent)}")
    return Profile(self_s, total_s, calls, durations, scan_s, tail_s)
