"""Benchmark-side wrappers around the mock resolution oracle and the mock
inference client.

Each wrapper waits a fixed time per request, as a live model endpoint would,
and counts requests, time spent waiting and, for inference, the answers it
made unparseable.  Every answer is a pure function of (prompt, site or
round), never of call order, so repeated scans produce identical reports.
"""

from __future__ import annotations

import hashlib
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.reasoning.clients import MockInferenceClient

from spans import CLIENT, ORACLE, Tracer

GARBAGE_MODULUS = 20  # a request is garbled when hash % 20 == its round: 5%
GARBAGE = "I need more context before I can give a verdict."
_SITE = re.compile(r"^(.*)/(?:poly\d+|reflect\d+/(?:class|method))$")


def _wait(tracer: Tracer | None, name: str, seconds: float, answer, sleeps: list):
    """Sleep, then compute the answer; returns (answer, seconds taken).
    The sleep's (start, end) is appended to `sleeps`."""
    start = time.perf_counter()
    with tracer.span(name) if tracer else nullcontext():
        if seconds:
            time.sleep(seconds)
            sleeps.append((start, time.perf_counter()))
        out = answer()
    return out, time.perf_counter() - start


@dataclass
class LatencyOracle:
    latency_s: float = 0.0
    tracer: Tracer | None = None
    inner: MockResolutionOracle = field(default_factory=MockResolutionOracle)
    sites: list[str] = field(default_factory=list)
    wait_s: float = 0.0
    sleeps: list[tuple[float, float]] = field(default_factory=list)

    def complete(self, prompt: str, site: str = "") -> str:
        out, took = _wait(
            self.tracer, ORACLE, self.latency_s, lambda: self.inner.complete(prompt, site), self.sleeps
        )
        self.sites.append(site)
        self.wait_s += took
        return out

    @property
    def requests(self) -> int:
        return len(self.sites)

    def site_statements(self) -> list[str]:
        """The statement each request asked about."""
        return [m.group(1) if (m := _SITE.match(s)) else s for s in self.sites]


@dataclass
class LatencyClient:
    latency_s: float = 0.0
    garbage: bool = False
    tracer: Tracer | None = None
    inner: MockInferenceClient = field(default_factory=MockInferenceClient)
    requests: int = 0
    parse_failures: int = 0
    wait_s: float = 0.0
    sleeps: list[tuple[float, float]] = field(default_factory=list)

    def _answer(self, prompt: str, round_index: int) -> str:
        if self.garbage:
            digest = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:8], 16)
            if digest % GARBAGE_MODULUS == round_index:
                self.parse_failures += 1
                return GARBAGE
        return self.inner.complete(prompt, round_index)

    def complete(self, prompt: str, round_index: int = 0) -> str:
        out, took = _wait(
            self.tracer, CLIENT, self.latency_s, lambda: self._answer(prompt, round_index), self.sleeps
        )
        self.requests += 1
        self.wait_s += took
        return out
