"""The scanner entry points the benchmark under `bench/` relies on.

The benchmark traces scanner functions by module and name, and its checks
parse each generated file on its own into a fresh model.  These tests keep
a frontend or pipeline refactor that breaks either from passing here and
failing only in a benchmark run.
"""

import os
import sys
import threading
import time

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from conftest import fixture_path, write_repo  # noqa: E402

from udgscan.enhance.oracle import MockResolutionOracle  # noqa: E402
from udgscan.errors import DiagnosticSink  # noqa: E402
from udgscan.frontend.model import RepoModel  # noqa: E402
from udgscan.frontend.parser import parse_source  # noqa: E402
from udgscan.harness.generate import random_summary_program  # noqa: E402
from udgscan.harness.scan import ScanConfig, scan  # noqa: E402

GOOD = random_summary_program(7)
BAD = "class Bad {\n    void m() {\n        Runnable r = () -> m();\n    }\n}\n"


def test_traced_boundaries_exist():
    spans.check_boundaries()


def test_parse_source_into_a_fresh_model():
    model, diagnostics = RepoModel(root=""), DiagnosticSink()
    assert parse_source("p/Gen.java", GOOD, model, diagnostics)
    assert [f.path for f in model.files] == ["p/Gen.java"]
    assert model.functions and model.statements
    assert not diagnostics.items

    model, diagnostics = RepoModel(root=""), DiagnosticSink()
    assert not parse_source("Bad.java", BAD, model, diagnostics)
    assert not model.files and not model.statements
    assert [(d.severity, d.path, d.line) for d in diagnostics.items] == [("error", "Bad.java", 3)]


def test_bench_checks_parse_one_file_at_a_time():
    corpus = workloads.Corpus(files={"p/Gen.java": GOOD, "Bad.java": BAD}, summary_files=["p/Gen.java"])
    errors = checks.parse_errors(corpus)
    assert len(errors) == 1 and "Bad.java:3" in errors[0]
    assert checks.summary_mismatches(corpus, {}) > 0  # no scan summaries: every function mismatches
    prunable, statements = workloads.prunable_statements("p/Gen.java", GOOD)
    assert 0 <= prunable <= statements and statements > 0


class WaitingOracle:
    """Answers like the mock after a wait, as an endpoint does.  It does not
    run in-process, so the scan runs its requests on the request threads;
    `threads` holds the name of the thread of each."""

    def __init__(self):
        self.inner = MockResolutionOracle()
        self.threads = []

    def complete(self, prompt, site):
        self.threads.append(threading.current_thread().name)
        time.sleep(0.02)
        return self.inner.complete(prompt, site)


def test_a_threaded_scan_runs_every_traced_boundary():
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span(spans.SCAN):
            oracle = WaitingOracle()
            result = scan(ScanConfig(repo=fixture_path("reflective_dispatch")), resolution_oracle=oracle)
    assert result.exit_code == 0 and result.findings
    assert oracle.threads and all(name.startswith("udgscan-request") for name in oracle.threads)
    spans.profile(tracer)  # raises MissingBoundary for a boundary that never ran


SINKS = """package p;
import java.sql.Statement;
class Q {
    String tail(String s) { return s.trim(); }
    void one(Statement st, String q) throws Exception { st.executeQuery(q); }
    void two(Statement st, String q) throws Exception { String t = tail(q); st.executeQuery(t); }
    void three(String cmd) throws Exception { Runtime.getRuntime().exec(cmd); }
}
"""


def test_the_context_stage_is_one_call_over_every_invocation(tmp_path):
    """`holistic_context` is traced once per scan, and each layer inside it
    once per invocation."""
    root = write_repo(tmp_path, {"p/Q.java": SINKS, "p/R.java": SINKS.replace("class Q", "class R")})
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.span(spans.SCAN):
            result = scan(ScanConfig(repo=root))
    calls = spans.profile(tracer).calls
    assert len(result.contexts) == 6
    assert calls["context.holistic"] == 1
    for layer in ("data_slice", "control_slice", "usage", "definition", "declaration", "render"):
        assert calls[f"context.{layer}"] == len(result.contexts), layer
