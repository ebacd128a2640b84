"""Correctness checks the benchmark runs outside its timed region."""

from __future__ import annotations

import hashlib
import os
import random

from udgscan.context.slicing import control_slice, data_slice
from udgscan.errors import DiagnosticSink
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.frontend.model import RepoModel
from udgscan.frontend.parser import parse_source
from udgscan.harness.oracles import (
    brute_force_summary_oracle,
    control_slice_oracle,
    data_slice_oracle,
)

from workloads import Corpus

SLICE_SAMPLE = 24  # invocations whose slices are checked per run


def parse_errors(corpus: Corpus) -> list[str]:
    """Error diagnostics from parsing every generated file on its own."""
    errors = []
    for path in sorted(corpus.files):
        diagnostics = DiagnosticSink()
        parse_source(path, corpus.files[path], RepoModel(root=""), diagnostics)
        errors += [d.render() for d in diagnostics.items if d.severity == "error"]
    return errors


def summary_mismatches(corpus: Corpus, scan_summaries: dict) -> int:
    """Disagreements of the scan's summaries with the brute-force inlining
    oracle, which is run on each generated file parsed alone.

    The oracle resolves calls by (name, arity) over the whole model, so on
    the multi-file model it would call every repeated `fN` external; one file
    at a time it is exact on this corpus.
    """
    mismatches = 0
    for path in corpus.summary_files:
        model = RepoModel(root="")
        diagnostics = DiagnosticSink()
        parse_source(path, corpus.files[path], model, diagnostics)
        build_type_hierarchy(model, diagnostics)
        for fid, func in model.functions.items():
            summary = scan_summaries.get(fid)
            expected = brute_force_summary_oracle(model, func, depth_k=4)
            if summary is None or summary.phi != expected:
                mismatches += 1
    return mismatches


def slice_mismatches(result, hop_limit: int, seed: int) -> int:
    """Disagreements of data and control slices, on a seeded sample of
    invocations, with the reachability-closure oracles."""
    g = result.graph
    statements = sorted({ctx.invocation.statement for ctx in result.contexts.values()})
    sample = random.Random(seed).sample(statements, min(SLICE_SAMPLE, len(statements)))
    mismatches = 0
    for sid in sample:
        node = g.nodes[sid]
        if set(data_slice(g, node, "both").statements) != data_slice_oracle(g, sid, "both"):
            mismatches += 1
        if set(control_slice(g, node, hop_limit).statements) != control_slice_oracle(g, sid, hop_limit):
            mismatches += 1
    return mismatches


def context_recall(corpus: Corpus, result) -> tuple[float, int]:
    """(share of planted evidence lines rendered, planted sinks with no
    context).  A sink's lines count as rendered when any context for an
    invocation on the sink's line shows them."""
    shown: dict[tuple[str, int], set[int]] = {}
    for ctx in result.contexts.values():
        stmt = result.model.stmt(ctx.invocation.statement)
        shown.setdefault((stmt.file, stmt.start_line), set()).update(
            ctx.rendered_lines.get(stmt.file, ())
        )
    hits = total = missing = 0
    for sink in corpus.sinks:
        lines = shown.get((sink.file, sink.line))
        if lines is None:
            missing += 1
            lines = set()
        hits += len(set(sink.evidence) & lines)
        total += len(sink.evidence)
    return hits / total, missing


def fail_counts(corpus: Corpus, result) -> tuple[int, int]:
    """(failed, attempted): undetermined units plus files skipped with an
    error diagnostic, over units plus files."""
    undetermined = sum(1 for f in result.findings if f.verdict == "undetermined")
    skipped = {
        d["path"]
        for d in result.report["diagnostics"]
        if d["severity"] == "error" and d["module"] == "frontend" and d["path"]
    }
    return undetermined + len(skipped), len(result.findings) + len(corpus.files)


def mark_outputs_stale(out_dir: str) -> None:
    """Set every output file's modification time to 0, so that a file the
    next scan does not rewrite shows up in `output_digest`."""
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            os.utime(os.path.join(out_dir, name), ns=(0, 0))


def output_digest(out_dir: str) -> str:
    """One hash over report.json, audit.jsonl and every context dump, and
    over which of them the last scan left unwritten."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        stale = os.stat(path).st_mtime_ns == 0
        h.update(name.encode("utf-8") + (b"\0stale\0" if stale else b"\0"))
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()
