"""Child process of the scan benchmark.

Generates one workload, scans it once to check the output, then repeats the
scan until the measuring time is up and prints one JSON object.  It runs in
its own interpreter so that the parent can read its peak resident memory.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import udgscan.enhance.pipeline as pipeline  # noqa: E402
from udgscan.context.holistic import whitespace_tokenizer  # noqa: E402
from udgscan.harness.scan import ScanConfig, scan  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from clients import LatencyClient, LatencyOracle  # noqa: E402
from spans import SCAN, Tracer, check_boundaries, profile  # noqa: E402
from workloads import WORKLOADS, Corpus  # noqa: E402

MIN_SCANS = 3  # per kind (untraced, traced), even when the time is up
LOOP_CAP_S = 120  # after this, one scan per kind is enough: the run must end in 180 s


def write_corpus(corpus: Corpus, repo: str) -> None:
    for rel, text in corpus.files.items():
        dest = os.path.join(repo, rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


@contextmanager
def capturing_summaries(store: dict):
    """Keep the summaries the scan computes, for the oracle check."""
    original = pipeline.compute_all_summaries

    def capture(*args, **kwargs):
        summaries = original(*args, **kwargs)
        store.update(summaries)
        return summaries

    pipeline.compute_all_summaries = capture
    try:
        yield
    finally:
        pipeline.compute_all_summaries = original


class Scanner:
    """Runs one full scan of the workload's repository per call."""

    def __init__(self, corpus: Corpus, work: str):
        self.corpus = corpus
        self.work = work
        self.repo = os.path.join(work, "repo")
        # Every scan rewrites the same output directory, as a user re-running
        # into one --out does.  Creating and deleting hundreds of context
        # dumps per scan made the file system the noisiest part of the run.
        self.out_dir = os.path.join(work, "out")
        self.loop_ms: list[float] = []
        write_corpus(corpus, self.repo)

    def run(self, tracer: Tracer | None = None):
        """Returns (result, (wall seconds, reference seconds), oracle, client,
        output digest).  Reference seconds scale the time not spent sleeping
        on a request to the reference host speed (hostspeed.py); the
        sampler's own time is left out of both."""
        checks.mark_outputs_stale(self.out_dir)
        config = ScanConfig(repo=self.repo, oracle_mode="mock", out_dir=self.out_dir, dump_context=True)
        if self.corpus.token_budget is not None:
            config.token_budget = self.corpus.token_budget
        oracle = LatencyOracle(self.corpus.latency_s, tracer)
        client = LatencyClient(self.corpus.latency_s, self.corpus.garbage, tracer)
        gc.collect()
        with hostspeed.Sampler().running() as sampler:
            start = time.perf_counter()
            with tracer.span(SCAN) if tracer else nullcontext():
                result = scan(config, inference_client=client, resolution_oracle=oracle)
            end = time.perf_counter()
        digest = checks.output_digest(self.out_dir)
        self.loop_ms.append(sampler.loop_ms())
        seconds = sampler.reference_s(start, end, oracle.sleeps + client.sleeps)
        return result, (end - start, seconds), oracle, client, digest


def reference_checks(corpus: Corpus, scanner: Scanner, seed: int) -> dict:
    """One untimed scan whose output is checked against the oracles and the
    generator's ground truth."""
    summaries: dict = {}
    with capturing_summaries(summaries):
        result, _, oracle, client, digest = scanner.run()
    mismatches = checks.slice_mismatches(result, ScanConfig().hop_limit, seed)
    if corpus.summary_files:
        mismatches += checks.summary_mismatches(corpus, summaries)
    recall, missing_sinks = checks.context_recall(corpus, result)
    failed, attempted = checks.fail_counts(corpus, result)
    with open(os.path.join(scanner.out_dir, "audit.jsonl"), encoding="utf-8") as fh:
        audited = {e["src"] for e in map(json.loads, fh) if e["tau"] == "call"}
    asked = oracle.site_statements()
    contexts = list(result.contexts.values())
    kept = sum(len(ctx.all) for ctx in contexts)
    dropped = sum(ctx.dropped for ctx in contexts)
    edits = result.report["stats"]["enhancement"]
    return {
        "digest": digest,
        "exit_code": result.exit_code,
        "oracle_mismatches": mismatches,
        "missing_sinks": missing_sinks,
        "context_recall": recall,
        "failed": failed,
        "attempted": attempted,
        "statements": sum(1 for s in result.model.statements.values() if not s.synthetic),
        "files": len(result.model.files),
        "units": len(result.findings),
        "nodes": len(result.graph.nodes),
        "edges": len(result.graph.edges),
        "edges_added": sum(n for k, n in edits.items() if k.endswith(".add")),
        "edges_removed": sum(n for k, n in edits.items() if k.endswith(".remove")),
        "oracle_requests": oracle.requests,
        "oracle_useful_ratio": sum(1 for s in asked if s in audited) / len(asked) if asked else 0.0,
        "requests": client.requests,
        "parse_failures": client.parse_failures,
        "tokens": sum(whitespace_tokenizer(ctx.rendered) for ctx in contexts),
        "dropped": dropped,
        "kept_ratio": kept / (kept + dropped) if contexts else 0.0,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_times(p, oracle: LatencyOracle, client: LatencyClient) -> dict[str, float]:
    """Per-layer times of one traced scan."""
    s = p.self_s
    holistic_ms = [d * 1000.0 for d in p.durations["context.holistic"]]

    def stage(*names: str) -> float:
        return sum(p.total_s[n] for n in names) / p.scan_s

    out = {
        "frontend.parse_s": s["frontend.parse"],
        "frontend.hierarchy_s": s["frontend.hierarchy"],
        "frontend.labels_s": s["frontend.labels"],
        "udg.cfg_s": s["udg.cfg"],
        "udg.ddg_s": s["udg.ddg"],
        "udg.callgraph_s": s["udg.callgraph"],
        "udg.assemble_s": s["udg.assemble"],
        "context.sinks_s": s["context.sinks"],
        "context.holistic_s": s["context.holistic"],
        "context.holistic_p50_ms": percentile(holistic_ms, 0.50),
        "context.holistic_p99_ms": percentile(holistic_ms, 0.99),
        "context.render_calls": p.calls["context.render"],
        "context.invocations": p.calls["context.holistic"],
        "reasoning.prompt_s": s["reasoning.prompt"],
        "reasoning.vote_s": s["reasoning.vote"] + s["reasoning.aggregate"],
        "reasoning.units": p.calls["reasoning.prompt"],
        "enhance.oracle_wait_s": oracle.wait_s,
        "reasoning.client_wait_s": client.wait_s,
        "harness.write_s": p.tail_s,
        "stage.frontend_share": stage("frontend.parse", "frontend.hierarchy", "frontend.labels"),
        "stage.graph_share": stage("udg.assemble", "enhance.graph"),
        "stage.context_share": stage("context.sinks", "context.holistic"),
        "stage.reasoning_share": stage("reasoning.prompt", "reasoning.vote", "reasoning.aggregate"),
        "stage.wait_share": (oracle.wait_s + client.wait_s) / p.scan_s,
    }
    for name in ("globals", "polymorphism", "reflection", "labeled_jumps", "order", "summaries", "prune"):
        out[f"enhance.{name}_s"] = s[f"enhance.{name}"]
    for name in ("data_slice", "control_slice", "usage", "definition", "declaration", "render"):
        out[f"context.{name}_s"] = s[f"context.{name}"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    check_boundaries()
    corpus = WORKLOADS[args.workload](args.seed)
    errors = checks.parse_errors(corpus)
    if errors:
        print("generated files do not parse cleanly:\n" + "\n".join(errors), file=sys.stderr)
        return 1
    scanner = Scanner(corpus, args.work)
    ref = reference_checks(corpus, scanner, args.seed)

    plain: list[float] = []
    plain_wall: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    digests = {ref["digest"]}
    exit_codes = {ref["exit_code"]}
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        wanted = MIN_SCANS if elapsed < LOOP_CAP_S else 1
        if elapsed >= args.seconds and len(plain) >= wanted and len(traced) >= wanted * args.trace:
            break
        tracer = Tracer() if args.trace and k % 2 else None
        if tracer is None:
            result, (wall, seconds), _, _, digest = scanner.run()
            plain.append(seconds)
            plain_wall.append(wall)
        else:
            with tracer.installed():
                result, (_, seconds), oracle, client, digest = scanner.run(tracer)
            traced.append(seconds)
            layers.append(layer_times(profile(tracer), oracle, client))
        digests.add(digest)
        exit_codes.add(result.exit_code)
        del result
        k += 1

    scans = 1 + len(plain) + len(traced)
    out = {
        "scans": scans,
        "scan_s": plain,
        "scan_wall_s": plain_wall,
        "loop_ms": scanner.loop_ms[1:],
        "deterministic": len(digests) == 1,
        "exit_codes": sorted(exit_codes),
        **ref,
        "attempted": ref["attempted"] * scans,
        "failed": ref["failed"] * scans,
    }
    if args.trace:
        out["traced_scan_s"] = traced
        out["layers"] = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
