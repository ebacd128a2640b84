"""Scan benchmark: one seeded workload, timed end to end or traced by layer.

    python3 bench/run.py --workload summary-graph --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One closed-loop client in one
process runs one `udgscan.harness.scan.scan()` at a time.  With `--trace 0`
the last line of output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  The exit code
is non-zero when the scanner's output is wrong or the run could not finish.
See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Kept here rather than imported from workloads.py: run.py imports nothing of
# the scanner, so a checkout without it fails with a message, not a traceback.
WORKLOADS = ("summary-graph", "sink-dense", "dispatch-latency")
SETUP_PROBES = 11  # fresh interpreters timed for setup_s, after one warm-up
WORKER_TIMEOUT_S = 170
# Run as `python3 -c SETUP_PROBE BENCH`; prints the set-up time at the
# reference host speed (hostspeed.py).
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.append(sys.argv[1])\n"
    "import hostspeed\n"
    "with hostspeed.Sampler().running() as sampler:\n"
    "    start = time.perf_counter()\n"
    "    import udgscan.harness.cli\n"
    "    from udgscan.knowledge import load_starter_kb\n"
    "    load_starter_kb()\n"
    "    end = time.perf_counter()\n"
    "print(sampler.reference_s(start, end))\n"
)

END_TO_END = {
    "setup_s": "s",
    "scan_s": "s",
    "stmts_per_s": "1/s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "context_recall": "ratio",
}

PER_LAYER = {
    "frontend.parse_s": "s",
    "frontend.hierarchy_s": "s",
    "frontend.labels_s": "s",
    "frontend.files": "count",
    "frontend.statements": "count",
    "udg.cfg_s": "s",
    "udg.ddg_s": "s",
    "udg.callgraph_s": "s",
    "udg.assemble_s": "s",
    "udg.nodes": "count",
    "udg.edges": "count",
    "enhance.globals_s": "s",
    "enhance.polymorphism_s": "s",
    "enhance.reflection_s": "s",
    "enhance.labeled_jumps_s": "s",
    "enhance.order_s": "s",
    "enhance.summaries_s": "s",
    "enhance.prune_s": "s",
    "enhance.edges_added": "count",
    "enhance.edges_removed": "count",
    "enhance.oracle_requests": "count",
    "enhance.oracle_wait_s": "s",
    "enhance.oracle_useful_ratio": "ratio",
    "context.sinks_s": "s",
    "context.holistic_s": "s",
    "context.holistic_p50_ms": "ms",
    "context.holistic_p99_ms": "ms",
    "context.data_slice_s": "s",
    "context.control_slice_s": "s",
    "context.usage_s": "s",
    "context.definition_s": "s",
    "context.declaration_s": "s",
    "context.render_s": "s",
    "context.render_calls": "count",
    "context.invocations": "count",
    "context.tokens": "count",
    "context.dropped": "count",
    "context.kept_ratio": "ratio",
    "reasoning.prompt_s": "s",
    "reasoning.vote_s": "s",
    "reasoning.units": "count",
    "reasoning.client_wait_s": "s",
    "reasoning.requests": "count",
    "reasoning.parse_failures": "count",
    "harness.write_s": "s",
    "trace.overhead_ratio": "ratio",
    "harness.scan_wall_s": "s",
    "host.loop_ms": "ms",
    "stage.frontend_share": "ratio",
    "stage.graph_share": "ratio",
    "stage.context_share": "ratio",
    "stage.reasoning_share": "ratio",
    "stage.wait_share": "ratio",
    "fail_ratio": "ratio",
    "oracle_mismatches": "count",
}


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the CLI and load the
    starter knowledge base."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH],
            cwd=ROOT, env=python_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first interpreter may still be compiling bytecode
            times.append(float(proc.stdout))
    return statistics.median(times)


def run_worker(args, work: str) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=python_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(data: dict, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    scan_s = statistics.median(data["scan_s"])
    return {
        "setup_s": setup_s,
        "scan_s": scan_s,
        "stmts_per_s": data["statements"] / scan_s,
        "verdicts_per_s": data["units"] / scan_s,
        "peak_rss_mb": peak_rss_mb,
        "context_recall": data["context_recall"],
    }


def per_layer(data: dict) -> dict[str, float]:
    out = dict(data["layers"])
    out.update({
        "frontend.files": data["files"],
        "frontend.statements": data["statements"],
        "udg.nodes": data["nodes"],
        "udg.edges": data["edges"],
        "enhance.edges_added": data["edges_added"],
        "enhance.edges_removed": data["edges_removed"],
        "enhance.oracle_requests": data["oracle_requests"],
        "enhance.oracle_useful_ratio": data["oracle_useful_ratio"],
        "context.tokens": data["tokens"],
        "context.dropped": data["dropped"],
        "context.kept_ratio": data["kept_ratio"],
        "reasoning.requests": data["requests"],
        "reasoning.parse_failures": data["parse_failures"],
        "trace.overhead_ratio": statistics.median(data["traced_scan_s"]) / statistics.median(data["scan_s"]),
        "harness.scan_wall_s": statistics.median(data["scan_wall_s"]),
        "host.loop_ms": statistics.median(data["loop_ms"]),
        "fail_ratio": data["failed"] / data["attempted"],
        "oracle_mismatches": data["oracle_mismatches"],
    })
    return out


def problems(data: dict) -> list[str]:
    found = []
    if not data["deterministic"]:
        found.append("report.json, audit.jsonl or a context dump differed between scans, or was not rewritten")
    if data["exit_codes"] != [0]:
        found.append(f"scan exit codes {data['exit_codes']}, expected only 0")
    if data["oracle_mismatches"]:
        found.append(f"{data['oracle_mismatches']} disagreements with the brute-force oracles")
    if data["missing_sinks"]:
        found.append(f"{data['missing_sinks']} planted sinks produced no context")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "udgscan", "__init__.py")):
        print(f"no scanner source under {SRC}; run from a udgscan checkout", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        data = run_worker(args, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        setup_s = 0.0 if args.trace else setup_seconds()
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = per_layer(data), PER_LAYER
    else:
        values, units = end_to_end(data, setup_s, peak_rss_mb), END_TO_END
    samples = sorted(data["scan_s"])
    print(f"untraced scans at reference speed: {len(samples)}, min {samples[0]:.4f} s, median "
          f"{statistics.median(samples):.4f} s, max {samples[-1]:.4f} s", file=sys.stderr)
    found = problems(data)
    for problem in found:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not found,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
