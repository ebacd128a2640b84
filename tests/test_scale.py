"""Whole-pipeline smoke test at a larger synthetic scale."""

import time

from conftest import write_repo

from udgscan.harness.generate import random_summary_program
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.graph import CALL


def test_multi_file_repo_scan(tmp_path):
    files = {}
    for i in range(10):
        body = random_summary_program(seed=9000 + i).replace("class Gen", f"class Gen{i}")
        files[f"pkg{i % 3}/Gen{i}.java"] = f"package pkg{i % 3};\n" + body
    root = write_repo(tmp_path, files)
    start = time.monotonic()
    result = scan(ScanConfig(repo=root, oracle_mode="mock"))
    elapsed = time.monotonic() - start
    assert result.exit_code == 0
    stats = result.report["stats"]
    assert stats["files"] == 10
    assert stats["functions"] >= 30
    assert stats["edges"]["control_flow"] > 0 and stats["edges"]["data_dependency"] > 0
    assert elapsed < 20

    # Determinism holds at this scale too.
    again = scan(ScanConfig(repo=root, oracle_mode="mock"))
    assert again.report == result.report


def test_user_sink_scan_at_scale(tmp_path):
    files = {}
    for i in range(5):
        files[f"Gen{i}.java"] = "package p;\n" + random_summary_program(seed=500 + i).replace(
            "class Gen", f"class Gen{i}"
        )
    root = write_repo(tmp_path, files)
    import json
    sink_doc = {
        "sinks": [
            {
                "function": "Gen0.f0",
                "cwe_id": "CWE-94",
            }
        ]
    }
    sink_path = tmp_path / "sinks.json"
    sink_path.write_text(json.dumps(sink_doc), encoding="utf-8")
    result = scan(ScanConfig(repo=root, oracle_mode="mock", sink_path=str(sink_path)))
    assert result.exit_code == 0
    # Call sites of Gen0.f0, and only those, become user-sink findings: the
    # other classes' own f0 methods do not match the qualified pattern.
    user_findings = [f for f in result.findings if f.origin == "user_sink"]
    assert all(f.cwe == "CWE-94" for f in user_findings)
    f0 = next(f for f in result.model.functions.values() if f.signature_text().startswith("p.Gen0.f0("))
    callers = {e.src for e in result.graph.in_edges(f0.entry, CALL)}
    user_invocations = [c.invocation for c in result.contexts.values() if c.invocation.origin == "user_sink"]
    assert user_invocations and len(user_findings) == len(user_invocations)
    assert {inv.statement for inv in user_invocations} == callers
    assert all(f.file == "Gen0.java" for f in user_findings)
