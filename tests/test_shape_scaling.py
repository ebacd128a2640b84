"""Shape-scaling gate: a shape scanned at n and 4n costs about 4x, not 16x.

Each shape is scanned in-process with the mock oracle, best of three runs
per size.  A shape whose output grows faster than its input is bounded per
recorded call edge instead of per run.
"""

import time

from conftest import write_repo
from support import shapes

from udgscan.harness.scan import ScanConfig, scan


def best_scan(tmp_path, files: dict[str, str]) -> tuple[float, dict]:
    """(best wall time of three scans, the report's edge counts)."""
    root = write_repo(tmp_path, files)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = scan(ScanConfig(repo=root, oracle_mode="mock"))
        best = min(best, time.perf_counter() - start)
        assert result.exit_code == 0
    return best, result.report["stats"]["edges"]


def test_extends_chain_scales_linearly(tmp_path):
    small, _ = best_scan(tmp_path / "small", shapes.extends_chain(200))
    large, _ = best_scan(tmp_path / "large", shapes.extends_chain(800))
    assert large / small < 8, (small, large)


def test_override_chain_costs_the_same_per_call_edge(tmp_path):
    small, small_edges = best_scan(tmp_path / "small", shapes.override_chain(40))
    large, large_edges = best_scan(tmp_path / "large", shapes.override_chain(160))
    assert (small_edges["call"], large_edges["call"]) == (40 * 40, 160 * 160)
    per_edge_ratio = (large / large_edges["call"]) / (small / small_edges["call"])
    assert per_edge_ratio < 1.5, (small, large)
