"""Shape-scaling gate: a shape scanned at n and 4n costs about 4x, not 16x.

Each shape is scanned in-process with the mock oracle, best of three runs
per size.  A shape whose output grows faster than its input is bounded per
recorded call edge instead of per run.
"""

import time

import pytest

from conftest import write_repo
from support import shapes

from udgscan.harness.scan import ScanConfig, scan

# (generator, n, bound on the time ratio of 4n to n, call edges at n or
# None).  A row with call edges is output-bound: its count is checked at
# both sizes and the ratio is taken of the time per call edge.
SHAPES = [
    (shapes.extends_chain, 200, 8, None),
    (shapes.alias_group, 400, 8, None),
    (shapes.override_chain, 40, 1.5, lambda n: n * n),
]


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


@pytest.mark.parametrize("shape, n, bound, call_edges", SHAPES, ids=[row[0].__name__ for row in SHAPES])
def test_a_shape_at_4n_costs_about_4x(tmp_path, shape, n, bound, call_edges):
    small, small_edges = best_scan(tmp_path / "small", shape(n))
    large, large_edges = best_scan(tmp_path / "large", shape(4 * n))
    if call_edges is not None:
        assert (small_edges["call"], large_edges["call"]) == (call_edges(n), call_edges(4 * n))
        small, large = small / call_edges(n), large / call_edges(4 * n)
    assert large / small < bound, (small, large)
