"""Shape-scaling gate: a shape scanned at n and 4n costs about 4x, not 16x.

Each shape is scanned in-process with the mock oracle, best of three runs
per size.  A shape whose output grows faster than its input is bounded per
recorded edge of the type it multiplies instead of per run.
"""

import time

import pytest

from conftest import write_repo
from support import shapes

from udgscan.harness.scan import ScanConfig, scan

# (generator, n, bound on the time ratio of 4n to n, None or (edge type,
# edges of that type at n)).  A row with an edge type is output-bound: its
# count is checked at both sizes and the ratio is taken of the time per edge.
SHAPES = [
    (shapes.extends_chain, 200, 8, None),
    (shapes.alias_group, 400, 8, None),
    (shapes.override_chain, 40, 1.5, ("call", lambda n: n * n)),
    (shapes.conditional_redefinitions, 100, 1.5, ("data_dependency", lambda n: (n + 1) * (n + 2) // 2 + n)),
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


@pytest.mark.parametrize("shape, n, bound, output", SHAPES, ids=[row[0].__name__ for row in SHAPES])
def test_a_shape_at_4n_costs_about_4x(tmp_path, shape, n, bound, output):
    small, small_edges = best_scan(tmp_path / "small", shape(n))
    large, large_edges = best_scan(tmp_path / "large", shape(4 * n))
    if output is not None:
        kind, edges = output
        assert (small_edges[kind], large_edges[kind]) == (edges(n), edges(4 * n))
        small, large = small / edges(n), large / edges(4 * n)
    assert large / small < bound, (small, large)
