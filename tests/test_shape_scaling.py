"""Shape-scaling gate: a shape scanned at n and 4n costs about 4x, not 16x.

Each shape is scanned in-process with the mock oracle, best of three runs
per size.  A shape whose output grows faster than its input is bounded per
unit of the output it multiplies instead of per run.
"""

import time

import pytest

from conftest import write_repo
from support import shapes

from udgscan.harness.scan import ScanConfig, scan


def edges(kind: str):
    """A row's count: the scan's recorded edges of type `kind`."""
    return lambda result: result.report["stats"]["edges"][kind]


def context_statements(result) -> int:
    """A row's count: the statements the scan's contexts keep."""
    return sum(len(ctx.all) for ctx in result.contexts.values())


# (generator, n, bound on the time ratio of 4n to n, None or (the count a
# scan's result gives, that count at n)).  A row with a count is
# output-bound: the count is checked at both sizes and the ratio is taken
# of the time per counted unit.
SHAPES = [
    (shapes.extends_chain, 200, 8, None),
    (shapes.alias_group, 400, 8, None),
    (shapes.override_chain, 40, 1.5, (edges("call"), lambda n: n * n)),
    (shapes.conditional_redefinitions, 100, 1.5, (edges("data_dependency"), lambda n: (n + 1) * (n + 2) // 2 + n)),
    (shapes.many_sinks, 100, 1.5, (context_statements, lambda n: n * (n + 5))),
]


def best_scan(tmp_path, files: dict[str, str]):
    """(best wall time of three scans, the last scan's result)."""
    root = write_repo(tmp_path, files)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = scan(ScanConfig(repo=root, oracle_mode="mock"))
        best = min(best, time.perf_counter() - start)
        assert result.exit_code == 0
    return best, result


@pytest.mark.parametrize("shape, n, bound, output", SHAPES, ids=[row[0].__name__ for row in SHAPES])
def test_a_shape_at_4n_costs_about_4x(tmp_path, shape, n, bound, output):
    small, small_result = best_scan(tmp_path / "small", shape(n))
    large, large_result = best_scan(tmp_path / "large", shape(4 * n))
    if output is not None:
        count, expected = output
        assert (count(small_result), count(large_result)) == (expected(n), expected(4 * n))
        small, large = small / expected(n), large / expected(4 * n)
    assert large / small < bound, (small, large)
