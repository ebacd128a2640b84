"""`scan()` pauses the cyclic garbage collector while it runs and gives the
caller back the collector state it had, on every way out of the scan."""

import gc
import importlib
import json

import pytest

from conftest import write_repo

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.errors import ClientTransportError, ConfigError
from udgscan.harness.generate import random_summary_program
from udgscan.harness.scan import EXIT_OK, EXIT_ORACLE, EXIT_PARSE, ScanConfig, scan

CYCLE = "package p;\nclass A extends B {\n}\nclass B extends A {\n}\n"


class SpyOracle:
    """Records whether the collector ran during each request; raises when
    told to."""

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.collecting: list[bool] = []

    def complete(self, prompt, site=""):
        self.collecting.append(gc.isenabled())
        if self.fail:
            raise ClientTransportError("endpoint dropped")
        return MockResolutionOracle().complete(prompt, site)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector state the caller starts the scan with, restored after."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def test_a_successful_scan_restores_the_collector(collector, parameter_dispatch_repo):
    oracle = SpyOracle()
    result = scan(ScanConfig(repo=parameter_dispatch_repo), resolution_oracle=oracle)
    assert result.exit_code == EXIT_OK
    assert oracle.collecting and not any(oracle.collecting)
    assert gc.isenabled() is collector


def test_a_hierarchy_cycle_restores_the_collector(collector, tmp_path):
    result = scan(ScanConfig(repo=write_repo(tmp_path, {"A.java": CYCLE})))
    assert result.exit_code == EXIT_PARSE and "fatal" not in result.report
    assert gc.isenabled() is collector


def test_an_oracle_failure_restores_the_collector(collector, parameter_dispatch_repo):
    oracle = SpyOracle(fail=True)
    result = scan(ScanConfig(repo=parameter_dispatch_repo), resolution_oracle=oracle)
    assert result.exit_code == EXIT_ORACLE
    assert oracle.collecting == [False]
    assert gc.isenabled() is collector


def test_an_exception_restores_the_collector(collector, tmp_path, monkeypatch, el_repo):
    with pytest.raises(ConfigError):
        scan(ScanConfig(repo=str(tmp_path / "missing")))
    assert gc.isenabled() is collector

    def assemble_original_udg(model):
        assert not gc.isenabled()
        raise RuntimeError("graph builder failed")

    scan_module = importlib.import_module("udgscan.harness.scan")
    monkeypatch.setattr(scan_module, "assemble_original_udg", assemble_original_udg)
    with pytest.raises(RuntimeError, match="graph builder failed"):
        scan(ScanConfig(repo=el_repo))
    assert gc.isenabled() is collector


def _recipe(tmp_path, count):
    """`count` generated files across 5 packages, a user sink on the `f0` of
    every third file's class."""
    root = write_repo(
        tmp_path / str(count),
        {
            f"pkg{i % 5}/Gen{i}.java": f"package pkg{i % 5};\n"
            + random_summary_program(seed=9000 + i).replace("class Gen", f"class Gen{i}")
            for i in range(count)
        },
    )
    sinks = tmp_path / f"sinks{count}.json"
    doc = {"sinks": [{"function": f"Gen{i}.f0", "cwe_id": "CWE-94"} for i in range(0, count, 3)]}
    sinks.write_text(json.dumps(doc), encoding="utf-8")
    return root, str(sinks)


def test_a_scan_leaves_little_cyclic_garbage(tmp_path):
    """A scan makes next to no cyclic garbage: what a collection finds right
    after it is small and does not grow with the repository, so pausing the
    collector leaves nothing to pile up."""
    found = {}
    for count in (80, 160):
        root, sinks = _recipe(tmp_path, count)
        gc.collect()
        result = scan(ScanConfig(repo=root, sink_path=sinks))
        found[count] = gc.collect()
        assert result.exit_code == EXIT_OK and result.contexts
    assert found[80] <= 100 and found[160] <= 100
    assert found[160] - found[80] <= 8
