"""Summaries on demand: `compute_all_summaries` solves the functions some
call edge targets, and every other function's summary is computed when it
is first read.  Read after enhancement, the table equals a fully eager
computation; a scan summarises no function that nothing calls; and the
table answers for every function."""

import os
import sys

import pytest

from conftest import enhance, fixture_path, parse_and_build, write_repo

from udgscan.enhance import pipeline
from udgscan.enhance import summaries as summaries_module
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.enhance.order import compute_analysis_order
from udgscan.enhance.summaries import compute_all_summaries, compute_function_summary, fixed_point_scc
from udgscan.errors import DiagnosticSink
from udgscan.frontend.model import RepoModel
from udgscan.frontend.parser import parse_source
from udgscan.harness.generate import random_summary_program
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.build import assemble_original_udg
from udgscan.udg.calls import function_of_entry
from udgscan.udg.graph import CALL

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

from workloads import WORKLOADS  # noqa: E402

FIXTURES = ("dispatch", "el_template_validation", "pruning", "reflective_dispatch")
OPTIONS = ({}, {"mixed_uses": True}, {"multi_declarators": True})


def eager_summaries(g, model, order):
    """Every function's summary, solved callees first, none left for later."""
    known = {}
    for comp in order:
        if comp.recursive:
            fixed_point_scc(comp.members, g, model, known)
        else:
            fid = comp.members[0]
            known[fid] = compute_function_summary(model.functions[fid], g, model, known)
    return known


def called_functions(g, model) -> set[str]:
    return {f.id for e in g.edges_of(CALL) if (f := function_of_entry(model, e.dst)) is not None}


def enhanced(monkeypatch, model, g):
    """`enhance_graph`'s result and a copy of its graph as the summaries saw
    it, taken just before pruning."""
    before = {}
    prune = pipeline.prune_data_edges

    def snapshot(g, *args, **kwargs):
        before["graph"] = g.copy()
        return prune(g, *args, **kwargs)

    monkeypatch.setattr(pipeline, "prune_data_edges", snapshot)
    enh = enhance(model, g, MockResolutionOracle(), DiagnosticSink())
    monkeypatch.undo()
    return enh, before["graph"]


def assert_matches_eager(monkeypatch, model, g) -> int:
    """Read every summary after enhancement and compare it with the eager
    computation on the graph summarising saw; returns how many functions
    nothing calls."""
    enh, before = enhanced(monkeypatch, model, g)
    lazy = {fid: s.phi for fid, s in enh.summaries.items()}
    assert lazy == {fid: s.phi for fid, s in eager_summaries(before, model, enh.order).items()}
    return len(model.functions) - len(called_functions(enh.graph, model))


def _source_model(text: str):
    model = RepoModel(root="")
    assert parse_source("Gen.java", text, model, DiagnosticSink())
    return model, assemble_original_udg(model)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_summaries_equal_eager(monkeypatch, name):
    model, g, _ = parse_and_build(fixture_path(name))
    assert_matches_eager(monkeypatch, model, g)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", (101, 102, 103))
def test_bench_corpus_summaries_equal_eager(monkeypatch, tmp_path, workload, seed):
    model, g, _ = parse_and_build(write_repo(tmp_path, WORKLOADS[workload](seed).files))
    assert assert_matches_eager(monkeypatch, model, g) > 0


@pytest.mark.parametrize("options", OPTIONS, ids=lambda o: next(iter(o), "plain"))
def test_random_program_summaries_equal_eager(monkeypatch, options):
    uncalled = 0
    for seed in range(40):
        model, g = _source_model(random_summary_program(seed, **options))
        uncalled += assert_matches_eager(monkeypatch, model, g)
    assert uncalled > 0


def test_scan_summarises_only_called_functions(monkeypatch, tmp_path):
    summarised = []
    original = summaries_module.compute_function_summary

    def counting(func, *args, **kwargs):
        summarised.append(func.id)
        return original(func, *args, **kwargs)

    monkeypatch.setattr(summaries_module, "compute_function_summary", counting)
    result = scan(ScanConfig(repo=write_repo(tmp_path, WORKLOADS["summary-graph"](101).files)))
    called = called_functions(result.graph, result.model)
    assert summarised and set(summarised) <= called
    assert called < set(result.model.functions)


def test_table_covers_every_function():
    model, g = _source_model(random_summary_program(7))
    order = compute_analysis_order(g, model)
    table = compute_all_summaries(g, model, order)
    assert set(model.functions) - order.called
    assert len(table) == len(model.functions)
    assert list(table) == [fid for comp in order for fid in comp.members]
    for fid in model.functions:
        assert fid in table
        assert table.get(fid) is table[fid]
        assert table[fid].function == fid
    assert "Gen.missing()" not in table
    assert table.get("Gen.missing()") is None
    with pytest.raises(KeyError):
        table["Gen.missing()"]
