"""Call edges from the subtype walk at each call site against the override
table it replaced (`tests/support/hierarchy.py`), on the fixtures, the
bench corpora and random hierarchies."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

from conftest import fixture_path, write_repo  # noqa: E402
from support import hierarchy as reference  # noqa: E402

from udgscan.enhance.passes import _hierarchy_text  # noqa: E402
from udgscan.errors import DiagnosticSink  # noqa: E402
from udgscan.frontend.analysis import build_type_hierarchy  # noqa: E402
from udgscan.frontend.parser import parse_repository  # noqa: E402
from udgscan.udg import calls  # noqa: E402


def both_call_graphs(root: str, monkeypatch):
    """(model, call edges, reference call edges) of a repository."""
    model = parse_repository(root, diagnostics=DiagnosticSink())
    hierarchy = build_type_hierarchy(model)
    edges, externals = calls.build_call_graph(model, hierarchy)
    overrides = reference.method_overrides(model, hierarchy)
    with monkeypatch.context() as patch:
        patch.setattr(
            calls,
            "resolve_call_site",
            lambda m, h, caller, site: reference.resolve_call_site(m, h, overrides, caller, site),
        )
        ref_edges, ref_externals = calls.build_call_graph(model, hierarchy)
    assert externals.keys() == ref_externals.keys()
    return model, edges, ref_edges


def reference_hierarchy_text(model) -> str:
    """The prompt's hierarchy text as it was, resolving every supertype
    again to find the external ones."""
    lines = [f"{sub} extends {sup}" for sub, sup in sorted(model.hierarchy.edges)]
    for cls in sorted(model.classes.values(), key=lambda c: c.name):
        for sup in cls.supertypes:
            if model.resolve_class(sup, cls.file) is None:
                lines.append(f"{cls.name} extends {sup} (external)")
    return "\n".join(lines)


@pytest.mark.parametrize("name", ["dispatch", "el_template_validation", "pruning", "reflective_dispatch"])
def test_fixture_call_edges_match_the_override_table(name, monkeypatch):
    model, edges, ref_edges = both_call_graphs(fixture_path(name), monkeypatch)
    assert edges == ref_edges
    assert _hierarchy_text(model) == reference_hierarchy_text(model)


@pytest.mark.parametrize("workload", ["summary_graph", "sink_dense", "dispatch_latency"])
def test_bench_corpus_call_edges_match_the_override_table(workload, tmp_path, monkeypatch):
    corpus = getattr(workloads, workload)(101)
    model, edges, ref_edges = both_call_graphs(write_repo(tmp_path, corpus.files), monkeypatch)
    assert edges == ref_edges
    assert _hierarchy_text(model) == reference_hierarchy_text(model)


def test_random_hierarchy_call_edges_match_the_override_table(tmp_path, monkeypatch):
    fan_outs = set()
    externals = 0
    for seed in range(40):
        root = write_repo(tmp_path / str(seed), reference.random_hierarchy(seed))
        model, edges, ref_edges = both_call_graphs(root, monkeypatch)
        assert edges == ref_edges, seed
        assert _hierarchy_text(model) == reference_hierarchy_text(model), seed
        per_site: dict[str, int] = {}
        for edge in edges:
            if not edge.dst.startswith("external:"):
                per_site[edge.src] = per_site.get(edge.src, 0) + 1
        fan_outs.update(per_site.values())
        externals += len(model.hierarchy.external_edges)
    # The hierarchies exercise polymorphic fan-out and external supertypes.
    assert max(fan_outs) >= 4 and externals > 0
