"""`site_targets` and `call_statements` are memoized on the graph; every
mutation of the graph is seen by the next call."""

import copy
import importlib

from conftest import parse_and_build, write_repo

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.enhance.order import compute_analysis_order
from udgscan.enhance.passes import enhance_polymorphic_calls, enhance_reflective_calls
from udgscan.enhance.prune import prune_data_edges
from udgscan.enhance.summaries import compute_all_summaries
from udgscan.udg.calls import call_statements, site_targets
from udgscan.udg.graph import CALL, DATA_DEPENDENCY, UdgEdge

# `a.f(t)` may call A.f, whose return depends on its parameter, or B.f,
# whose return does not; the oracle keeps only B.f, so `t` no longer
# reaches `r` and pruning removes its edge.
SOURCE = """package p;
class A {
    int f(int x) {
        return x;
    }
}
class B extends A {
    int f(int x) {
        return 1;
    }
}
class U {
    int run(int t) {
        A a = new B();
        int r = a.f(t);
        return r;
    }
}
"""


def _setup(tmp_path):
    model, g_o, diags = parse_and_build(write_repo(tmp_path, {"U.java": SOURCE}))
    g = g_o.copy()
    stmt = next(s for s in call_statements(g) if s.calls[0].name == "f")
    entries = {model.functions[fid].class_name.split(".")[-1]: model.functions[fid].entry for fid in model.functions}
    return model, g, diags, stmt, entries


def test_edge_and_node_changes_reach_the_next_lookup(tmp_path):
    model, g, _, stmt, entries = _setup(tmp_path)
    assert site_targets(g, model, stmt) == {0: [entries["A"], entries["B"]]}
    assert site_targets(g, model, stmt) is site_targets(g, model, stmt)

    assert g.remove_edges({(stmt.id, entries["A"], CALL, None)}) == [UdgEdge(stmt.id, entries["A"], CALL)]
    assert site_targets(g, model, stmt) == {0: [entries["B"]]}
    assert g.add_edge(UdgEdge(stmt.id, entries["A"], CALL))
    assert site_targets(g, model, stmt) == {0: [entries["B"], entries["A"]]}

    before = call_statements(g)
    assert stmt in before
    twin = copy.copy(stmt)
    twin.id += "-twin"
    twin.start_line += 100
    g.add_node(twin)
    assert call_statements(g) == [*before, twin]


def test_a_polymorphism_removal_is_seen_by_reflection_and_pruning(tmp_path, monkeypatch):
    model, g, diags, stmt, entries = _setup(tmp_path)
    # Fill both memos before the pass removes A.f.
    assert site_targets(g, model, stmt) == {0: [entries["A"], entries["B"]]}
    assert stmt in call_statements(g)
    enhance_polymorphic_calls(g, MockResolutionOracle(), model, diags, [])
    assert not g.has_edge(stmt.id, entries["A"], CALL)

    seen = {}
    for module_name in ("udgscan.enhance.passes", "udgscan.enhance.prune"):
        module = importlib.import_module(module_name)
        real = module.site_targets

        def spy(graph, model, s, real=real, name=module_name):
            out = real(graph, model, s)
            if s.id == stmt.id:
                seen[name] = out
            return out

        monkeypatch.setattr(module, "site_targets", spy)
    enhance_reflective_calls(g, MockResolutionOracle(), model, diags, [])
    summaries = compute_all_summaries(g, model, compute_analysis_order(g, model))
    run = next(fid for fid, func in model.functions.items() if func.name == "run")
    assert summaries[run].phi == {"t": False}
    assert any(e.variable == "t" for e in g.in_edges(stmt.id, DATA_DEPENDENCY))
    prune_data_edges(g, summaries, model, [])
    assert seen == {name: {0: [entries["B"]]} for name in ("udgscan.enhance.passes", "udgscan.enhance.prune")}
    assert not any(e.variable == "t" for e in g.in_edges(stmt.id, DATA_DEPENDENCY))
