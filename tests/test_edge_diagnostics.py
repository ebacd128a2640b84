"""Edge cases: an arity mismatch keeps its edge, an unresolvable variable
adds no definition."""

from conftest import parse_and_build, write_repo

from udgscan.context.implicit import definition_context
from udgscan.enhance.order import compute_analysis_order
from udgscan.enhance.prune import prune_data_edges
from udgscan.enhance.summaries import compute_all_summaries
from udgscan.udg.graph import DATA_DEPENDENCY


def test_arity_mismatch_kept_conservatively(tmp_path):
    # Overloads by arity resolve per-arity, so force a mismatch by calling a
    # one-parameter function through an interface method of arity two.
    src = """package p;
interface Op {
    int apply(int a, int b);
}
class Impl implements Op {
    int apply(int a, int b) {
        return a;
    }
}
class Use {
    int run(Op op, int x, int y) {
        int u = x + 1;
        int v = y + 1;
        int r = op.apply(u, v);
        return r;
    }
}
"""
    root = write_repo(tmp_path, {"Op.java": src})
    model, g, _ = parse_and_build(root)
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    # Sabotage the summary map to simulate a param-list mismatch.
    impl = next(f for f in model.functions.values() if f.class_name.endswith("Impl"))
    model.functions[impl.id] = impl._replace(params=["a"])
    prune_data_edges(g, summaries, model, [])
    call_stmt = next(s for s in model.statements.values() if any(c.name == "apply" for c in s.calls))
    kept = {e.variable for e in g.in_edges(call_stmt.id, DATA_DEPENDENCY)}
    assert "v" in kept  # the out-of-range argument keeps its edge


def test_unresolved_variable_note(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        int y = x + UNKNOWN_CONST;
        return y;
    }
}
"""
    # UNKNOWN_CONST is not a known variable, so the parser never records it as
    # a use; simulate an unresolvable name by pointing a use at nothing.
    root = write_repo(tmp_path, {"A.java": src})
    model, g, _ = parse_and_build(root)
    y_def = next(s for s in model.statements.values() if "y = x" in s.text)
    before = definition_context(g, model, [y_def.id]).statements
    y_def.uses.add("phantom")
    assert definition_context(g, model, [y_def.id]).statements == before
