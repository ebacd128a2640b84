"""Parser and analysis robustness across the wider statement subset."""

from conftest import parse_and_build, write_repo

from udgscan.enhance.order import compute_analysis_order
from udgscan.enhance.prune import prune_data_edges
from udgscan.enhance.summaries import compute_all_summaries
from udgscan.harness.oracles import brute_force_summary_oracle
from udgscan.udg.graph import CONTROL_FLOW, DATA_DEPENDENCY


def _summaries(root):
    model, g, _ = parse_and_build(root)
    order = compute_analysis_order(g, model)
    return model, g, compute_all_summaries(g, model, order)


def test_constructor_args_stay_conservative(tmp_path):
    src = """package p;
class Box {
    int value;
    Box(int v) {
        value = v;
    }
    int read() {
        return value;
    }
}
class Use {
    static int wrap(int secret) {
        Box b = new Box(secret);
        return b.read();
    }
}
"""
    root = write_repo(tmp_path, {"Box.java": src})
    model, g, summaries = _summaries(root)
    wrap = next(f for f in model.functions.values() if f.name == "wrap")
    assert summaries[wrap.id].phi == {"secret": True}
    assert summaries[wrap.id].phi == brute_force_summary_oracle(model, wrap)
    # Pruning must not drop the constructor argument edge.
    prune_data_edges(g, summaries, model, [])
    ctor_stmt = next(s for s in model.statements.values() if "new Box" in s.text)
    assert {e.variable for e in g.in_edges(ctor_stmt.id, DATA_DEPENDENCY)} == {"secret"}


def test_do_while_unlabeled_continue(tmp_path):
    src = """package p;
class D {
    int m(int n) {
        do {
            n = n - 1;
            if (n == 2) {
                continue;
            }
            n = n - 2;
        } while (n > 0);
        return n;
    }
}
"""
    root = write_repo(tmp_path, {"D.java": src})
    model, g, _ = parse_and_build(root)
    jump = next(s for s in model.statements.values() if s.kind == "jump")
    cond = next(s for s in model.statements.values() if s.kind == "loop_header")
    assert g.has_edge(jump.id, cond.id, CONTROL_FLOW)


def test_switch_fallthrough_edges(tmp_path):
    src = """package p;
class S {
    int m(int n) {
        int out = 0;
        switch (n) {
            case 1:
                out = 1;
            case 2:
                out = 2;
                break;
            default:
                out = 3;
        }
        return out;
    }
}
"""
    root = write_repo(tmp_path, {"S.java": src})
    model, g, _ = parse_and_build(root)
    sel = next(s for s in model.statements.values() if s.kind == "condition")
    case1 = next(s for s in model.statements.values() if "out = 1" in s.text)
    case2 = next(s for s in model.statements.values() if "out = 2" in s.text)
    brk = next(s for s in model.statements.values() if s.kind == "jump")
    ret = next(s for s in model.statements.values() if s.kind == "return")
    default = next(s for s in model.statements.values() if "out = 3" in s.text)
    assert g.has_edge(sel.id, case1.id, CONTROL_FLOW)
    assert g.has_edge(sel.id, case2.id, CONTROL_FLOW)
    assert g.has_edge(sel.id, default.id, CONTROL_FLOW)
    assert g.has_edge(case1.id, case2.id, CONTROL_FLOW)  # fallthrough
    assert g.has_edge(brk.id, ret.id, CONTROL_FLOW)
    # With a default present, the selector has no direct edge to the successor.
    assert not g.has_edge(sel.id, ret.id, CONTROL_FLOW)


def test_try_finally_normal_flow(tmp_path):
    src = """package p;
class T {
    int m(int n) {
        int out = 0;
        try {
            out = n + 1;
        } catch (Exception e) {
            out = -1;
        } finally {
            out = out + 10;
        }
        return out;
    }
}
"""
    root = write_repo(tmp_path, {"T.java": src})
    model, g, _ = parse_and_build(root)
    body = next(s for s in model.statements.values() if "out = n + 1" in s.text)
    fin = next(s for s in model.statements.values() if "out + 10" in s.text)
    catch = next(s for s in model.statements.values() if "out = -1" in s.text)
    ret = next(s for s in model.statements.values() if s.kind == "return")
    assert g.has_edge(body.id, fin.id, CONTROL_FLOW)
    assert g.has_edge(fin.id, ret.id, CONTROL_FLOW)
    # Exceptional edges are not modeled: the catch body has no incoming flow.
    assert not g.in_edges(catch.id, CONTROL_FLOW)
    assert g.has_edge(catch.id, fin.id, CONTROL_FLOW)


def test_compound_assignment_and_increment(tmp_path):
    src = """package p;
class C {
    int m(int n) {
        int acc = 1;
        acc += n;
        acc++;
        return acc;
    }
}
"""
    root = write_repo(tmp_path, {"C.java": src})
    model, g, _ = parse_and_build(root)
    plus = next(s for s in model.statements.values() if "acc += n" in s.text)
    assert plus.defs == {"acc"} and plus.uses == {"acc", "n"}
    inc = next(s for s in model.statements.values() if "acc++" in s.text)
    assert inc.defs == {"acc"} and inc.uses == {"acc"}


def test_ternary_cast_and_array(tmp_path):
    src = """package p;
class X {
    int m(Object raw, int[] xs, boolean flag) {
        int i = flag ? 1 : 0;
        String s = (String) raw;
        int v = xs[i];
        return v;
    }
}
"""
    root = write_repo(tmp_path, {"X.java": src})
    model, g, _ = parse_and_build(root)
    i_def = next(s for s in model.statements.values() if "flag ?" in s.text)
    assert i_def.uses == {"flag"}
    cast = next(s for s in model.statements.values() if "(String) raw" in s.text)
    assert cast.uses == {"raw"}  # the cast type is not a use
    arr = next(s for s in model.statements.values() if "xs[i]" in s.text)
    assert arr.uses == {"xs", "i"}


def test_instanceof_and_string_switch(tmp_path):
    src = """package p;
class Y {
    int m(Object o, String mode) {
        int out = 0;
        if (o instanceof Integer) {
            out = 1;
        }
        switch (mode) {
            case "a":
                out = out + 1;
                break;
            default:
                out = out + 2;
        }
        return out;
    }
}
"""
    root = write_repo(tmp_path, {"Y.java": src})
    model, g, diags = parse_and_build(root)
    assert not diags.has_errors()
    cond = next(s for s in model.statements.values() if "instanceof" in s.text)
    assert cond.uses == {"o"}


def test_nested_generics_declarations(tmp_path):
    src = """package p;
class G {
    Map<String, List<Integer>> table;
    int m(Map<String, List<Integer>> input) {
        Map<String, Supplier<List<Integer>>> deep = null;
        List<Integer> row = input.get("k");
        int n = row.size();
        return n;
    }
}
"""
    root = write_repo(tmp_path, {"G.java": src})
    model, g, diags = parse_and_build(root)
    assert not diags.has_errors()
    deep = next(s for s in model.statements.values() if "deep" in s.text and not s.synthetic)
    assert deep.kind == "declaration" and deep.defs == {"deep"}
    func = next(f for f in model.functions.values() if f.name == "m")
    assert func.var_types["deep"] == "Map"
    assert func.var_types["input"] == "Map"


def test_field_write_through_this(tmp_path):
    src = """package p;
class Z {
    int total;
    void add(int x) {
        this.total = this.total + x;
    }
    int snapshot() {
        int copy = total;
        return copy;
    }
}
"""
    root = write_repo(tmp_path, {"Z.java": src})
    model, g, _ = parse_and_build(root)
    write = next(s for s in model.statements.values() if "this.total =" in s.text)
    assert write.defs == {"this.total"}
    assert "x" in write.uses and "this.total" in write.uses
