import os

import pytest

from conftest import FIXTURES, enhance, fixture_path, parse_and_build, write_repo
from support.slicing import explicit_context, lines_of

from udgscan.context.holistic import DEFAULT_TOKEN_BUDGET, holistic_context
from udgscan.context.implicit import declaration_context, definition_context, usage_context
from udgscan.context.sinks import SensitiveInvocation, find_sensitive_invocations
from udgscan.context.slicing import control_slice, data_slice
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.harness.generate import random_udg
from udgscan.harness.oracles import control_slice_oracle, data_slice_oracle
from udgscan.knowledge import UserSinkSpec, load_starter_kb

FIXTURE_NAMES = sorted(os.listdir(FIXTURES))


def enhanced(repo):
    model, g, diags = parse_and_build(repo)
    result = enhance(model, g, MockResolutionOracle(), diags)
    return model, result.graph


def sink_of(model, g, kb, api_substr):
    invs = find_sensitive_invocations(g, model, kb)
    matches = [i for i in invs if api_substr in i.api]
    assert matches, f"no invocation matching {api_substr}"
    return matches[0]


# ------------------------------------------------------------- invocations


@pytest.mark.parametrize("name", ["el_template_validation", "reflective_dispatch"])
def test_invocations_are_found_on_the_original_graph_too(name):
    model, g_o, diags = parse_and_build(fixture_path(name))
    kb = load_starter_kb()
    found = find_sensitive_invocations(g_o, model, kb)
    assert found
    assert found == find_sensitive_invocations(enhance(model, g_o, MockResolutionOracle(), diags).graph, model, kb)


def test_kb_invocation_found(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    invs = find_sensitive_invocations(g, model, kb)
    assert len(invs) == 1
    inv = invs[0]
    assert inv.cwes == ["CWE-74"]
    assert inv.origin == "knowledge_base"
    assert model.stmt(inv.statement).start_line == 11


def test_user_sink_invocations(tmp_path):
    src = """package p;
class Dao {
    int rawQuery(String q) {
        return 1;
    }
}
class App {
    void a(Dao d, String q) {
        int x = d.rawQuery(q);
    }
    void b(Dao d) {
        int y = d.rawQuery("fixed");
    }
    void c(Dao d, String q) {
        int z = d.rawQuery(q + "!");
    }
}
"""
    root = write_repo(tmp_path, {"Dao.java": src})
    model, g = enhanced(root)
    kb = load_starter_kb()
    sink = UserSinkSpec(pattern="Dao.rawQuery", cwe_id="CWE-89")
    invs = find_sensitive_invocations(g, model, kb, [sink])
    assert len(invs) == 3
    assert all(i.origin == "user_sink" and i.cwes == ["CWE-89"] for i in invs)


def test_a_call_on_a_new_object_matches_by_the_objects_type(tmp_path):
    """`new T(...).m()` matches as `T.m`, not by the bare name `m`."""
    src = """class Run {
    void m(String cmd, Runnable r) throws Exception {
        new ProcessBuilder(cmd).start();
        new Thread(r).start();
    }
}
"""
    model, g = enhanced(write_repo(tmp_path, {"Run.java": src}))
    invs = find_sensitive_invocations(g, model, load_starter_kb())
    assert [(model.stmt(i.statement).start_line, i.api) for i in invs] == [(3, "java.lang.ProcessBuilder.start")]


def test_no_matches_empty(dispatch_repo):
    model, g = enhanced(dispatch_repo)
    invs = find_sensitive_invocations(g, model, load_starter_kb())
    assert invs == []


# ----------------------------------------------------------------- slicing


def test_el_backward_data_slice(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    sl = data_slice(g, g.nodes[inv.statement], "backward")
    assert lines_of(g.nodes, sl.statements) == {8, 9, 11}
    assert inv.statement in sl.statements


def test_isolated_statement_slice(tmp_path):
    src = """package p;
class A {
    void m() {
        Helper.fire();
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g = enhanced(root)
    stmt = next(s for s in model.statements.values() if s.kind == "call")
    sl = data_slice(g, stmt, "both")
    assert sl.statements == [stmt.id]


@pytest.mark.parametrize("seed", range(10))
def test_slice_equals_closure_oracle(seed):
    g = random_udg(seed, max_nodes=60)
    start = sorted(g.nodes)[seed % len(g.nodes)]
    for direction in ("forward", "backward", "both"):
        mine = set(data_slice(g, g.nodes[start], direction).statements)
        assert mine == data_slice_oracle(g, start, direction)
    for limit in (0, 1, 3):
        mine = set(control_slice(g, g.nodes[start], limit).statements)
        assert mine == control_slice_oracle(g, start, limit)


def test_control_slice_crosses_callers(tmp_path):
    src = """package p;
class Chain {
    static int f(int x) {
        return Ext.sink(x);
    }
    static int g(int x) {
        return f(x);
    }
    static int h(int x) {
        return g(x);
    }
}
"""
    root = write_repo(tmp_path, {"Chain.java": src})
    model, g = enhanced(root)
    sink_stmt = next(s for s in model.statements.values() if any(c.name == "sink" for c in s.calls))
    sl = control_slice(g, sink_stmt, hop_limit=3)
    owners = {g.nodes[sid].owner for sid in sl.statements if not g.nodes[sid].synthetic}
    names = {model.functions[o].name for o in owners if o in model.functions}
    assert names == {"f", "g", "h"}


def test_control_slice_hop_zero_intraprocedural(tmp_path):
    src = """package p;
class Chain {
    static int f(int x) {
        int y = x + 1;
        return y;
    }
    static int g(int x) {
        return f(x);
    }
}
"""
    root = write_repo(tmp_path, {"Chain.java": src})
    model, g = enhanced(root)
    y_def = next(s for s in model.statements.values() if "y = x + 1" in s.text)
    sl = control_slice(g, y_def, hop_limit=0)
    owners = {g.nodes[sid].owner for sid in sl.statements if not g.nodes[sid].synthetic}
    names = {model.functions[o].name for o in owners if o in model.functions}
    assert names == {"f"}


def test_control_slice_truncation_note(tmp_path):
    src = """package p;
class Deep {
    static int a(int x) {
        return Ext.sink(x);
    }
    static int b(int x) {
        return a(x);
    }
    static int c(int x) {
        return b(x);
    }
    static int d(int x) {
        return c(x);
    }
    static int e(int x) {
        return d(x);
    }
    static int f(int x) {
        return e(x);
    }
}
"""
    root = write_repo(tmp_path, {"Deep.java": src})
    model, g = enhanced(root)
    sink_stmt = next(s for s in model.statements.values() if any(c.name == "sink" for c in s.calls))
    sl = control_slice(g, sink_stmt, hop_limit=3)
    owners = {
        model.functions[g.nodes[sid].owner].name
        for sid in sl.statements
        if not g.nodes[sid].synthetic and g.nodes[sid].owner in model.functions
    }
    assert owners == {"a", "b", "c", "d"}  # three call hops up from a


def test_el_explicit_context(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    sl = explicit_context(g, g.nodes[inv.statement])
    assert lines_of(g.nodes, sl.statements) == {8, 9, 10, 11}


# ---------------------------------------------------------------- implicit


def test_el_usage_context(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    c_e = explicit_context(g, g.nodes[inv.statement])
    c_use = usage_context(g, model, c_e)
    assert lines_of(g.nodes, c_use.statements) == set(range(26, 32))
    # The explicit context reaches an external callee; the usage context
    # slices only in-repository callees.
    assert [sid for sid in c_e.statements if sid.startswith("external:")]
    assert not [sid for sid in c_use.statements if sid.startswith("external:")]


def test_usage_context_no_calls_empty(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        int y = x + 1;
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g = enhanced(root)
    y_def = next(s for s in model.statements.values() if "y = x + 1" in s.text)
    c_e = explicit_context(g, y_def)
    c_use = usage_context(g, model, c_e)
    assert lines_of(g.nodes, c_use.statements) == set()


def test_el_definition_context(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    c_e = explicit_context(g, g.nodes[inv.statement])
    c_use = usage_context(g, model, c_e)
    c_def = definition_context(g, model, c_e.statements + c_use.statements)
    assert lines_of(g.nodes, c_def.statements) == {4} | set(range(18, 25))


def test_definition_context_local_branch(tmp_path):
    # An unresolved local with an in-graph definition edge slices locally
    # instead of looking up a global.
    src = """package p;
class A {
    static int GLOBAL = 3;
    int m(int x) {
        int seed = x + GLOBAL;
        int out = seed * 2;
        return out;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g = enhanced(root)
    out_def = next(s for s in model.statements.values() if "out = seed" in s.text)
    c_def = definition_context(g, model, [out_def.id])
    seed_def = next(s for s in model.statements.values() if "seed = x" in s.text)
    assert seed_def.id in c_def.statements  # local backward slice, no global lookup
    global_def = next(s for s in model.statements.values() if s.kind == "global_def")
    # Resolution is a single round: globals referenced only by statements the
    # slice itself discovered are not chased further.
    assert global_def.id not in c_def.statements
    # A use with no incoming edge in the *input* set does take the global branch.
    c_def2 = definition_context(g, model, [seed_def.id])
    assert global_def.id in c_def2.statements


def test_fully_resolved_slice_empty_definition_context(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        int y = x + 1;
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g = enhanced(root)
    ret = next(s for s in model.statements.values() if s.kind == "return")
    c_e = explicit_context(g, ret)
    c_def = definition_context(g, model, c_e.statements)
    assert c_def.statements == []


def test_el_declaration_context(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    c_e = explicit_context(g, g.nodes[inv.statement])
    c_use = usage_context(g, model, c_e)
    c_def = definition_context(g, model, c_e.statements + c_use.statements)
    ids = c_e.statements + c_use.statements + c_def.statements
    c_decl = declaration_context(ids, model)
    assert lines_of(model.statements, c_decl.statements) == {1, 17, 33}


def test_declaration_context_two_files(tmp_path):
    files = {
        "A.java": """package p;
class A {
    static int helper(int x) {
        return x + 1;
    }
}
""",
        "B.java": """package p;
import java.util.*;
class B {
    int m(int q) {
        int r = A.helper(q);
        return r;
    }
}
""",
    }
    root = write_repo(tmp_path, files)
    model, g = enhanced(root)
    call_stmt = next(s for s in model.statements.values() if any(c.name == "helper" for c in s.calls))
    c_e = explicit_context(g, call_stmt)
    c_use = usage_context(g, model, c_e)
    ids = c_e.statements + c_use.statements
    c_decl = declaration_context(ids, model)
    files_seen = {model.statements[sid].file for sid in c_decl.statements}
    assert files_seen == {"A.java", "B.java"}


# ---------------------------------------------------------------- holistic


def test_el_holistic_golden(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    ctx = holistic_context(g, model, [inv])[0]
    rendered_lines = set(ctx.rendered_lines["TemplateValidator.java"])
    assert rendered_lines == set(range(1, 5)) | set(range(8, 34))
    assert inv.statement in ctx.all
    assert lines_of(g.nodes, ctx.explicit.statements) <= lines_of(model.statements, ctx.all)


@pytest.mark.parametrize("budget", [DEFAULT_TOKEN_BUDGET, 40])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_contexts_on_the_original_graph(name, budget):
    """The original graph holds no global statements: a chosen global that is
    not a graph node joins the definition context as its own statement, and
    the drop order ranks what lies outside the graph as `_ordered` does."""
    model, g_o, _ = parse_and_build(fixture_path(name))
    invocations = find_sensitive_invocations(g_o, model, load_starter_kb())
    invocations += [
        SensitiveInvocation(statement=s.id, api="call")
        for s in sorted(g_o.nodes.values(), key=lambda s: s.sort_key())
        if s.calls and not s.synthetic
    ]
    contexts = holistic_context(g_o, model, invocations, token_budget=budget)
    for inv, ctx in zip(invocations, contexts):
        layers = {*ctx.explicit.statements, *ctx.usage.statements, *ctx.definition.statements, *ctx.declaration.statements}
        assert inv.statement in ctx.all and set(ctx.all) <= layers
        assert len(ctx.all) + ctx.dropped == len(layers)
    outside = {sid for ctx in contexts for sid in ctx.definition.statements if sid not in g_o.nodes}
    assert {model.stmt(sid).kind for sid in outside} <= {"global_def"}
    if name == "el_template_validation":
        # PARAM_NAME, ESCAPE_CHARACTER and ESCAPE_PATTERN.
        assert sorted(model.stmt(sid).start_line for sid in outside) == [4, 18, 19]
    if budget == DEFAULT_TOKEN_BUDGET:
        assert not any(ctx.dropped for ctx in contexts)
        if name == "el_template_validation":
            assert {4, 18, 19} <= set(contexts[0].rendered_lines["TemplateValidator.java"])
    else:
        assert any(ctx.dropped for ctx in contexts)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_context_on_the_original_graph_is_in_source_order(name):
    """A statement outside the graph, as every global and declaration
    statement is on the original graph, takes its place in a context by its
    file and line, like a graph node."""
    model, g_o, _ = parse_and_build(fixture_path(name))
    invocations = [
        SensitiveInvocation(statement=s.id, api="call")
        for s in sorted(g_o.nodes.values(), key=lambda s: s.sort_key())
        if s.calls and not s.synthetic
    ]
    outside = 0
    for ctx in holistic_context(g_o, model, invocations):
        for ids in (ctx.all, ctx.definition.statements):
            positions = [(g_o.nodes.get(sid) or model.stmt(sid)).sort_key() for sid in ids]
            assert positions == sorted(positions)
        outside += sum(sid not in g_o.nodes for sid in ctx.all)
    assert outside


def test_holistic_rendered_numbers_match(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    ctx = holistic_context(g, model, [inv])[0]
    numbered = [
        int(line.split("|", 1)[0])
        for line in ctx.rendered.splitlines()
        if "|" in line and line.split("|", 1)[0].strip().isdigit()
    ]
    assert numbered == ctx.rendered_lines["TemplateValidator.java"]


def test_sink_without_dependencies(tmp_path):
    src = """package p;
class Lone {
    void m() {
        Runtime.getRuntime().exec("ls");
    }
}
"""
    root = write_repo(tmp_path, {"Lone.java": src})
    model, g = enhanced(root)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "exec")
    ctx = holistic_context(g, model, [inv])[0]
    lines = set(ctx.rendered_lines["Lone.java"])
    assert 4 in lines  # the sink itself
    assert 1 in lines and 2 in lines  # package + class declaration context


def test_token_budget_drops_far_statements(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    full = holistic_context(g, model, [inv])[0]
    tight = holistic_context(g, model, [inv], token_budget=40)[0]
    assert tight.dropped > 0
    assert inv.statement in tight.all
    assert len(tight.all) < len(full.all)


def test_monotonicity_adding_edges_grows_slices(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    base_slice = set(data_slice(g, g.nodes[inv.statement], "both").statements)
    from udgscan.udg.graph import DATA_DEPENDENCY, UdgEdge

    bigger = g.copy()
    extra_src = next(s for s in model.statements.values() if "cleaned" not in s.text and s.kind == "global_def")
    bigger.add_edge(UdgEdge(src=extra_src.id, dst=inv.statement, tau=DATA_DEPENDENCY, variable="x"))
    grown = set(data_slice(bigger, bigger.nodes[inv.statement], "both").statements)
    assert base_slice <= grown


def test_implicit_idempotence_on_golden(el_repo):
    model, g = enhanced(el_repo)
    kb = load_starter_kb()
    inv = sink_of(model, g, kb, "buildConstraintViolationWithTemplate")
    ctx = holistic_context(g, model, [inv])[0]
    from udgscan.context.slicing import ContextSlice

    full = ContextSlice(list(ctx.all), {s: 0 for s in ctx.all})
    again_use = usage_context(g, model, full)
    again_def = definition_context(g, model, full.statements + again_use.statements)
    again_decl = declaration_context(list(ctx.all), model)
    new_ids = (set(again_use.statements) | set(again_def.statements) | set(again_decl.statements)) - set(ctx.all)
    assert new_ids == set()
