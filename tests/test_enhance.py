import json
from collections import Counter

import pytest

from conftest import enhance, fixture_path, parse_and_build, write_repo
from support.order import order_is_sound

from udgscan.enhance.oracle import MockResolutionOracle, _split_top
from udgscan.enhance.order import compute_analysis_order, function_call_graph, tarjan_scc
from udgscan.enhance.passes import (
    AuditEntry,
    add_global_nodes,
    backward_dataflow_context,
    enhance_polymorphic_calls,
    enhance_reflective_calls,
    reconstruct_labeled_jumps,
)
from udgscan.enhance.prompts import (
    PLACEHOLDER_RE,
    render_polymorphic_prompt,
    render_reflection_class_prompt,
    render_reflection_method_prompt,
)
from udgscan.errors import DiagnosticSink
from udgscan.harness.oracles import scc_reachability_oracle
from udgscan.harness.generate import random_call_graph
from udgscan.transcript import Recorder, Replay
from udgscan.udg.cfg import resolve_label_targets
from udgscan.udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY


def _stmt_at(model, line, kind=None):
    hits = [
        s
        for s in model.statements.values()
        if s.start_line == line and not s.synthetic and (kind is None or s.kind == kind)
    ]
    assert hits
    return hits[0]


class ScriptedOracle:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0

    def complete(self, prompt, site=""):
        self.calls += 1
        if not self.responses:
            raise AssertionError("scripted oracle exhausted")
        return self.responses.pop(0)


# --------------------------------------------------------------- global nodes


def test_global_chain_edge(tmp_path):
    src = """package p;
class G {
    static int A = 1;
    static int B = A + 1;
    int read() {
        return B;
    }
}
"""
    root = write_repo(tmp_path, {"G.java": src})
    model, g, _ = parse_and_build(root)
    add_global_nodes(g, model.globals, model, [])
    def_a = _stmt_at(model, 3, "global_def")
    def_b = _stmt_at(model, 4, "global_def")
    assert g.has_edge(def_a.id, def_b.id, DATA_DEPENDENCY)
    # No edges from globals into function bodies: deferred to implicit context.
    read_use = _stmt_at(model, 6, "return")
    assert not [e for e in g.in_edges(read_use.id, DATA_DEPENDENCY) if e.src == def_b.id]
    assert not g.out_edges(def_a.id, CONTROL_FLOW) and not g.out_edges(def_a.id, CALL)


def test_el_globals_have_no_body_edges(el_repo):
    model, g, _ = parse_and_build(el_repo)
    add_global_nodes(g, model.globals, model, [])
    for decl in model.globals:
        if not decl.variable:
            continue
        for e in g.out_edges(decl.statement, DATA_DEPENDENCY):
            assert g.nodes[e.dst].kind == "global_def"


def test_no_globals_unchanged(tmp_path):
    src = "package p;\nclass A {\n    int m(int x) {\n        return x;\n    }\n}\n"
    root = write_repo(tmp_path, {"A.java": src})
    model, g, _ = parse_and_build(root)
    before = set(g.edges)
    add_global_nodes(g, [gl for gl in model.globals if gl.variable], model, [])
    assert set(g.edges) == before


# ----------------------------------------------------------- polymorphic pass


def test_mock_oracle_narrows_dispatch(dispatch_repo):
    model, g, _ = parse_and_build(dispatch_repo)
    call_stmt = next(s for s in model.statements.values() if any(c.name == "id" for c in s.calls))
    assert len(g.out_edges(call_stmt.id, CALL)) == 2
    enhance_polymorphic_calls(g, MockResolutionOracle(), model, DiagnosticSink(), [])
    targets = {e.dst for e in g.out_edges(call_stmt.id, CALL)}
    dog_id = next(f for f in model.functions.values() if f.name == "id" and "Dog" in f.class_name)
    assert targets == {dog_id.entry}


def test_single_target_site_not_queried(pruning_repo):
    model, g, _ = parse_and_build(pruning_repo)
    oracle = ScriptedOracle([])
    before = set(g.edges)
    enhance_polymorphic_calls(g, oracle, model, DiagnosticSink(), [])
    assert oracle.calls == 0
    assert set(g.edges) == before


# An answer nesting deeper than any JSON decoder follows.
TOO_DEEP = '{"feasible_targets": ' + "[" * 100_000 + "]" * 100_000 + "}"


@pytest.mark.parametrize("reply", ["no json here at all", TOO_DEEP], ids=["prose", "too deep"])
def test_unparseable_reply_keeps_all_edges(parameter_dispatch_repo, reply):
    model, g, diags = parse_and_build(parameter_dispatch_repo)
    call_stmt = next(s for s in model.statements.values() if any(c.name == "id" for c in s.calls))
    before = set(g.out_edges(call_stmt.id, CALL))
    enhance_polymorphic_calls(g, ScriptedOracle([reply]), model, diags, [])
    after = set(g.out_edges(call_stmt.id, CALL))
    assert after == before
    assert [d.message for d in diags.items if "oracle" in d.message] == [
        f"polymorphism oracle fault at {call_stmt.id}: no JSON object found in oracle response"
    ]


def test_answer_naming_no_candidate_keeps_all(parameter_dispatch_repo):
    model, g, diags = parse_and_build(parameter_dispatch_repo)
    call_stmt = next(s for s in model.statements.values() if any(c.name == "id" for c in s.calls))
    before = set(g.out_edges(call_stmt.id, CALL))
    reply = json.dumps({"feasible_targets": ["Cat.id(int)"]})
    enhance_polymorphic_calls(g, ScriptedOracle([reply]), model, diags, [])
    assert set(g.out_edges(call_stmt.id, CALL)) == before


SHAPES = """package p;
class Shape {
    int area() {
        return 0;
    }
}
class Circle extends Shape {
    int area() {
        return 1;
    }
}
class Square extends Shape {
    int area() {
        return 2;
    }
}
class Use {
    Shape f;
    int run(Shape p, Shape q) {
        %s
    }
}
"""


def _area_entries(model):
    return {f.class_name.split(".")[-1]: f.entry for f in model.functions.values() if f.name == "area"}


def test_one_callee_called_twice_asks_once_and_removes_once(tmp_path):
    # A field receiver: the oracle, not the allocation rule, decides it.
    body = "f = new Circle();\n        int x = f.area() + f.area();\n        return x;"
    root = write_repo(tmp_path, {"Use.java": SHAPES % body})
    model, g, _ = parse_and_build(root)
    stmt = _stmt_at(model, 21)
    entries = _area_entries(model)
    assert {e.dst for e in g.out_edges(stmt.id, CALL)} == set(entries.values())
    oracle = Recorder(MockResolutionOracle(), "site")
    audit = []
    enhance_polymorphic_calls(g, oracle, model, DiagnosticSink(), audit)
    assert len(oracle.records) == 1
    assert {e.dst for e in g.out_edges(stmt.id, CALL)} == {entries["Circle"]}
    assert sorted(a.dst for a in audit) == sorted([entries["Shape"], entries["Square"]])


def test_one_callee_two_receivers_keeps_every_edge_a_site_needs(tmp_path):
    # Receivers copied from parameters, so that their prompts differ and the
    # allocation rule decides neither.
    body = "Shape s1 = p;\n        Shape s2 = q;\n        int x = s1.area() + s2.area();\n        return x;"
    root = write_repo(tmp_path, {"Use.java": SHAPES % body})
    model, g, _ = parse_and_build(root)
    stmt = _stmt_at(model, 22)
    entries = _area_entries(model)
    replies = [json.dumps({"feasible_targets": [name]}) for name in ("Circle.area", "Square.area")]
    oracle = ScriptedOracle(replies)
    audit = []
    enhance_polymorphic_calls(g, oracle, model, DiagnosticSink(), audit)
    assert oracle.calls == 2
    assert {e.dst for e in g.out_edges(stmt.id, CALL)} == {entries["Circle"], entries["Square"]}
    assert [a.dst for a in audit] == [entries["Shape"]]


# ------------------------------------------------------------ reflective pass


def test_reflective_resolution_adds_edge(reflect_repo):
    model, g, _ = parse_and_build(reflect_repo)
    invoke = next(s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls))
    display_search = next(f for f in model.functions.values() if f.name == "displaySearch")
    assert not g.has_edge(invoke.id, display_search.entry, CALL)
    audit = []
    enhance_reflective_calls(g, MockResolutionOracle(), model, DiagnosticSink(), audit)
    assert g.has_edge(invoke.id, display_search.entry, CALL)
    # The old reflective external edge is removed, not kept alongside.
    assert not [e for e in g.out_edges(invoke.id, CALL) if e.dst.startswith("external:invoke")]
    assert [a for a in audit if a.op == "add"] == [
        AuditEntry("add", CALL, invoke.id, display_search.entry, "reflection")
    ]


def test_a_resolved_reflective_call_adds_no_warning(reflect_repo):
    # `m.invoke(this, payload)` passes two arguments to a one-parameter
    # method: reflection, not an arity mismatch.
    model, g, diags = parse_and_build(reflect_repo)
    audit = []
    enhance(model, g, MockResolutionOracle(), diags, audit)
    assert Counter(f"{entry.tau}.{entry.op}" for entry in audit) == {"call.add": 1, "call.remove": 1}
    assert diags.items == []


def test_reflection_unknown_class_keeps_external(reflect_repo):
    model, g, diags = parse_and_build(reflect_repo)
    invoke = next(s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls))
    reply = json.dumps({"target_class": "NotARealClass"})
    enhance_reflective_calls(g, ScriptedOracle([reply]), model, diags, [])
    assert [e for e in g.out_edges(invoke.id, CALL) if e.dst.startswith("external:invoke")]
    assert any("not in repository" in d.message for d in diags.items)


def test_reflection_unknown_method_keeps_external(reflect_repo):
    model, g, diags = parse_and_build(reflect_repo)
    invoke = next(s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls))
    replies = [
        json.dumps({"target_class": "PropertyClass"}),
        json.dumps({"target_method": "noSuchMethod"}),
    ]
    enhance_reflective_calls(g, ScriptedOracle(replies), model, diags, [])
    assert [e for e in g.out_edges(invoke.id, CALL) if e.dst.startswith("external:invoke")]


def test_no_reflective_calls_unchanged(dispatch_repo):
    model, g, _ = parse_and_build(dispatch_repo)
    oracle = ScriptedOracle([])
    before = set(g.edges)
    enhance_reflective_calls(g, oracle, model, DiagnosticSink(), [])
    assert oracle.calls == 0
    assert set(g.edges) == before


def test_two_invoke_sites_share_one_resolution(tmp_path):
    src = """package p;
import java.lang.reflect.Method;
public class R {
    public String run(String q) throws Exception {
        Method m1 = getClass().getMethod("show", String.class);
        Method m2 = getClass().getMethod("show", String.class);
        String r = "" + m1.invoke(this, q) + m2.invoke(this, q);
        return r;
    }
    public String show(String s) {
        return s;
    }
}
class S extends R {
}
"""
    # `S` makes `getClass()` name a class the reflection rule cannot tell,
    # so the shared edge is asked about.
    root = write_repo(tmp_path, {"R.java": src})
    model, g, _ = parse_and_build(root)
    stmt = _stmt_at(model, 7)
    show = next(f for f in model.functions.values() if f.name == "show")
    oracle = Recorder(MockResolutionOracle(), "site")
    audit = []
    enhance_reflective_calls(g, oracle, model, DiagnosticSink(), audit)
    assert len(list(oracle.lines())) == 2  # one class and one method question
    assert {e.dst for e in g.out_edges(stmt.id, CALL)} == {show.entry}
    assert [(a.op, a.dst) for a in audit] == [
        ("remove", "external:invoke/2"),
        ("add", show.entry),
    ]


def test_record_replay_reproduces_graph(reflect_repo, tmp_path):
    model, g, _ = parse_and_build(reflect_repo)
    recorder = Recorder(MockResolutionOracle(), "site")
    first = enhance(model, g, recorder, DiagnosticSink())
    path = tmp_path / "resolution.jsonl"
    path.write_text("".join(recorder.lines()), encoding="utf-8")
    model2, g2, _ = parse_and_build(reflect_repo)
    replay = Replay(str(path), "site")
    second = enhance(model2, g2, replay, DiagnosticSink())
    assert first.graph.dump() == second.graph.dump()


@pytest.mark.parametrize("name", ["dispatch", "el_template_validation", "pruning", "reflective_dispatch"])
def test_enhance_graph_leaves_input_intact(name):
    model, g, diags = parse_and_build(fixture_path(name))
    nodes = dict(g.nodes)
    before = list(g.edges)
    dump = g.dump()
    audit = []
    result = enhance(model, g, MockResolutionOracle(), diags, audit)
    assert g.nodes == nodes
    assert list(g.edges) == before
    assert g.dump() == dump
    if audit:  # the passes edited the copy, not the input
        assert set(result.graph.edges) != set(before)


# ------------------------------------------------------------------ prompts

# A string literal holding every oracle prompt's placeholders.
PLACEHOLDERS_LINE = 'A.m:3| String s = "%candidates% %call_statement% %classes% %methods%";'


@pytest.mark.parametrize(
    "render, slots",
    [
        (lambda v: render_polymorphic_prompt(v, v, [v], v), 4),
        (lambda v: render_reflection_class_prompt(v, v, [v]), 3),
        (lambda v: render_reflection_method_prompt(v, v, [v]), 3),
    ],
    ids=["polymorphic", "reflection-class", "reflection-method"],
)
def test_placeholders_inside_a_slot_value_are_kept_verbatim(render, slots):
    """Slots are filled in one pass: a value holding another slot's
    placeholder gets nothing spliced into it."""
    prompt = render(PLACEHOLDERS_LINE)
    assert prompt.count(PLACEHOLDERS_LINE) == slots
    assert len(PLACEHOLDER_RE.findall(prompt)) == 4 * slots


def test_polymorphic_candidates_stay_out_of_the_dataflow_context():
    prompt = render_polymorphic_prompt(
        'A.m:3| String s = "%candidates%";', "A.m:4| s.go();", ["p.B.go()", "p.C.go()"], ""
    )
    assert 'A.m:3| String s = "%candidates%";\n' in prompt
    assert prompt.count("- p.B.go()") == 1


def test_mock_oracle_splits_at_top_level_only():
    # The Java text `"a\\", b`: its string ends at the second quote, since
    # the backslash before it is itself escaped.
    assert _split_top('"a\\\\", b', ",") == ['"a\\\\"', " b"]
    assert _split_top('"x+" + f(a + b, c) + y[1 + 2] + "\\"+"', "+") == [
        '"x+" ',
        " f(a + b, c) ",
        " y[1 + 2] ",
        ' "\\"+"',
    ]
    assert _split_top('"never closed + ,', ",") == ['"never closed + ,']


# ------------------------------------------------------------------ jumps


def test_reconstructed_jump_edges(tmp_path):
    src = """package p;
class J {
    int m(int n) {
        outer: for (int i = 0; i < n; i = i + 1) {
            if (i == 1) {
                continue outer;
            }
        }
        return n;
    }
}
"""
    root = write_repo(tmp_path, {"J.java": src})
    model, g, _ = parse_and_build(root)
    targets = resolve_label_targets(model, DiagnosticSink())
    jump = next(s for s in model.statements.values() if s.kind == "jump")
    assert not g.out_edges(jump.id, CONTROL_FLOW)
    reconstruct_labeled_jumps(g, targets, model, [])
    succs = [e.dst for e in g.out_edges(jump.id, CONTROL_FLOW)]
    assert len(succs) == 1
    assert model.stmt(succs[0]).kind == "assignment"  # the for-update node


def test_zero_jumps_graph_unchanged(dispatch_repo):
    model, g, _ = parse_and_build(dispatch_repo)
    before = set(g.edges)
    reconstruct_labeled_jumps(g, [], model, [])
    assert set(g.edges) == before


def test_reconstructed_jump_brings_its_data_edges(tmp_path):
    """The definition before a `continue outer` reaches the sink only along
    the reconstructed edge, so only a DDG over the enhanced CFG has it."""
    src = """package p;
import java.sql.Statement;
class J {
    void run(Statement st, String[] rows) {
        String q = "a";
        outer: for (int i = 0; i < 3; i++) {
            for (int j = 0; j < rows.length; j++) {
                if (j == 1) {
                    q = rows[j];
                    continue outer;
                }
            }
            q = "b";
        }
        st.executeQuery(q);
    }
}
"""
    root = write_repo(tmp_path, {"J.java": src})
    model, g, diags = parse_and_build(root)
    audit = []
    enh = enhance(model, g, MockResolutionOracle(), diags, audit)
    sink = _stmt_at(model, 15)
    into_sink = enh.graph.in_edges(sink.id, DATA_DEPENDENCY)
    assert sorted(model.stmt(e.src).start_line for e in into_sink if e.variable == "q") == [5, 9, 13]
    jumped = _stmt_at(model, 9)
    assert AuditEntry("add", DATA_DEPENDENCY, jumped.id, sink.id, "control_flow", "q") in audit
    # The original graph keeps the dead end's view.
    assert not g.has_edge(jumped.id, sink.id, DATA_DEPENDENCY)


# ------------------------------------------------------------------ ordering


def test_chain_order(tmp_path):
    src = """package p;
class O {
    static int h(int x) {
        return x;
    }
    static int g(int x) {
        return h(x);
    }
    static int f(int x) {
        return g(x);
    }
}
"""
    root = write_repo(tmp_path, {"O.java": src})
    model, g, _ = parse_and_build(root)
    order = compute_analysis_order(g, model)
    names = [tuple(model.functions[m].name for m in comp.members) for comp in order]
    assert names == [("h",), ("g",), ("f",)]


def test_mutual_recursion_grouped(tmp_path):
    src = """package p;
class O {
    static int h(int x) {
        return x;
    }
    static int f(int x) {
        if (x > 0) {
            return g(x - 1);
        }
        return h(x);
    }
    static int g(int x) {
        return f(x);
    }
}
"""
    root = write_repo(tmp_path, {"O.java": src})
    model, g, _ = parse_and_build(root)
    order = compute_analysis_order(g, model)
    names = [tuple(sorted(model.functions[m].name for m in comp.members)) for comp in order]
    assert names == [("h",), ("f", "g")]
    assert order_is_sound(order, function_call_graph(g, model))


@pytest.mark.parametrize("seed", range(20))
def test_scc_matches_reachability_oracle(seed):
    adjacency = random_call_graph(seed)
    mine = {frozenset(c) for c in tarjan_scc(adjacency)}
    oracle = set(scc_reachability_oracle(adjacency))
    assert mine == oracle


# ------------------------------------------------------- backward dataflow ctx


def test_receiver_trace_lines(reflect_repo):
    model, g, _ = parse_and_build(reflect_repo)
    invoke = next(s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls))
    nodes, truncated = backward_dataflow_context(g, invoke, set(invoke.uses))
    lines = set()
    for n in nodes:
        lines.update(n.span_lines())
    assert lines == set(range(5, 12))  # definitions and modification history
    assert not truncated


def test_singleton_trace(tmp_path):
    src = """package p;
class T {
    int m(int n) {
        int a = n + 1;
        int b = a;
        return b;
    }
}
"""
    root = write_repo(tmp_path, {"T.java": src})
    model, g, _ = parse_and_build(root)
    b_def = _stmt_at(model, 5)
    nodes, _ = backward_dataflow_context(g, b_def, {"a"})
    assert [n.start_line for n in nodes] == [4]


def test_chain_of_three(tmp_path):
    src = """package p;
class T {
    int m(int n) {
        int x = n;
        int y = x;
        int z = y;
        return z;
    }
}
"""
    root = write_repo(tmp_path, {"T.java": src})
    model, g, _ = parse_and_build(root)
    ret = _stmt_at(model, 7, "return")
    nodes, _ = backward_dataflow_context(g, ret, {"z"})
    assert [n.start_line for n in nodes] == [4, 5, 6]


def test_truncation_cap(tmp_path):
    lines = ["package p;", "class Big {", "    int m(int n) {", "        int v0 = n;"]
    for i in range(1, 80):
        lines.append(f"        int v{i} = v{i - 1};")
    lines.append("        return v79;")
    lines.append("    }")
    lines.append("}")
    root = write_repo(tmp_path, {"Big.java": "\n".join(lines) + "\n"})
    model, g, _ = parse_and_build(root)
    ret = next(s for s in model.statements.values() if s.kind == "return")
    nodes, truncated = backward_dataflow_context(g, ret, {"v79"}, cap=60)
    assert truncated and len(nodes) == 60
    # Oldest-first truncation keeps the definitions nearest the call site.
    assert nodes[-1].start_line > nodes[0].start_line


# ------------------------------------------------------------------ audit lines


@pytest.mark.parametrize(
    "text",
    ["n12", 'say "hi"', "back\\slash", "tab\tnewline\nbell\x07nul\x00del\x7f", "héllo ☃ \U0001d11e", ""],
    ids=["plain", "quotes", "backslash", "control", "non-ascii", "empty"],
)
def test_audit_line_is_the_sorted_json_dump(text):
    entries = [
        AuditEntry("add", DATA_DEPENDENCY, f"src:{text}", f"{text}:dst", text, variable)
        for variable in (None, text, f"v{text}")
    ]
    entries.append(AuditEntry(text, text, text, text, text, text))
    for entry in entries:
        assert entry.json_line() == json.dumps(entry.as_dict(), sort_keys=True) + "\n"
