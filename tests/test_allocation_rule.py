"""The allocation rule of the polymorphism pass: a site whose receiver is a
local variable only ever set to one `new T(...)` is decided without a
request, and it must decide as the mock oracle would have answered."""

import os
import sys

import pytest

from conftest import FIXTURES, fixture_path, parse_and_build, write_repo

from udgscan.enhance import passes
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.errors import DiagnosticSink
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.calls import call_statements, function_of_entry, site_targets
from udgscan.udg.graph import CALL

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402

SHAPES = """package p;
class Shape {
    Shape s;
    int area() {
        return 0;
    }
    Shape make() {
        return new Square();
    }
    int run(Shape p, boolean c) {
        %s
        return x;
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
class Round extends Circle {
}
"""

# Sites the rule decides: a declaration, a reassigned parameter, and two
# branches and a loop that allocate one class.
DECIDED = SHAPES % """Shape a = new Circle();
        int x = a.area();
        p = new Square();
        x = x + p.area();
        Shape b;
        if (c) {
            b = new Circle();
        } else {
            b = new Circle();
        }
        x = x + b.area();
        Shape d = new Square();
        while (c) {
            x = x + d.area();
            d = new Square();
        }"""

# Sites where the rule is narrower than the mock, per site the classes the
# rule and the mock name.
NARROWER = {
    # The context of `w.area()` also holds `new Square()`, which reaches
    # the call only as the argument of the allocation that does.
    "an allocation that does not reach": (
        "Shape w = new Square();\n        w = new Circle(w);\n        int x = w.area();",
        [("p.Circle", ["p.Circle", "p.Square"])],
    ),
    # A prompt shows the statement, not the site: the mock reads the first
    # receiver, `e`, for both, and no allocation of `e` is in `h`'s context.
    "two receivers at one statement": (
        "Shape e = new Circle();\n        Shape h = new Square();\n        int x = e.area() + h.area();",
        [("p.Circle", ["p.Circle"]), ("p.Square", ["p.Circle", "p.Shape", "p.Square"])],
    ),
}

REFUSED = {
    "parameter": "int x = p.area();",
    "a parameter reassigned on one branch": "if (c) {\n            p = new Circle();\n        }\n        int x = p.area();",
    "field": "s = new Circle();\n        int x = s.area();",
    "this": "int x = this.area();",
    "two classes on two branches": (
        "Shape t;\n        if (c) {\n            t = new Circle();\n        } else {\n"
        "            t = new Square();\n        }\n        int x = t.area();"
    ),
    "a class that inherits the method": "Shape t = new Round();\n        int x = t.area();",
    "a class outside the repository": "Shape t = new Outside();\n        int x = t.area();",
    "last assigned from a call": "Shape t = new Circle();\n        t = make();\n        int x = t.area();",
    "a call on a new object": "Shape t = new Circle().make();\n        int x = t.area();",
    "multi-declarator": "Shape a = new Circle(), s = p;\n        int x = s.area();",
    "a field of the local": "Shape t = new Circle();\n        int x = t.s.area();",
}


class CountingOracle(MockResolutionOracle):
    def __init__(self):
        self.sites = []

    def complete(self, prompt, site=""):
        self.sites.append(site)
        return super().complete(prompt, site)


def rule_and_mock(root):
    """Per site the rule decides: the statement, the rule's candidate and
    the candidates the mock names for the prompt the pass would build."""
    model, g, _ = parse_and_build(root)
    passes.add_global_nodes(g, model.globals, model, [])
    hierarchy = passes._hierarchy_text(model)
    decided = []
    for stmt in call_statements(g):
        per_site = site_targets(g, model, stmt)
        for idx, site in enumerate(stmt.calls):
            targets = tuple(sorted(t for t in per_site[idx] if not t.startswith("external:")))
            target = passes._allocated_target(g, model, stmt, site, targets) if len(targets) >= 2 else None
            if target is None:
                continue
            prompt, by_signature = passes._polymorphic_prompt(g, model, stmt, site, targets, hierarchy)
            named, _ = passes._ask_feasible(MockResolutionOracle(), stmt, "", prompt, by_signature)
            decided.append((stmt, target, named))
    return model, decided


def dispatch_latency_repo(tmp_path, seed):
    return write_repo(tmp_path / str(seed), workloads.dispatch_latency(seed).files)


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_the_rule_agrees_with_the_mock_on_the_fixtures(name):
    _, decided = rule_and_mock(fixture_path(name))
    assert len(decided) == (1 if name == "dispatch" else 0)
    for _, target, named in decided:
        assert named == {target}


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_the_rule_agrees_with_the_mock_on_the_dispatch_workload(tmp_path, seed):
    _, decided = rule_and_mock(dispatch_latency_repo(tmp_path, seed))
    assert len(decided) == 2 * workloads.DISPATCH_FILES  # each file's drawKnown0 and drawKnown1
    for _, target, named in decided:
        assert named == {target}


def test_the_rule_agrees_with_the_mock_on_a_written_file(tmp_path):
    model, decided = rule_and_mock(write_repo(tmp_path, {"p/Shape.java": DECIDED}))
    classes = [function_of_entry(model, target).class_name for _, target, _ in decided]
    assert classes == ["p.Circle", "p.Square", "p.Circle", "p.Square"]
    for _, target, named in decided:
        assert named == {target}


@pytest.mark.parametrize("case", sorted(NARROWER))
def test_where_the_rule_is_narrower_than_the_mock(tmp_path, case):
    body, want = NARROWER[case]
    model, decided = rule_and_mock(write_repo(tmp_path, {"p/Shape.java": SHAPES % body}))

    def cls(entry):
        return function_of_entry(model, entry).class_name

    assert [(cls(target), sorted(map(cls, named))) for _, target, named in decided] == want


@pytest.mark.parametrize("seed", [None, 101])
def test_deciding_by_rule_edits_the_graph_as_asking_the_mock_does(tmp_path, monkeypatch, seed):
    """On the written file (no seed) and a dispatch workload corpus, the
    rule leaves the audit, the edges and the diagnostics as asking the mock
    about every site does, with fewer requests."""
    if seed is None:
        root = write_repo(tmp_path, {"p/Shape.java": DECIDED})
    else:
        root = dispatch_latency_repo(tmp_path, seed)
    edits = []
    for rule in (passes._allocated_target, lambda *args: None):
        monkeypatch.setattr(passes, "_allocated_target", rule)
        model, g, diags = parse_and_build(root)
        oracle, audit = CountingOracle(), []
        passes.enhance_polymorphic_calls(g, oracle, model, diags, audit)
        edits.append(([a.as_dict() for a in audit], sorted(g.edges), diags.items, oracle.sites))
    (audit, edges, diags, asked), (audit_all, edges_all, diags_all, asked_all) = edits
    assert audit and (audit, edges, diags) == (audit_all, edges_all, diags_all)
    assert len(asked) < len(asked_all)
    assert set(asked) < set(asked_all)


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_rule_refuses(tmp_path, case):
    model, g, _ = parse_and_build(write_repo(tmp_path, {"p/Shape.java": SHAPES % REFUSED[case]}))
    oracle = CountingOracle()
    passes.enhance_polymorphic_calls(g, oracle, model, DiagnosticSink(), [])
    assert len(oracle.sites) == 1


def test_mock_keeps_every_class_the_receiver_is_allocated(tmp_path):
    source = """package p;
class Shape {
    String draw(String v) {
        return v;
    }
}
class Circle extends Shape {
    String draw(String v) {
        return "circle" + v;
    }
}
class Square extends Shape {
    String draw(String v) {
        return "square" + v;
    }
}
class Canvas {
    String paint(boolean c, String v) {
        Shape s = new Circle();
        if (c) {
            s = new Square();
        }
        String o = s.draw(v);
        return o;
    }
}
"""
    result = scan(ScanConfig(repo=write_repo(tmp_path, {"p/Canvas.java": source})))
    assert result.report["stats"]["enhancement"] == {"call.remove": 1}
    call = next(s for s in result.model.statements.values() if any(c.name == "draw" for c in s.calls))
    kept = {function_of_entry(result.model, e.dst).class_name for e in result.graph.out_edges(call.id, CALL)}
    assert kept == {"p.Circle", "p.Square"}


def test_the_rule_reads_the_data_edges_a_labeled_jump_brings(tmp_path):
    """`s = new Circle()` reaches `s.area()` only through `continue outer`:
    the jump's data edges come before the rule, so both classes stay."""
    body = """Shape s = new Square();
        outer:
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
                if (c) {
                    s = new Circle();
                    continue outer;
                }
            }
            s = new Square();
        }
        int x = s.area();"""
    result = scan(ScanConfig(repo=write_repo(tmp_path, {"p/Shape.java": SHAPES % body})))
    call = next(s for s in result.model.statements.values() if s.code == "int x = s.area()")
    kept = {function_of_entry(result.model, e.dst).class_name for e in result.graph.out_edges(call.id, CALL)}
    assert kept == {"p.Circle", "p.Square"}
