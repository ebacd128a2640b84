import re

import pytest

from conftest import parse_and_build, write_repo

from udgscan.errors import DiagnosticSink
from udgscan.frontend import syntax as syn
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.frontend.parser import parse_repository
from udgscan.udg.calls import build_call_graph, function_of_entry
from udgscan.udg.graph import CONTROL_FLOW

MINIMAL = """package p;
class A {
    int m(int x) {
        int a = x + 1;
        int b = a * 2;
        return b;
    }
}
"""


def test_minimal_program_shapes(tmp_path):
    root = write_repo(tmp_path, {"A.java": MINIMAL})
    model = parse_repository(root, DiagnosticSink())
    assert len(model.classes) == 1
    assert len(model.functions) == 1
    func = next(iter(model.functions.values()))
    assert len(func.body) == 3
    assert func.params == ["x"]
    entry = model.stmt(func.entry)
    assert entry.kind == "entry" and entry.defs == {"x"}
    assert model.stmt(func.exit).kind == "exit"


def test_empty_directory(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    diags = DiagnosticSink()
    model = parse_repository(str(root), diagnostics=diags)
    assert model.files == [] and model.functions == {} and model.classes == {}
    assert diags.items == []


def test_missing_root_raises_ioerror(tmp_path):
    with pytest.raises(IOError):
        parse_repository(str(tmp_path / "nope"), DiagnosticSink())


def test_round_trip_locality(tmp_path):
    root = write_repo(tmp_path, {"A.java": MINIMAL})
    model = parse_repository(root, DiagnosticSink())
    source = model.files[0]
    for stmt in model.statements.values():
        assert stmt.text == source.slice_lines(stmt.start_line, stmt.end_line)


def test_defs_uses_occur_in_text(tmp_path):
    root = write_repo(tmp_path, {"A.java": MINIMAL})
    model = parse_repository(root, DiagnosticSink())
    for stmt in model.statements.values():
        for name in stmt.uses:
            assert name.split(".")[0] in stmt.text
        for name in stmt.defs:
            if name == "<ret>":  # synthetic return binding
                continue
            assert name.split(".")[0] in stmt.text


def test_el_fixture_statement_coverage(el_repo):
    model = parse_repository(el_repo, DiagnosticSink())
    lines = set()
    for stmt in model.statements.values():
        if not stmt.synthetic:
            lines.update(stmt.span_lines())
    # Every code construct of the 33-line file maps to nodes.
    assert {1, 4, 8, 9, 10, 11, 17, 18, 19, 24, 26, 31, 33} <= lines


def test_el_fixture_globals(el_repo):
    model = parse_repository(el_repo, DiagnosticSink())
    globals_list = model.globals
    by_kind = {}
    for g in globals_list:
        kind = model.stmt(g.statement).kind
        by_kind.setdefault(kind, []).append(g)
    field_vars = {g.variable for g in by_kind.get("global_def", [])}
    assert field_vars == {"PARAM_NAME", "ESCAPE_CHARACTER", "ESCAPE_PATTERN"}
    assert len({g.statement for g in by_kind["global_def"]}) == 3
    assert len({g.statement for g in by_kind["import_decl"]}) == 1
    assert len({g.statement for g in by_kind["package_decl"]}) == 1
    assert len({g.statement for g in by_kind["class_decl"]}) == 3  # two classes + annotation type


def test_global_rhs_uses(tmp_path):
    src = """package p;
class K {
    static final Pattern P = Pattern.compile(Q);
    static final String Q = "x";
}
"""
    root = write_repo(tmp_path, {"K.java": src})
    model = parse_repository(root, DiagnosticSink())
    decls = {g.variable: g for g in model.globals if g.variable}
    assert decls["P"].rhs_uses == {"Q"}
    assert decls["Q"].rhs_uses == set()


def test_class_without_fields_or_imports(tmp_path):
    src = "package p;\nclass Empty {\n}\n"
    root = write_repo(tmp_path, {"E.java": src})
    model = parse_repository(root, DiagnosticSink())
    kinds = sorted(model.stmt(g.statement).kind for g in model.globals)
    assert kinds == ["class_decl", "package_decl"]


def test_lambda_rejected_per_file(tmp_path):
    bad = """package p;
class L {
    void m() {
        Runnable r = () -> run();
    }
}
"""
    root = write_repo(tmp_path, {"Bad.java": bad, "Good.java": MINIMAL.replace("package p;", "package q;")})
    diags = DiagnosticSink()
    model = parse_repository(root, diagnostics=diags)
    assert len(model.files) == 1
    assert any("subset violation" in d.message for d in diags.items)


def test_skipped_file_keeps_no_diagnostics_from_its_parse(tmp_path):
    src = "class C { static { int z = 0; } void h() { Runnable r = () -> {}; } }"
    root = write_repo(tmp_path, {"C.java": src})
    diags = DiagnosticSink()
    model = parse_repository(root, diagnostics=diags)
    assert model.files == []
    # The warning about the initializer block went with the file.
    assert [(d.severity, d.message) for d in diags.items] == [
        ("error", "subset violation: lambdas and method references are outside the subset")
    ]


def body_errors(tmp_path, body_line):
    """The (path, line, message) of each error diagnostic of a file whose
    method body holds `body_line` on line 4."""
    src = "package p;\nclass R {\n    int g(int d) {\n" + body_line + "\n        return d;\n    }\n}\n"
    root = write_repo(tmp_path, {"R.java": src})
    diags = DiagnosticSink()
    model = parse_repository(root, diagnostics=diags)
    assert model.files == []
    return [(d.path, d.line, d.message) for d in diags.items if d.severity == "error"]


def test_unbalanced_argument_list_names_its_file(tmp_path):
    assert body_errors(tmp_path, "        ) return id(d;") == [("R.java", 4, "subset violation: unmatched ')'")]


def test_truncated_construct_reports_the_body_line(tmp_path):
    # The condition's `(` swallows the rest of the body: the method's `}`
    # finds it open, so it is reported where it opens.
    assert body_errors(tmp_path, "        if (g(d) {\n        }") == [("R.java", 4, "subset violation: unclosed '('")]


@pytest.mark.parametrize(
    "body_line, message",
    [
        ("        int x = a[f(b]);", "unclosed '('"),
        ("        d = d];", "unmatched ']'"),
        ("        f(b});", "unclosed '('"),
    ],
    ids=["interleaved", "stray-bracket", "brace-in-arguments"],
)
def test_brackets_that_do_not_nest_skip_the_file_at_the_bracket(tmp_path, body_line, message):
    assert body_errors(tmp_path, body_line) == [("R.java", 4, f"subset violation: {message}")]


def test_unclosed_paren_reports_its_statement_line(tmp_path):
    assert body_errors(tmp_path, "        g(d;") == [("R.java", 4, "subset violation: unclosed '('")]


def test_missing_semicolon_reports_its_statement_line(tmp_path):
    src = "package p;\nclass R {\n    int g(int d) {\n        d = d + 1;\n        g(d)\n    }\n}\n"
    root = write_repo(tmp_path, {"R.java": src})
    diags = DiagnosticSink()
    assert parse_repository(root, diagnostics=diags).files == []
    assert [(d.line, d.message) for d in diags.items] == [(5, "subset violation: missing ';'")]


@pytest.mark.parametrize(
    "src, line, message",
    [
        ("package p;\n\n\n\nclass A extends", 5, "expected a type"),
        ("package p;\n\n\npublic", 4, "expected a type declaration"),
    ],
    ids=["supertype", "type-declaration"],
)
def test_end_of_file_errors_report_the_last_line(tmp_path, src, line, message):
    root = write_repo(tmp_path, {"A.java": src})
    diags = DiagnosticSink()
    assert parse_repository(root, diagnostics=diags).files == []
    assert [(d.line, d.message) for d in diags.items] == [(line, f"subset violation: {message}")]


def test_hierarchy_overrides(tmp_path):
    src = """package p;
class A {
    int id(int x) {
        return x;
    }
}
class B extends A {
    int id(int x) {
        return x + 1;
    }
}
class K {
    int k(A a) {
        return a.id(1);
    }
}
"""
    root = write_repo(tmp_path, {"H.java": src})
    model = parse_repository(root, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    assert ("p.B", "p.A") in h.edges
    edges, _ = build_call_graph(model, h)
    assert [function_of_entry(model, e.dst).class_name for e in edges] == ["p.A", "p.B"]


def test_hierarchy_single_class_empty(tmp_path):
    root = write_repo(tmp_path, {"A.java": MINIMAL})
    model = parse_repository(root, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    assert h.edges == []


def test_hierarchy_external_supertype(tmp_path):
    src = "package p;\nclass A extends HashMap {\n}\n"
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    assert h.edges == []
    assert h.external_edges == [("p.A", "HashMap")]


def test_hierarchy_cycle_rejected(tmp_path):
    """A cycle costs the edge that closes it: B's `extends A`, with one
    error at B's declaration."""
    src = "package p;\nclass A extends B {\n}\nclass B extends A {\n}\n"
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    diags = DiagnosticSink()
    h = build_type_hierarchy(model, diags)
    assert h.edges == [("p.A", "p.B")]
    assert [d.render() for d in diags.items] == [
        "[error] frontend: A.java:4: inheritance cycle through p.A -> p.B -> p.A"
    ]


@pytest.mark.parametrize("cycle", [False, True])
def test_a_long_inheritance_chain_is_checked(tmp_path, cycle):
    """Classes C00000 ... C01499, each extending the next: the check walks
    the whole chain, deeper than the interpreter's recursion limit."""
    n = 1500
    top = " extends C00000" if cycle else ""
    src = "package p;\n" + "".join(
        f"class C{i:05d}" + (f" extends C{i + 1:05d}" if i + 1 < n else top) + " {\n}\n" for i in range(n)
    )
    model = parse_repository(write_repo(tmp_path, {"A.java": src}), DiagnosticSink())
    diags = DiagnosticSink()
    h = build_type_hierarchy(model, diags)
    # The cycle's closing edge, C01499 -> C00000, is left out.
    assert h.edges == [(f"p.C{i:05d}", f"p.C{i + 1:05d}") for i in range(n - 1)]
    if cycle:
        (error,) = diags.items
        assert (error.severity, error.path, error.line) == ("error", "A.java", 2 * n)
        through = r"^inheritance cycle through p\.C00000 -> p\.C00001 -> .* -> p\.C01499 -> p\.C00000$"
        assert re.match(through, error.message)
        assert error.message.count(" -> ") == n
    else:
        assert diags.items == []


def test_constructor_with_type_arguments_three_deep(tmp_path):
    src = """package p;
class N {
    void m(String v) {
        Object x = new Box<Box<Box<String>>>(v);
    }
}
"""
    root = write_repo(tmp_path, {"N.java": src})
    model = parse_repository(root, DiagnosticSink())
    x = next(s for s in model.statements.values() if s.defs == {"x"})
    assert [(c.chain, c.arity, c.arg_vars, c.is_constructor) for c in x.calls] == [("new Box", 1, [{"v"}], True)]
    assert x.kind == "call"
    assert "v" in x.uses


def test_for_each_without_a_variable_is_a_malformed_header(tmp_path):
    src = "package p;\nclass F {\n    void m(int[] xs) {\n        for (: xs) { }\n    }\n}\n"
    root = write_repo(tmp_path, {"F.java": src})
    _, _, diags = parse_and_build(root)
    assert [(d.message, d.path, d.line) for d in diags.items] == [
        ("subset violation: malformed for header", "F.java", 4)
    ]


def test_for_init_with_ternary_is_a_classic_for(tmp_path):
    src = """package p;
class F {
    int m(boolean flag, int n) {
        int s = 0;
        for (int i = flag ? 1 : 2; i < n; i++) {
            s = s + i;
        }
        return s;
    }
}
"""
    root = write_repo(tmp_path, {"F.java": src})
    model, g, diags = parse_and_build(root)
    assert not diags.has_errors()
    func = next(iter(model.functions.values()))
    loop = model.bodies[func.id][1]
    assert isinstance(loop, syn.For)
    init, cond, update = (model.stmt(sid) for sid in (loop.init, loop.cond, loop.update))
    assert (init.kind, init.defs, init.uses) == ("declaration", {"i"}, {"flag"})
    assert (cond.kind, cond.defs, cond.uses) == ("loop_header", set(), {"i", "n"})
    assert (update.defs, update.uses) == ({"i"}, {"i"})
    body = model.stmt(syn.head_of_list(loop.body))
    ret = next(s for s in model.statements.values() if s.kind == "return")
    for src_id, dst_id in [(init.id, cond.id), (cond.id, body.id), (body.id, update.id), (update.id, cond.id), (cond.id, ret.id)]:
        assert g.has_edge(src_id, dst_id, CONTROL_FLOW)


def test_dotted_assignment_targets_read_what_holds_them(tmp_path):
    src = """package p;
class Main {
    int f;
    void m(Main a, int x, int i, int[] b) {
        a.f = x;
        this.f = x;
        new Main().f = x;
        b[i] = x;
    }
}
"""
    root = write_repo(tmp_path, {"Main.java": src})
    model = parse_repository(root, DiagnosticSink())
    stmts = {s.code: s for s in model.statements.values()}
    facts = {
        code: (s.kind, s.defs, s.uses, [(c.chain, c.is_constructor) for c in s.calls])
        for code, s in stmts.items()
        if code.endswith("= x;")
    }
    assert facts == {
        "a.f = x;": ("assignment", {"a.f"}, {"a", "x"}, []),
        "this.f = x;": ("assignment", {"this.f"}, {"x"}, []),
        "new Main().f = x;": ("call", set(), {"x"}, [("new Main", True)]),
        "b[i] = x;": ("assignment", {"b"}, {"i", "x"}, []),
    }
