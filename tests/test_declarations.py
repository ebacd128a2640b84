"""One declaration grammar (JLS 8.3, 14.4): a field, a local, a for-init,
a for-each header, a catch parameter and a parameter are annotations and
modifiers in any order, one type, and `name [] ... [= init]` declarators,
read by the same readers.  A for header's expression lists are lowered
part by part into one node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_and_build, write_repo

from udgscan.errors import DiagnosticSink
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.frontend.model import RepoModel
from udgscan.frontend.parser import parse_source
from udgscan.udg.calls import build_call_graph
from udgscan.udg.graph import DATA_DEPENDENCY

CLASS = """package p;
import java.util.HashMap;
import java.util.List;
import java.util.Map;
class A {
%s
    int f(int a, int b) {
        return a;
    }
    void m(int x, int[][] g, List<String> names) {
        %s
    }
}
"""


def parse(body, members=""):
    """The model of a class whose method `m(int x, int[][] g, List<String>
    names)` holds `body`, with `members` before it; the file must parse."""
    model, diags = RepoModel(root=""), DiagnosticSink()
    assert parse_source("p/A.java", CLASS % (members, body), model, diags), diags.as_dicts()
    return model


def statements(model):
    """Each statement by its code, and a for header's nodes by (code, kind)."""
    found = {}
    for s in model.statements.values():
        if not s.synthetic:
            found[(s.code, s.kind) if s.code.startswith("for (") else s.code] = s
    return found


def scope(model):
    return next(f for f in model.functions.values() if f.name == "m").var_types


def test_every_declarator_of_a_local_is_declared():
    model = parse("int i, j;\n i = x;\n int y = i + 1;\n int a = 1, b = x;\n int c = b + j;")
    stmts = statements(model)
    assert (stmts["int i, j"].defs, stmts["int i, j"].uses) == ({"i", "j"}, set())
    assert stmts["int y = i + 1"].uses == {"i"}
    both = stmts["int a = 1, b = x"]
    assert (both.kind, both.defs, both.uses, both.outside_uses) == ("declaration", {"a", "b"}, {"x"}, {"x"})
    assert stmts["int c = b + j"].uses == {"b", "j"}
    assert {name: scope(model)[name] for name in "ijabc"} == dict.fromkeys("ijabc", "int")


def test_each_name_is_in_scope_from_its_own_initializer_on():
    """`b`'s initializer reads `a`; the node takes the uses of both
    initializers, and their calls in declarator order."""
    node = statements(parse("int a = f(x, x), b = a + f(a, 1);"))["int a = f(x, x), b = a + f(a, 1)"]
    assert (node.kind, node.defs, node.uses) == ("call", {"a", "b"}, {"a", "x"})
    assert [site.arg_vars for site in node.calls] == [[{"x"}, {"x"}], [{"a"}, set()]]


def test_a_later_statement_depends_on_the_declarator_that_defines_what_it_reads(tmp_path):
    files = {"p/A.java": CLASS % ("", "int i = 1, j = x;\n int y = j + 1;")}
    model, g, _ = parse_and_build(write_repo(tmp_path, files))
    stmts = statements(model)
    into_y = g.in_edges(stmts["int y = j + 1"].id, DATA_DEPENDENCY)
    assert [(e.src, e.variable) for e in into_y] == [(stmts["int i = 1, j = x"].id, "j")]


def test_a_for_init_declares_every_declarator():
    stmts = statements(parse("for (int k = 0, n = x; k < n; k++) {\n x = k;\n }"))
    assert (stmts["int k = 0, n = x"].defs, stmts["int k = 0, n = x"].uses) == ({"k", "n"}, {"x"})
    assert stmts[("for (int k = 0, n = x; k < n; k++)", "loop_header")].uses == {"k", "n"}


def test_a_local_takes_every_dimension_and_drops_type_arguments():
    model = parse("int[][] grid = g;\n List<int[]> ys = null;\n int row[] = g[0], cell = row[0];")
    assert {name: scope(model)[name] for name in ("grid", "ys", "row", "cell")} == {
        "grid": "int[][]",
        "ys": "List",
        "row": "int[]",
        "cell": "int",
    }


def test_fields_with_generic_new_and_dimensions_after_the_name():
    members = (
        "    Map<String, String> m = new HashMap<String, String>(), n;\n"
        "    int c[] = null, d = 1;\n"
        "    int[] e = {1, 2}, h[];\n"
    )
    model = parse("x = 1;", members)
    fields = {g.variable: (g.declared_type, g.rhs_uses) for g in model.globals if g.variable}
    assert fields == {
        "m": ("Map", set()),
        "n": ("Map", set()),
        "c": ("int[]", set()),
        "d": ("int", set()),
        "e": ("int[]", set()),
        "h": ("int[][]", set()),
    }
    node = statements(model)["Map<String, String> m = new HashMap<String, String>(), n;"]
    assert (node.defs, [(c.chain, c.arity) for c in node.calls]) == ({"m", "n"}, [("new HashMap", 0)])


def test_a_for_each_variable_may_take_its_dimensions_after_its_name():
    model = parse("for (int row[] : g) {\n x = row[0];\n }")
    stmts = statements(model)
    assert stmts[("for (int row[] : g)", "assignment")].defs == {"row"}
    assert stmts["x = row[0];"].uses == {"row"}
    assert scope(model)["row"] == "int[]" and "]" not in scope(model)


def test_a_multi_catch_parameter_takes_the_type_of_its_last_alternative():
    body = (
        "try {\n x = 1;\n } catch (final IllegalStateException | java.io.UncheckedIOException e) {\n x = 2;\n }"
        " catch (RuntimeException r) {\n x = 3;\n }"
    )
    assert {name: scope(parse(body))[name] for name in "er"} == {
        "e": "UncheckedIOException",
        "r": "RuntimeException",
    }


def test_a_single_declarator_allocation_is_kept_and_several_drop_it():
    stmts = statements(parse("Object a = new Object();\n Object b = new Object(), c = names;"))
    assert stmts["Object a = new Object()"].allocates == "Object"
    assert stmts["Object b = new Object(), c = names"].allocates == ""


def test_a_for_header_lowers_each_expression_of_its_lists():
    model = parse("int i = 0, j = 0;\n for (i = 0, j = x - 1; i < j; i++, j--) {\n x = i + j;\n }")
    stmts = statements(model)
    header = "for (i = 0, j = x - 1; i < j; i++, j--)"
    init, update = [s for s in model.statements.values() if s.code == header and s.kind == "assignment"]
    assert (init.defs, init.uses, init.outside_uses) == ({"i", "j"}, {"x"}, {"x"})
    assert (update.defs, update.uses, update.outside_uses) == ({"i", "j"}, {"i", "j"}, {"i", "j"})
    assert stmts[(header, "loop_header")].uses == {"i", "j"}


def test_a_for_header_list_keeps_its_calls_in_order_and_allocates_nothing():
    header = "for (Object o = null, q = null; x > 0; o = new Object(), x = f(x, 1), q = o)"
    model = parse(header + " {\n }")
    update = [s for s in model.statements.values() if s.code == header and s.kind != "loop_header"][-1]
    assert (update.kind, update.defs, update.uses) == ("call", {"o", "x", "q"}, {"o", "x"})
    assert [(c.chain, c.arg_vars) for c in update.calls] == [("new Object", []), ("f", [{"x"}, set()])]
    assert update.allocates == ""


def test_the_update_feeds_the_next_iteration(tmp_path):
    """The loop-carried dependences on both variables of a header list."""
    body = "int i = 0, j = 0;\n for (i = 0, j = x - 1; i < j; i++, j--) {\n x = i + j;\n }"
    model, g, _ = parse_and_build(write_repo(tmp_path, {"p/A.java": CLASS % ("", body)}))
    header = "for (i = 0, j = x - 1; i < j; i++, j--)"
    init, update = [s for s in model.statements.values() if s.code == header and s.kind == "assignment"]
    cond = statements(model)[(header, "loop_header")]
    into_cond = {(e.src, e.variable) for e in g.in_edges(cond.id, DATA_DEPENDENCY)}
    assert into_cond == {(src.id, v) for src in (init, update) for v in "ij"}


def test_an_array_initializer_in_an_argument_list_is_one_argument():
    model = parse("int y = f(new int[]{1, 2}, x);")
    node = statements(model)["int y = f(new int[]{1, 2}, x)"]
    assert [(c.name, c.arity, c.arg_vars) for c in node.calls] == [("f", 2, [set(), {"x"}])]
    edges, _ = build_call_graph(model, build_type_hierarchy(model, DiagnosticSink()))
    entry = next(f.entry for f in model.functions.values() if f.name == "f")
    assert [e.dst for e in edges if e.src == node.id] == [entry]


def test_an_anonymous_class_body_stays_in_its_statement():
    """Outside the subset, but it no longer splits the statement at the
    first `;` of its body."""
    model = parse("Runnable r = new Runnable() { public void run() { f(x, x); } };\n int z = x;")
    code = "Runnable r = new Runnable() { public void run() { f(x, x); } }"
    assert [s.code for s in model.statements.values() if not s.synthetic][-2:] == [code, "int z = x"]
    assert [(c.chain, c.arity) for c in statements(model)[code].calls] == [("new Runnable", 0), ("run", 0), ("f", 2)]


def field_errors(member):
    model, diags = RepoModel(root=""), DiagnosticSink()
    assert not parse_source("p/A.java", f"package p;\nclass A {{\n{member}", model, diags)
    return [(d.line, d.message) for d in diags.items]


def test_malformed_field_declarations_are_reported_at_their_line():
    unexpected = "subset violation: unexpected token in field declaration"
    assert field_errors("    int a\n    b;\n}\n") == [(4, unexpected)]
    assert field_errors("    int a[3];\n}\n") == [(3, unexpected)]
    assert field_errors("    int a, 5;\n}\n") == [(3, unexpected)]
    assert field_errors("    int a = f(1,\n") == [(3, "subset violation: unclosed '('")]
    assert field_errors("    int a, b\n") == [(2, "subset violation: unclosed '{'")]
    assert field_errors("    int a = f(1)\n}\n") == [(3, "subset violation: unterminated initializer")]
    # The scans for the field's `;` and for a `,` between its declarators
    # stop at the class's `}`: a `;` or `,` after it ends nothing.
    assert field_errors("    int a = f(1)\n}\n;\n") == [(3, "subset violation: unterminated initializer")]
    assert field_errors("    int a = f(1)\n}\n, int b;\n") == [(3, "subset violation: unterminated initializer")]
    assert field_errors("    int a = f(1));\n}\n") == [(3, "subset violation: unmatched ')'")]
    assert field_errors("    List<String x;\n}\n") == [(3, "subset violation: unclosed '<'")]


@pytest.mark.parametrize(
    "text, line",
    [
        ("class A {\n    List<String x;\n}\nclass B {\n    boolean f = a > b;\n}\n", 2),
        ("class A<T {\n    int x;\n}\nclass B {\n    boolean f = a > b;\n}\n", 1),
        ("class A {\n    <T void f() {\n    }\n    boolean f = a > b;\n}\n", 2),
        ("class A {\n    Map<String, List<String x = null;\n}\nclass B {\n    int f = a >> b;\n}\n", 2),
        ("class A {\n    void m() {\n        List<String y;\n    }\n}\n", 3),
        ("class A {\n    void m() {\n        final Map<String, List<String> y = null;\n    }\n}\n", 3),
        ("class A {\n    void m(int n) {\n        for (List<String y = null; n < 3; n++) {\n        }\n    }\n}\n", 3),
        ("class A {\n    void m(int[] g) {\n        for (List<String y : g) {\n        }\n    }\n}\n", 3),
        ("class A {\n    void m() {\n        try {\n        } catch (Map<String E e) {\n        }\n    }\n}\n", 4),
    ],
)
def test_unclosed_type_arguments_end_at_their_statement(text, line):
    """A `<` that no `>` closes before the end of its statement, a `{`, or
    the group it is in, is an error at its line, in a member or in a
    method body; it never closes on a `>` of a later class."""
    model, diags = RepoModel(root=""), DiagnosticSink()
    assert not parse_source("A.java", text, model, diags)
    assert [(d.line, d.message) for d in diags.items] == [(line, "subset violation: unclosed '<'")]
    assert model.classes == {} and model.globals == []


def test_a_less_than_in_a_body_still_parses():
    model = parse(
        "boolean c = x < 3;\n c = x < f(1, 2);\n if (x < 2) {\n x = 1;\n }\n"
        " for (int i = 0; i < x; i = i + 1) {\n x = i;\n }"
    )
    stmts = statements(model)
    assert (stmts["c = x < f(1, 2);"].defs, stmts["c = x < f(1, 2);"].uses) == ({"c"}, {"x"})
    assert stmts["boolean c = x < 3"].defs == {"c"}
    assert [s.uses for s in model.statements.values() if s.kind == "condition"] == [{"x"}]
    assert [s.uses for s in model.statements.values() if s.kind == "loop_header"] == [{"i", "x"}]


def test_annotated_final_and_dimensioned_parameters_are_read():
    members = (
        "    void p(@Deprecated String s) {\n    }\n"
        "    void q(final @A String s, @a.b.C(k = {1, 2}) int... rest) {\n    }\n"
        "    void r(int a[], Map<String, List<String>> m) {\n    }\n"
    )
    model = parse("x = 1;", members)
    params = {f.name: list(f.var_types.items()) for f in model.functions.values() if f.name in "pqr"}
    assert params == {
        "p": [("s", "String")],
        "q": [("s", "String"), ("rest", "int[]")],
        "r": [("a", "int[]"), ("m", "Map")],
    }


def test_an_annotated_local_is_declared():
    model = parse('@SuppressWarnings("unused") int a = x;\n final @A int c = x;\n int b = a + c + 1;')
    stmts = statements(model)
    assert [stmts[code].defs for code in ('@SuppressWarnings("unused") int a = x', "final @A int c = x")] == [
        {"a"},
        {"c"},
    ]
    assert stmts["int b = a + c + 1"].uses == {"a", "c"}


def test_an_annotated_catch_parameter_and_for_each_variable_are_declared():
    body = (
        "try {\n x = 1;\n } catch (@A IllegalStateException e) {\n x = e.hashCode();\n }\n"
        " for (@A String y : names) {\n x = y.length();\n }"
    )
    model = parse(body)
    stmts = statements(model)
    assert {name: scope(model)[name] for name in "ey"} == {"e": "IllegalStateException", "y": "String"}
    assert stmts[("for (@A String y : names)", "assignment")].defs == {"y"}
    assert (stmts["x = e.hashCode();"].uses, stmts["x = y.length();"].uses) == ({"e"}, {"y"})


def test_a_field_with_an_annotation_after_a_modifier_and_a_qualified_annotation_are_read():
    model = parse("x = 1;", "    private @Deprecated String s = null;\n    @org.junit.Test void t() {\n    }\n")
    assert [(g.variable, g.declared_type) for g in model.globals if g.variable] == [("s", "String")]
    assert any(f.name == "t" for f in model.functions.values())


def _parsed(path, text):
    model, diags = RepoModel(root=""), DiagnosticSink()
    assert parse_source(path, text, model, diags), diags.as_dicts()
    return model


def test_generic_methods_and_constructors_are_read():
    model = _parsed("A.java", "class A { <T> T id(T x) { return x; } int f(int y) { return y; } }")
    functions = {f.name: f for f in model.functions.values()}
    assert sorted(functions) == ["f", "id"]
    assert functions["id"].param_types == ["T"]
    model = _parsed("B.java", "class B { public <T extends Comparable<T>> B(T x) { } }")
    assert [(f.name, f.params) for f in model.functions.values()] == [("B", ["x"])]


def test_an_annotation_element_may_take_a_default():
    model = _parsed(
        "Tag.java",
        '@interface Tag {\n    String value() default "x";\n    int[] ids() default {1, 2};\n    int n();\n}\n',
    )
    functions = {f.name: f for f in model.functions.values()}
    assert sorted(functions) == ["ids", "n", "value"]
    assert all(f.is_abstract for f in functions.values())


def test_an_argument_holding_a_generic_new_is_one_argument():
    model = parse("int y = g(new Box<String, String>(x));", "    int g(Object o) {\n        return 1;\n    }\n")
    node = statements(model)["int y = g(new Box<String, String>(x))"]
    assert [(c.chain, c.arity, c.arg_vars) for c in node.calls] == [("new Box", 1, [{"x"}]), ("g", 1, [{"x"}])]
    edges, _ = build_call_graph(model, build_type_hierarchy(model, DiagnosticSink()))
    entry = next(f.entry for f in model.functions.values() if f.name == "g")
    assert [e.dst for e in edges if e.src == node.id] == ["external:Box/1", entry]


# Every declaration site of one method, each opened by a prefix; a prefix
# and what follows it share a line, so no line number moves.
SITES = """package p;
class A {
    %(field)s int f = 1, h;
    int m(%(param)s int x, %(varargs)s String... ys) {
        %(local)s int a = x + f, b = g(a);
        for (%(init)s int i = 0, j = a; i < j; i++) {
            b = i;
        }
        for (%(each)s String y : ys) {
            a = a + y.length();
        }
        try {
            a = g(a);
        } catch (%(catch)s RuntimeException e) {
            a = e.hashCode();
        }
        return a + b;
    }
    int g(int z) {
        return z;
    }
}
"""
ANNOTATIONS = ["@A", "@a.b.C", "@A()", "@A(x)", '@A("s, t")', "@A(k = 1, v = {x, 2})", "@p.B(g(x), y)"]
FIELD_MODIFIERS = "public protected private static final transient volatile".split()


def facts(src):
    """What a scan reads of `src`'s statements, functions and fields: all but
    the code and text of each node."""
    model, diags = RepoModel(root=""), DiagnosticSink()
    assert parse_source("p/A.java", src, model, diags), diags.as_dicts()
    nodes = [
        (s.id, s.kind, s.start_line, s.end_line, s.defs, s.uses, s.outside_uses, s.calls, s.allocates)
        for s in model.statements.values()
    ]
    functions = [(f.id, f.params, f.param_types, f.var_types) for f in model.functions.values()]
    fields = [(g.statement, g.variable, g.declared_type, g.rhs_uses) for g in model.globals]
    return nodes, functions, fields


def _prefixes(modifiers):
    return st.lists(st.sampled_from(ANNOTATIONS + modifiers), max_size=4).map(" ".join)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.fixed_dictionaries(
        {
            "field": _prefixes(FIELD_MODIFIERS),
            **{site: _prefixes(["final"]) for site in ("param", "varargs", "local", "init", "each", "catch")},
        }
    )
)
def test_annotations_and_modifiers_change_no_fact_of_any_declaration_site(prefixes):
    assert facts(SITES % prefixes) == facts(SITES % dict.fromkeys(prefixes, ""))
