"""A call site says whether it is reflective: every call without an in-repo
target shares one external node per name and arity, so nothing about a
site is read off that node, and a call edge belongs only to the sites that
name its callee.  Sites sharing that node's edge each keep what they
resolve to, and the edge goes only when none of them keeps it."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_repo

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.graph import CALL, DATA_DEPENDENCY, is_external


class Asked:
    """The mock oracle, listing the (site, prompt) of every request."""

    in_process = True

    def __init__(self):
        self.inner = MockResolutionOracle()
        self.requests: list[tuple[str, str]] = []

    def complete(self, prompt, site):
        self.requests.append((site, prompt))
        return self.inner.complete(prompt, site)


def _scan(tmp_path, files):
    oracle = Asked()
    result = scan(ScanConfig(repo=write_repo(tmp_path, files), out_dir=str(tmp_path / "out")), resolution_oracle=oracle)
    with open(tmp_path / "out" / "audit.jsonl", encoding="utf-8") as fh:
        audit = fh.read().splitlines()
    return result, oracle.requests, audit


def _stmt(result, code):
    return next(s for s in result.model.statements.values() if s.code.startswith(code))


def _method(result, name):
    return next(f for f in result.model.functions.values() if f.name == name)


HANDLER = """package p;
import java.lang.reflect.Method;
class A {
    void %s(Handler h, String x) { h.invoke(this, x); }
    String run(String a) { return a; }
    Object go(String x) throws Exception {
        Method m = A.class.getMethod("run", String.class);
        Object r = m.invoke(this, x);
        return r;
    }
}
"""


@pytest.mark.parametrize("name", ["first", "zlast"])
def test_a_call_named_invoke_on_another_type_neither_hides_nor_joins_the_reflective_site(tmp_path, name):
    # `first` sorts before `go` and `zlast` after it: whichever site is
    # seen first, the reflective one resolves and `h.invoke` is not asked.
    result, requests, _ = _scan(tmp_path, {"p/A.java": HANDLER % name})
    invoke = _stmt(result, "Object r = m.invoke(")
    handler = _stmt(result, "h.invoke(")
    assert {e.dst for e in result.graph.out_edges(invoke.id, CALL)} == {_method(result, "run").entry}
    assert {e.dst for e in result.graph.out_edges(handler.id, CALL)} == {"external:invoke/2"}
    assert not [site for site, _ in requests if site.startswith(f"{handler.id}/")]
    assert result.report["stats"]["enhancement"] == {"call.remove": 1, "call.add": 1}
    assert result.report["diagnostics"] == []


RUN_TWO = """package p;
import java.lang.reflect.Method;
class A {
    String run(String a, String b) { return a; }
    Object go(String x, String y) throws Exception {
        Method m = A.class.getMethod("run", String.class, String.class);
        Object r = m.invoke(this, x, y);
        return r;
    }
}
"""


def test_a_resolved_invoke_passes_every_argument_on(tmp_path):
    # `run` returns its first parameter, which `invoke` gets as its second
    # argument, `x`: its first is the receiver object.
    result, _, audit = _scan(tmp_path, {"p/A.java": RUN_TWO})
    invoke = _stmt(result, "Object r = m.invoke(")
    assert {e.dst for e in result.graph.out_edges(invoke.id, CALL)} == {_method(result, "run").entry}
    into = {e.variable for e in result.graph.in_edges(invoke.id, DATA_DEPENDENCY)}
    assert {"m", "x", "y"} <= into
    assert not [line for line in audit if '"pass": "data_pruning"' in line]


REFLECTIVE = """package p;
import java.lang.reflect.Method;
class M {
    String run(String a) { return a; }
    Object go(String x) throws Exception {
        Method m = %s;
        Object r = m.invoke(this, x);
        return r;
    }
}
class S extends M {
}
"""
LOOKUPS = {
    # Decided by rule: a class literal's method named by a constant.
    "rule": 'M.class.getMethod("run", String.class)',
    # Asked: `M` has a subtype, so `getClass()` may be either class.
    "asked": 'getClass().getMethod("run", String.class)',
}
JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue default do double
    else enum extends false final finally float for goto if implements import instanceof int
    interface long native new null package private protected public record return short static
    strictfp super switch synchronized this throw throws transient true try var void volatile
    while yield""".split()
)


def _reflective_part(tmp_path, files):
    """What a scan of `files` asks, and the audit lines and findings of
    `p/M.java`."""
    result, requests, audit = _scan(tmp_path, files)
    audit = [line for line in audit if '"src": "p/M.java#' in line or '"dst": "p/M.java#' in line]
    return requests, audit, [f for f in result.report["findings"] if f["file"] == "p/M.java"]


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    lookup=st.sampled_from(sorted(LOOKUPS)),
    holder=st.from_regex(r"[A-Z][a-z]{0,4}", fullmatch=True).filter(lambda c: c not in ("M", "S", "Class", "Field")),
    name=st.from_regex(r"[a-z][A-Za-z0-9]{0,7}", fullmatch=True).filter(lambda n: n not in JAVA_KEYWORDS),
)
@example(lookup="rule", holder="A", name="first")
@example(lookup="rule", holder="Z", name="zlast")
@example(lookup="asked", holder="A", name="first")
@example(lookup="asked", holder="Z", name="zlast")
def test_a_non_reflective_invoke_leaves_the_reflective_site_as_it_was(tmp_path_factory, lookup, holder, name):
    # The holder's file sorts before `p/M.java` or after it, so its site is
    # seen first or last; the holder class is there in both scans, so the
    # class prompt lists the same classes.
    base = {"p/M.java": REFLECTIVE % LOOKUPS[lookup]}
    bare = {**base, f"p/{holder}.java": f"package p;\nclass {holder} {{\n}}\n"}
    calling = {
        **base,
        f"p/{holder}.java": f"package p;\nclass {holder} {{\n"
        f"    void {name}(Handler h, String x) {{ h.invoke(this, x); }}\n}}\n",
    }
    root = tmp_path_factory.mktemp("probe")
    without = _reflective_part(root / "bare", bare)
    assert '"op": "add", "pass": "reflection"' in "".join(without[1])  # the site resolves
    assert bool(without[0]) == (lookup == "asked")
    assert _reflective_part(root / "calling", calling) == without


def _callees(result, stmt):
    return {e.dst for e in result.graph.out_edges(stmt.id, CALL)}


def _entry(result, name, arity):
    return next(f.entry for f in result.model.functions.values() if (f.name, f.arity) == (name, arity))


TWO_LOOKUPS = """package p;
import java.lang.reflect.Method;
import q.Ext;
class A {
    String run(String a) { return a; }
    String other(String a) { return a + "!"; }
    Object go(Ext h, String x, String y) throws Exception {
        Method m1 = A.class.getMethod("run", String.class);
        Method m2 = A.class.getMethod("other", String.class);
        Object r = %s;
        return r;
    }
}
"""


def test_two_invoke_sites_decided_by_rule_each_keep_their_method(tmp_path):
    result, requests, _ = _scan(tmp_path, {"p/A.java": TWO_LOOKUPS % "m1.invoke(this, x) + m2.invoke(this, y)"})
    invoke = _stmt(result, "Object r = ")
    assert _callees(result, invoke) == {_entry(result, "run", 1), _entry(result, "other", 1)}
    assert result.report["stats"]["enhancement"] == {"call.remove": 1, "call.add": 2}
    assert requests == []


def test_a_non_reflective_invoke_keeps_the_external_edge_it_shares(tmp_path):
    result, requests, _ = _scan(tmp_path, {"p/A.java": TWO_LOOKUPS % "m1.invoke(this, x) + h.invoke(this, x)"})
    invoke = _stmt(result, "Object r = ")
    assert _callees(result, invoke) == {_entry(result, "run", 1), "external:invoke/2"}
    assert result.report["stats"]["enhancement"] == {"call.add": 1}
    assert requests == []


OVERLOADS = """package p;
import java.lang.reflect.Method;
class A {
    String run(String a) { return a; }
    String run(String a, String b) { return b; }
    Object go(String x, String y) throws Exception {
        Method m = %s.getMethod("run", String.class, String.class);
        Object r = m.invoke(this, x, y);
        return r;
    }
}
%s"""


def test_the_rule_keeps_the_overload_with_one_parameter_per_class_literal(tmp_path):
    result, requests, audit = _scan(tmp_path, {"p/A.java": OVERLOADS % ("A.class", "")})
    invoke = _stmt(result, "Object r = m.invoke(")
    assert _callees(result, invoke) == {_entry(result, "run", 2)}
    assert [line for line in audit if '"op": "remove"' in line and "external:invoke/3" in line]
    assert requests == []


SAME_COUNT = """package p;
import java.lang.reflect.Method;
class A {
    String run(Integer a) { return "" + a; }
    String run(String a) { return a; }
    Object go(String x) throws Exception {
        Method m = A.class.getMethod("run", %s);
        Object r = m.invoke(this, x);
        return r;
    }
}
"""


@pytest.mark.parametrize("literal", ["String.class", "java.lang.String.class"])
def test_the_rule_keeps_the_overload_whose_parameter_types_are_the_class_literals(tmp_path, literal):
    result, requests, _ = _scan(tmp_path, {"p/A.java": SAME_COUNT % literal})
    by_type = {f.param_types[0]: f.entry for f in result.model.functions.values() if f.name == "run"}
    assert _callees(result, _stmt(result, "Object r = m.invoke(")) == {by_type["String"]}
    assert requests == []


def test_a_class_literal_no_overload_declares_is_asked(tmp_path):
    result, requests, _ = _scan(tmp_path, {"p/A.java": SAME_COUNT % "Long.class"})
    assert [site.rsplit("/", 1)[1] for site, _ in requests] == ["class", "method"]


class Scripted(Asked):
    """The mock oracle, but for the method question, which `method` answers."""

    def __init__(self, method):
        super().__init__()
        self.method = method

    def complete(self, prompt, site):
        if site.endswith("/method"):
            self.requests.append((site, prompt))
            return json.dumps({"target_method": self.method})
        return super().complete(prompt, site)


def test_a_method_answer_by_name_keeps_every_overload_and_by_signature_one(tmp_path):
    # `A` has a subclass, so `getClass()` may be either class: the site is asked.
    files = {"p/A.java": OVERLOADS % ("getClass()", "class S extends A {\n}\n")}
    kept = {}
    for answer in ("run", "p.A.run(String)"):
        oracle = Scripted(answer)
        root = write_repo(tmp_path / str(len(kept)), files)
        result = scan(ScanConfig(repo=root, out_dir=str(tmp_path / "out")), resolution_oracle=oracle)
        assert [site.rsplit("/", 1)[1] for site, _ in oracle.requests] == ["class", "method"]
        kept[answer] = _callees(result, _stmt(result, "Object r = m.invoke("))
    assert kept == {
        "run": {_entry(result, "run", 1), _entry(result, "run", 2)},
        "p.A.run(String)": {_entry(result, "run", 1)},
    }


# Methods of `A` a site may look up, as (name, parameter count).
LOOKED_UP = [("other", 1), ("pair", 2), ("run", 1), ("run", 2)]
SITES = """package p;
import java.lang.reflect.Method;
import q.Ext;
class A {
    String run(String a) { return a; }
    String run(String a, String b) { return b; }
    String other(String a) { return a + "!"; }
    String pair(String a, String b) { return a + b; }
    Object go(Ext h, String x, String y) throws Exception {
%s
        return "";
    }
}
"""


def _invoke(receiver, arity):
    return f"{receiver}.invoke(this, {', '.join(['x', 'y'][:arity])})"


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    looked_up=st.lists(st.sampled_from(LOOKED_UP), min_size=2, max_size=2),
    handler=st.sampled_from([None, 1, 2]),
)
@example(looked_up=[("run", 1), ("other", 1)], handler=None)
@example(looked_up=[("run", 1), ("other", 1)], handler=1)
@example(looked_up=[("run", 2), ("pair", 2)], handler=2)
def test_a_statement_gets_the_call_edges_of_its_sites_each_alone(tmp_path_factory, looked_up, handler):
    """Two sites decided by rule, and maybe a call `h.invoke` of an
    external type with as many parameters as one of `A`'s: the statement
    calling them all gets the union of the call edges each gets alone in
    its own statement, and so keeps an external edge only when some site
    alone keeps it."""
    lines, alone = [], []
    for i, (name, arity) in enumerate(looked_up):
        classes = ", ".join(["String.class"] * arity)
        lines.append(f'        Method m{i} = A.class.getMethod("{name}", {classes});')
        alone.append(_invoke(f"m{i}", arity))
    if handler:
        alone.append(_invoke("h", handler))
    for i, call in enumerate(alone):
        lines.append(f"        Object a{i} = {call};")
    lines.append(f'        Object r = "" + {" + ".join(alone)};')
    result, requests, _ = _scan(tmp_path_factory.mktemp("sites"), {"p/A.java": SITES % "\n".join(lines)})
    assert requests == []
    each = [_callees(result, _stmt(result, f"Object a{i} = ")) for i in range(len(alone))]
    together = _callees(result, _stmt(result, "Object r = "))
    assert together == set().union(*each)
    kept_alone = {t for callees in each for t in callees if is_external(t)}
    assert {t for t in together if is_external(t)} == kept_alone
    assert kept_alone == ({f"external:invoke/{handler + 1}"} if handler else set())
