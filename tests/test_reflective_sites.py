"""A call site says whether it is reflective: every call without an in-repo
target shares one external node per name and arity, so nothing about a
site is read off that node, and a call edge belongs only to the sites that
name its callee."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_repo

from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.graph import CALL, DATA_DEPENDENCY


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
