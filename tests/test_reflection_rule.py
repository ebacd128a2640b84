"""The reflection rule of the reflection pass: an `invoke` site whose method
is looked up on one known class, by a name that folds over reaching
definitions to string constants naming its methods, is decided without a
request, and it must decide as the mock oracle would have answered."""

import json
import os
import sys

import pytest

from conftest import FIXTURES, fixture_path, parse_and_build, write_repo

from udgscan.enhance import passes
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.enhance.prompts import render_statement_block
from udgscan.errors import DiagnosticSink
from udgscan.harness.scan import EXIT_OK, ScanConfig, scan
from udgscan.transcript import Recorder
from udgscan.udg.calls import call_statements, function_of_entry, is_reflective_invocation, site_targets
from udgscan.udg.graph import CALL

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import workloads  # noqa: E402

# Transcripts of a mock scan of `TRANSCRIBED`, recorded before the pass
# decided any reflective site by rule.
EARLIER_TRANSCRIPTS = os.path.join(os.path.dirname(__file__), "transcripts", "reflection_rule")

SERVICE = """package p;
import java.lang.reflect.Method;
class Svc {
    String name() {
        return "showPlain";
    }
    public String showPlain(String input) {
        return "<p>" + input;
    }
    public String showSearch(String input) {
        return "<s>" + input;
    }
    public String run(String mode, String query, boolean c) throws Exception {
        %s
        String res = (String) m.invoke(this, query);
        return res;
    }
}
"""

# A name that is one of two constants, by branch.
TWO_NAMES = """String kind = "Plain";
        if (mode.startsWith("s")) kind = "Search";
        String target = "show" + kind;
        Method m = getClass().getMethod(target, String.class);"""

# Sites the rule decides, and the methods it decides.
DECIDED = {
    "two names": (TWO_NAMES, ["showPlain", "showSearch"]),
    "a class literal": ('Method m = Svc.class.getMethod("showSearch", String.class);', ["showSearch"]),
    "a concatenated argument on this": (
        'String kind = "Plain";\n        Method m = this.getClass().getDeclaredMethod("show" + kind, String.class);',
        ["showPlain"],
    ),
}

# Sites where the rule is narrower than the mock: the methods the rule and
# the mock name.
NARROWER = {
    # The context holds `t = "showPlain"`, which `query` brings in, but the
    # lookup sees only the definition after it.
    "a definition the lookup does not see": (
        'String t = "showPlain";\n        query = t + query;\n        t = "showSearch";\n'
        "        Method m = getClass().getMethod(t, String.class);",
        (["showSearch"], ["showPlain", "showSearch"]),
    ),
}

# Sites the rule refuses: a body for `run`, and a class to add.
REFUSED = {
    "a name from a parameter": ("Method m = getClass().getMethod(mode, String.class);", ""),
    "a name from a call": ("String t = name();\n        Method m = getClass().getMethod(t, String.class);", ""),
    "a class with a subclass": (TWO_NAMES, "class Sub extends Svc {\n}\n"),
    "a class from Class.forName": (
        'Class k = Class.forName("p.Svc");\n        Method m = k.getMethod("showPlain", String.class);',
        "",
    ),
    # The `invoke` site is decided; the `newInstance` site is asked.
    "newInstance": (
        'Method m = getClass().getMethod("showPlain", String.class);\n        Object o = getClass().newInstance();',
        "",
    ),
    "a parameter type that is not a class literal": (
        'Class t = String.class;\n        Method m = getClass().getMethod("showPlain", t);',
        "",
    ),
    "a name built in a loop": (
        'String t = "show";\n        while (c) {\n            t = t + "x";\n        }\n'
        "        Method m = getClass().getMethod(t, String.class);",
        "",
    ),
    "more names than the cap": (
        'String a = "A";\n        if (c) a = "B";\n        String b = a + a;\n        String t = b + b;\n'
        "        Method m = getClass().getMethod(t, String.class);",
        "",
    ),
}

# One site the rule decides and one it asks about.
TRANSCRIBED = {
    "p/Svc.java": SERVICE % DECIDED["a class literal"][0],
    "p/Other.java": SERVICE.replace("Svc", "Other") % REFUSED["a name from a parameter"][0],
}


class CountingOracle(MockResolutionOracle):
    def __init__(self):
        self.sites = []

    def complete(self, prompt, site=""):
        self.sites.append(site)
        return super().complete(prompt, site)


class ScriptedOracle:
    def __init__(self, *responses):
        self.responses = list(responses)

    def complete(self, prompt, site=""):
        return self.responses.pop(0)


def service_repo(tmp_path, body, extra=""):
    return write_repo(tmp_path, {"p/Svc.java": SERVICE % body + extra})


def dispatch_latency_repo(tmp_path, seed):
    return write_repo(tmp_path / str(seed), workloads.dispatch_latency(seed).files)


def rule_and_mock(root):
    """Per reflective invocation site: the statement, the methods the rule
    decides (None when it refuses) and the methods the mock names (none
    with a warning) for the prompts the pass would build, each in entry
    order."""
    model, g, _ = parse_and_build(root)
    passes.add_global_nodes(g, model.globals, model, [])
    class_names = sorted(model.classes)
    sites = []
    for stmt in call_statements(g):
        per_site = site_targets(g, model, stmt)
        for idx, site in enumerate(stmt.calls):
            if not is_reflective_invocation(site):
                continue
            if not any(t.startswith("external:") for t in per_site[idx]):
                continue
            rule = passes._looked_up_methods(g, model, stmt, site)
            block = passes._dataflow_block(g, model, stmt, set(stmt.uses))
            call_line = render_statement_block([stmt], model)
            mock, _ = passes._ask_reflective(MockResolutionOracle(), model, stmt, "", block, call_line, class_names)
            sites.append((stmt, methods(model, rule), methods(model, mock)))
    return sites


def methods(model, entries):
    """The methods of `entries`, in entry order; None for None."""
    return None if entries is None else [function_of_entry(model, entry) for entry in sorted(entries)]


def decided_agreeing(sites):
    """The sites the rule decides, each checked to decide the methods the
    mock names."""
    decided = [(stmt, rule, mock) for stmt, rule, mock in sites if rule is not None]
    for _, rule, mock in decided:
        assert [f.id for f in rule] == [f.id for f in mock]
    return decided


def names(methods):
    return [f.name for f in methods]


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_the_rule_agrees_with_the_mock_on_the_fixtures(name):
    sites = rule_and_mock(fixture_path(name))
    assert len(sites) == (1 if name == "reflective_dispatch" else 0)
    assert decided_agreeing(sites) == []  # `displayPlain` is not a method


@pytest.mark.parametrize("seed", [101, 102, 103])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_the_rule_agrees_with_the_mock_on_the_bench_corpora(tmp_path, workload, seed):
    sites = rule_and_mock(write_repo(tmp_path, workloads.WORKLOADS[workload](seed).files))
    decided = decided_agreeing(sites)
    if workload == "dispatch-latency":
        assert len(sites) == len(decided) == workloads.DISPATCH_FILES
        assert {tuple(names(rule)) for _, rule, _ in decided} == {("showPlain", "showSearch")}
    else:
        assert sites == []


@pytest.mark.parametrize("case", sorted(DECIDED))
def test_the_rule_agrees_with_the_mock_on_a_written_file(tmp_path, case):
    body, want = DECIDED[case]
    [(_, rule, _)] = decided_agreeing(rule_and_mock(service_repo(tmp_path, body)))
    assert names(rule) == want


@pytest.mark.parametrize("length", [2, 1200])
def test_a_long_chain_of_copies_is_decided_as_a_short_one(tmp_path, length):
    """`String s1 = s0; ... ` ending in the looked-up name: the fold follows
    the whole chain, deeper than the interpreter's recursion limit."""
    copies = "".join(f"\n        String s{i} = s{i - 1};" for i in range(1, length))
    body = f'String s0 = "showSearch";{copies}\n        Method m = Svc.class.getMethod(s{length - 1}, String.class);'
    [(_, rule, _)] = rule_and_mock(service_repo(tmp_path, body))
    assert names(rule) == ["showSearch"]


@pytest.mark.parametrize("case", sorted(NARROWER))
def test_where_the_rule_is_narrower_than_the_mock(tmp_path, case):
    body, want = NARROWER[case]
    [(_, rule, mock)] = rule_and_mock(service_repo(tmp_path, body))
    assert (names(rule), names(mock)) == want


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_the_rule_refuses(tmp_path, case):
    model, g, _ = parse_and_build(service_repo(tmp_path, *REFUSED[case]))
    oracle = CountingOracle()
    passes.enhance_reflective_calls(g, oracle, model, DiagnosticSink(), [])
    assert sum(site.endswith("/class") for site in oracle.sites) == 1


def test_the_rule_refuses_a_name_that_is_not_a_method(reflect_repo):
    model, g, diags = parse_and_build(reflect_repo)
    oracle = CountingOracle()
    passes.enhance_reflective_calls(g, oracle, model, diags, [])
    assert [site.rsplit("/", 1)[1] for site in oracle.sites] == ["class", "method"]
    # The mock names `displayPlain` too; the class declares only `displaySearch`.
    [stmt] = [s for s in model.statements.values() if "invoke" in s.code]
    assert [function_of_entry(model, e.dst).name for e in g.out_edges(stmt.id, CALL)] == ["displaySearch"]
    assert diags.items == []


@pytest.mark.parametrize("seed", [None, 101])
def test_deciding_by_rule_edits_the_graph_as_asking_the_mock_does(tmp_path, monkeypatch, seed):
    """On a written file (no seed) and a dispatch workload corpus, the rule
    leaves the audit, the edges and the diagnostics as asking the mock
    about every site does, with fewer requests."""
    if seed is None:
        root = service_repo(tmp_path, TWO_NAMES)
    else:
        root = dispatch_latency_repo(tmp_path, seed)
    edits = []
    for rule in (passes._looked_up_methods, lambda *args: None):
        monkeypatch.setattr(passes, "_looked_up_methods", rule)
        model, g, diags = parse_and_build(root)
        oracle, audit = CountingOracle(), []
        passes.enhance_reflective_calls(g, oracle, model, diags, audit)
        edits.append(([a.as_dict() for a in audit], sorted(g.edges), diags.items, oracle.sites))
    (audit, edges, diags, asked), (audit_all, edges_all, diags_all, asked_all) = edits
    assert audit and (audit, edges, diags) == (audit_all, edges_all, diags_all)
    assert asked == [] and asked_all


@pytest.mark.parametrize("rule", ["decided", "asked"])
def test_a_reflective_site_keeps_every_feasible_method(tmp_path, monkeypatch, rule):
    """`kind` is "Plain" or "Search": both `showPlain` and `showSearch` get
    a call edge, whether the rule decides the site or the mock answers."""
    if rule == "asked":
        monkeypatch.setattr(passes, "_looked_up_methods", lambda *args: None)
    result = scan(ScanConfig(repo=service_repo(tmp_path, TWO_NAMES)))
    assert result.report["stats"]["enhancement"] == {"call.add": 2, "call.remove": 1}
    [stmt] = [s for s in result.model.statements.values() if "m.invoke" in s.code]
    called = [function_of_entry(result.model, e.dst).name for e in result.graph.out_edges(stmt.id, CALL)]
    assert sorted(called) == ["showPlain", "showSearch"]


@pytest.mark.parametrize(
    "answer, want, warning",
    [
        ({"target_methods": ["showSearch", "nothing", "showPlain"]}, ["showPlain", "showSearch"], None),
        ({"target_method": "showSearch"}, ["showSearch"], None),
        ({"target_methods": ["nothing", "none"]}, [], "reflection target method 'nothing, none' not in p.Svc"),
        ({"target_method": "nothing"}, [], "reflection target method 'nothing' not in p.Svc"),
    ],
    ids=["several, one unknown", "one as a string", "none known", "one unknown"],
)
def test_a_method_answer_names_several_methods_or_one(tmp_path, answer, want, warning):
    model, g, diags = parse_and_build(service_repo(tmp_path, *REFUSED["a class with a subclass"]))
    oracle = ScriptedOracle(json.dumps({"target_class": "Svc"}), json.dumps(answer))
    audit = []
    passes.enhance_reflective_calls(g, oracle, model, diags, audit)
    added = [function_of_entry(model, a.dst).name for a in audit if a.op == "add"]
    assert added == want  # in entry order
    assert [d.message for d in diags.items] == ([warning] if warning else [])


def test_two_invoke_sites_decided_by_rule_share_one_edge(tmp_path):
    body = """Method m1 = getClass().getMethod("showPlain", String.class);
        Method m = getClass().getMethod("showPlain", String.class);
        query = "" + m1.invoke(this, query) + m.invoke(this, query);"""
    model, g, _ = parse_and_build(service_repo(tmp_path, body))
    oracle, audit = CountingOracle(), []
    passes.enhance_reflective_calls(g, oracle, model, DiagnosticSink(), audit)
    assert oracle.sites == []
    show = next(f for f in model.functions.values() if f.name == "showPlain")
    assert [(a.op, a.dst) for a in audit] == [
        ("remove", "external:invoke/2"),
        ("add", show.entry),
        ("remove", "external:invoke/2"),
        ("add", show.entry),
    ]


def test_a_dispatch_workload_transcript_holds_no_reflective_question(tmp_path):
    oracle = Recorder(MockResolutionOracle(), "site")
    scan(ScanConfig(repo=dispatch_latency_repo(tmp_path, 101)), resolution_oracle=oracle)
    sites = [json.loads(line)["site"] for line in oracle.lines()]
    assert len(sites) == workloads.DISPATCH_FILES  # each file's `drawAny` site
    assert not [site for site in sites if "/reflect" in site]


def test_a_transcript_recorded_before_the_rule_still_replays(tmp_path):
    root = write_repo(tmp_path, TRANSCRIBED)
    with open(os.path.join(EARLIER_TRANSCRIPTS, "resolution.jsonl"), encoding="utf-8") as fh:
        recorded = [json.loads(line)["site"] for line in fh]
    oracle = Recorder(MockResolutionOracle(), "site")
    mocked = scan(ScanConfig(repo=root), resolution_oracle=oracle)
    asked = [json.loads(line)["site"] for line in oracle.lines()]
    # The decided site's two questions stay unused, and that is not an error.
    assert len(recorded) == 4 and asked == [site for site in recorded if site.startswith("p/Other.java")]
    replayed = scan(ScanConfig(repo=root, oracle_mode="replay", transcript_dir=EARLIER_TRANSCRIPTS))
    assert replayed.exit_code == EXIT_OK
    assert replayed.report["config"]["oracle_mode"] == "replay"
    replayed.report["config"]["oracle_mode"] = "mock"
    assert replayed.report == mocked.report
