"""The repository model: built file by file from parsed fragments, read-only
once parsing ends, and the lookups `RepoModel.merge` keeps for its readers."""

import importlib
import json
import os

import pytest

from conftest import FIXTURES, copy_fixture_repo, enhance, parse_and_build, write_repo

from udgscan.context.implicit import declaration_context
from udgscan.context.sinks import SensitiveInvocation, find_sensitive_invocations
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.harness.generate import random_summary_program
from udgscan.harness.scan import ScanConfig, scan
from udgscan.knowledge import UserSinkSpec, load_starter_kb
from udgscan.udg.graph import CALL

FIXTURE_NAMES = sorted(os.listdir(FIXTURES))


# ------------------------------------------------------------ read-only model


def _snapshot(model):
    return (
        list(model.statements),
        list(model.functions),
        list(model.classes),
        [g.statement for g in model.globals],
        list(model.bodies),
        [f.path for f in model.files],
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_scan_leaves_the_parsed_model_unchanged(monkeypatch, name):
    scan_module = importlib.import_module("udgscan.harness.scan")
    parsed = []
    parse_repository = scan_module.parse_repository

    def parse_and_snapshot(*args, **kwargs):
        model = parse_repository(*args, **kwargs)
        parsed.append(_snapshot(model))
        return model

    monkeypatch.setattr(scan_module, "parse_repository", parse_and_snapshot)
    result = scan(ScanConfig(repo=os.path.join(FIXTURES, name)))
    assert parsed == [_snapshot(result.model)]
    assert not [sid for sid in result.model.statements if sid.startswith("external:")]


def test_external_nodes_belong_to_the_graph(el_repo):
    model, g, _ = parse_and_build(el_repo)
    externals = [sid for sid in g.nodes if sid.startswith("external:")]
    assert externals
    assert not set(externals) & set(model.statements)


# ------------------------------------------------------------ user sink index

SINK_REPO = {
    "p/Dao.java": """package p;
class Dao {
    String rawQuery(String q) {
        return q;
    }
    String rawQuery(String q, int limit) {
        return q;
    }
    static class Inner {
        String run(String cmd) {
            return cmd;
        }
    }
}
""",
    "q/Store.java": """package q;
class Store {
    String rawQuery(String q) {
        return q;
    }
    String run(String cmd) {
        return cmd;
    }
}
""",
    "p/Use.java": """package p;
class Use {
    String go(Dao d, Dao.Inner i, q.Store e, String s) {
        String a = d.rawQuery(s);
        String b = d.rawQuery(s, 3);
        String c = i.run(s);
        String x = e.rawQuery(s);
        String y = e.run(s);
        return a + b + c + x + y;
    }
}
""",
}

SINK_PATTERNS = [
    UserSinkSpec(pattern="Dao.rawQuery", cwe_id="CWE-89"),
    UserSinkSpec(pattern="rawQuery", cwe_id="CWE-89", arity=2),
    UserSinkSpec(pattern="p.Dao.rawQuery", cwe_id="CWE-89", arity=1),
    UserSinkSpec(pattern="Dao.Inner.run", cwe_id="CWE-78"),
    UserSinkSpec(pattern="p.Dao.Inner.run", cwe_id="CWE-78", arity=1),
    UserSinkSpec(pattern="Inner.run", cwe_id="CWE-78", arity=2),
    UserSinkSpec(pattern="run", cwe_id="CWE-78"),
    UserSinkSpec(pattern="Store.run", cwe_id="CWE-78", arity=1),
    UserSinkSpec(pattern="q.Dao.rawQuery", cwe_id="CWE-89"),
    UserSinkSpec(pattern="Nowhere.missing", cwe_id="CWE-89"),
]


def _brute_force_user_sinks(g, model, sinks):
    """(statement, pattern) pairs of every function any sink matches, over
    all functions as the scan did before functions were indexed by name."""
    found = set()
    for sink in sinks:
        for fid in sorted(model.functions):
            func = model.functions[fid]
            if not sink.matches_function(func):
                continue
            for e in g.in_edges(func.entry, CALL):
                src = g.nodes.get(e.src)
                if src is not None and not src.synthetic:
                    found.add((src.id, sink.pattern))
    return found


def test_user_sinks_match_as_the_brute_force_loop(tmp_path):
    model, g, diags = parse_and_build(write_repo(tmp_path, SINK_REPO))
    g = enhance(model, g, MockResolutionOracle(), diags).graph
    kb = load_starter_kb()
    base = {(i.statement, i.api) for i in find_sensitive_invocations(g, model, kb)}
    for sink in SINK_PATTERNS:
        got = {(i.statement, i.api) for i in find_sensitive_invocations(g, model, kb, [sink])} - base
        assert got == _brute_force_user_sinks(g, model, [sink]), sink.pattern
    invs = find_sensitive_invocations(g, model, kb, SINK_PATTERNS)
    got = {(i.statement, i.api) for i in invs if i.origin == "user_sink"}
    expected = _brute_force_user_sinks(g, model, SINK_PATTERNS)
    assert got == expected
    matched: dict[str, int] = {}
    for _, api in expected:
        matched[api] = matched.get(api, 0) + 1
    assert matched == {
        "Dao.rawQuery": 2,
        "rawQuery": 1,
        "p.Dao.rawQuery": 1,
        "Dao.Inner.run": 1,
        "p.Dao.Inner.run": 1,
        "run": 2,
        "Store.run": 1,
    }


def _baseline_repo(tmp_path, count):
    """`count` generated files across 5 packages, with a user sink on the
    `f0` of every third file's class."""
    files = {
        f"pkg{i % 5}/Gen{i}.java": f"package pkg{i % 5};\n"
        + random_summary_program(seed=9000 + i).replace("class Gen", f"class Gen{i}")
        for i in range(count)
    }
    sinks = [UserSinkSpec(pattern=f"Gen{i}.f0", cwe_id="CWE-94") for i in range(0, count, 3)]
    return write_repo(tmp_path, files), sinks


def _brute_force_invocations(g, model, kb, sinks):
    """The invocations as found by trying every user sink on every function."""
    found = {(inv.statement, inv.api): inv for inv in find_sensitive_invocations(g, model, kb)}
    for sink in sinks:
        for fid in sorted(model.functions):
            func = model.functions[fid]
            if not sink.matches_function(func):
                continue
            for e in g.in_edges(func.entry, CALL):
                src = g.nodes.get(e.src)
                if src is not None and not src.synthetic:
                    found.setdefault(
                        (src.id, sink.pattern),
                        SensitiveInvocation(src.id, sink.pattern, [sink.cwe_id], "user_sink"),
                    )
    return sorted(found.values(), key=lambda inv: (g.nodes[inv.statement].sort_key(), inv.api))


@pytest.mark.parametrize("recipe", ["baseline", "patterns"])
def test_user_sinks_are_looked_up_by_class_and_method_name(tmp_path, monkeypatch, recipe):
    if recipe == "baseline":
        root, sinks = _baseline_repo(tmp_path, 80)
    else:
        root, sinks = write_repo(tmp_path, SINK_REPO), SINK_PATTERNS
    model, g, diags = parse_and_build(root)
    g = enhance(model, g, MockResolutionOracle(), diags).graph
    kb = load_starter_kb()
    expected = _brute_force_invocations(g, model, kb, sinks)
    matching = sum(sink.matches_function(func) for sink in sinks for func in model.functions.values())

    calls = []
    real = UserSinkSpec.matches_function

    def matches_function(self, func):
        calls.append(func.id)
        return real(self, func)

    monkeypatch.setattr(UserSinkSpec, "matches_function", matches_function)
    assert find_sensitive_invocations(g, model, kb, sinks) == expected
    assert any(inv.origin == "user_sink" for inv in expected)
    if recipe == "baseline":
        # One call per function a sink matches: each class's own f0, not
        # every f0 in the repository.
        assert len(calls) == matching == len(sinks) == 27


# ------------------------------------------------------ skipped file = absent

# Each F declares a class the other files name and fields whose names they
# use, then breaks the subset in its last method body: parsed and merged, it
# would change call resolution, field scopes and definition lookups.
SKIPPED = {
    "el_template_validation": (
        "A_Shadow.java",
        """package com.example.validation;
public class MessageSanitizer {
    static final String PARAM_NAME = "shadow";
    static final String ESCAPE_CHARACTER = "";
    static String escape(String input) {
        return input + PARAM_NAME;
    }
    void broken() {
        Runnable r = () -> escape(ESCAPE_CHARACTER);
    }
}
""",
    ),
    "reflective_dispatch": (
        "A_Shadow.java",
        """package com.example.search;
public class PropertyClass {
    String query = "q";
    String type = "t";
    public String displayPlain(String input) {
        return input + query + type;
    }
    void broken() {
        Runnable r = () -> displayPlain(query);
    }
}
""",
    ),
    "dispatch": (
        "Z_Shadow.java",
        """package com.example.zoo;
class Dog extends Animal {
    int tag = 7;
    String id(int t) {
        return "shadow-" + tag;
    }
    String greet() {
        Runnable r = () -> id(tag);
        return "x";
    }
}
""",
    ),
}


def _outputs(repo, out_dir):
    result = scan(ScanConfig(repo=repo, out_dir=out_dir, dump_context=True))
    outputs = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            outputs[fname] = fh.read()
    report = json.loads(outputs.pop("report.json"))
    diagnostics = report.pop("diagnostics")
    return result.exit_code, diagnostics, report, outputs


@pytest.mark.parametrize("name", sorted(SKIPPED))
def test_a_skipped_file_is_as_if_absent(tmp_path, name):
    repo = copy_fixture_repo(tmp_path, name)
    fname, text = SKIPPED[name]
    path = os.path.join(repo, fname)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, diagnostics, report, outputs = _outputs(repo, str(tmp_path / "with"))
    assert code == 3
    assert [(d["severity"], d["path"]) for d in diagnostics if d["path"] == fname] == [("error", fname)]
    os.remove(path)
    code, diagnostics_without, report_without, outputs_without = _outputs(repo, str(tmp_path / "without"))
    assert code == 0
    assert [d for d in diagnostics if d["path"] != fname] == diagnostics_without
    assert report == report_without
    assert outputs == outputs_without
    assert "audit.jsonl" in outputs


# ---------------------------------------------- duplicate class names (fqn)

DUPLICATES = {
    "p/A.java": """package p;
class Box {
    String left = "l";
    String show(String x) {
        String y = x + left + right;
        return y;
    }
}
""",
    "p/B.java": """package p;
class Box {
    String right = "r";
    String show2(String x) {
        String z = x + right + left;
        return z;
    }
}
""",
}


def test_duplicate_fully_qualified_class_names(tmp_path):
    # The second file to declare `p.Box` is an error and is skipped: only the
    # first file's class, fields and methods are in the model.
    model, _, diags = parse_and_build(write_repo(tmp_path, DUPLICATES))
    assert [(d.severity, d.module, d.message, d.path, d.line) for d in diags.items] == [
        ("error", "frontend", "duplicate class p.Box: first declared in p/A.java", "p/B.java", 2)
    ]
    assert model.file_by_path("p/B.java") is None
    resolved = model.classes["p.Box"]
    assert resolved.file == "p/A.java" and [resolved.decl_statement] == model.file_by_path("p/A.java").classes
    assert model.resolve_class("Box") is resolved
    assert model.class_by_simple_name("Box") is resolved
    assert len(model.classes) == 1
    assert sorted(f.file for f in model.functions.values()) == ["p/A.java"]
    assert not [s for s in model.statements.values() if s.file == "p/B.java"]
    assert list(model.global_defs) == ["left"]

    # A statement of A.java brings A.java's package and class declarations,
    # and nothing of the skipped file.
    y = next(s for s in model.statements.values() if s.defs == {"y"})
    ctx = declaration_context([y.id], model)
    assert [(model.stmt(sid).file, model.stmt(sid).kind) for sid in ctx.statements] == [
        ("p/A.java", "package_decl"),
        ("p/A.java", "class_decl"),
    ]

    # The scan is the scan of A.java alone, plus the error (exit 3).
    repo = write_repo(tmp_path / "both", DUPLICATES)
    code, diagnostics, report, outputs = _outputs(repo, str(tmp_path / "with"))
    assert code == 3
    assert [(d["severity"], d["path"]) for d in diagnostics] == [("error", "p/B.java")]
    alone = write_repo(tmp_path / "alone", {"p/A.java": DUPLICATES["p/A.java"]})
    code, diagnostics_alone, report_alone, outputs_alone = _outputs(alone, str(tmp_path / "without"))
    assert code == 0 and diagnostics_alone == []
    report["repo"] = report_alone["repo"]
    assert report == report_alone
    assert outputs == outputs_alone


# -------------------------------------- one simple name in two packages

SAME_SIMPLE_NAME = {
    "p/Dao.java": """package p;
public class Dao {
    public String rawQuery(String s) {
        return s;
    }
}
""",
    "q/Dao.java": """package q;
public class Dao {
    public String rawQuery(String s) {
        String t = s.trim();
        return t;
    }
}
""",
    "p/Service.java": """package p;
class Service {
    String run(String s) {
        Dao d = new Dao();
        String r = d.rawQuery(s);
        return r;
    }
}
""",
    "r/Client.java": """package r;
import q.Dao;
class Cached extends Dao {
}
class Client {
    String run(Dao d, String s) {
        String r = d.rawQuery(s);
        return r;
    }
}
""",
}


def test_a_simple_name_resolves_in_the_callers_package_then_its_imports(tmp_path):
    repo = write_repo(tmp_path, SAME_SIMPLE_NAME)
    model, g, _ = parse_and_build(repo)
    assert model.resolve_class("Dao") is None  # ambiguous without a file
    assert model.resolve_class("Dao", "p/Service.java").name == "p.Dao"
    assert model.resolve_class("Dao", "r/Client.java").name == "q.Dao"
    assert model.resolve_class("q.Dao", "p/Service.java").name == "q.Dao"
    assert model.resolve_class("Service", "r/Client.java").name == "p.Service"  # the only one
    assert model.file_by_path("r/Client.java").imports == ["q.Dao"]
    assert ("r.Cached", "q.Dao") in model.hierarchy.edges

    entry = {f.class_name: f.entry for f in model.functions.values() if f.name == "rawQuery"}
    calls = {
        model.stmt(e.src).file: e.dst
        for e in g.edges
        if e.tau == CALL and model.statements.get(e.src) and "rawQuery" in model.stmt(e.src).code
    }
    assert calls == {"p/Service.java": entry["p.Dao"], "r/Client.java": entry["q.Dao"]}

    sinks = tmp_path / "sinks.json"
    sinks.write_text(json.dumps({"sinks": [{"function": "Dao.rawQuery", "cwe_id": "CWE-89"}]}))
    result = scan(ScanConfig(repo=repo, sink_path=str(sinks)))
    assert sorted((f.file, f.api, f.origin) for f in result.findings) == [
        ("p/Service.java", "Dao.rawQuery", "user_sink"),
        ("r/Client.java", "Dao.rawQuery", "user_sink"),
    ]
