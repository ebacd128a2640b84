"""Nesting past the parser's cap is a per-file subset violation, not a crash."""

import pytest

from conftest import write_repo

from udgscan.frontend.parser import MAX_NESTING
from udgscan.harness.scan import EXIT_OK, EXIT_PARSE, ScanConfig, scan

APP = "package p;\nclass App {\n    void run(String cmd) {\n        Runtime.getRuntime().exec(cmd);\n    }\n}\n"
BODY_LINE = 4  # the line of the first statement of `Deep.f`
INNER = "x = x + 1;"

# How each construct wraps a statement `s` one level deeper, a line per level.
WRAP = {
    "if": "if (x > {i})\n{s}",
    "while": "while (x > {i})\n{s}",
    "for": "for (int i{i} = 0; i{i} < x; i{i}++)\n{s}",
    "do": "do\n{s}\nwhile (x > {i});",
    "try": "try {{\n{s}\n}} catch (Exception e{i}) {{\nx = 0;\n}}",
    "switch": "switch (x) {{\ncase {i}:\n{s}\nbreak;\ndefault:\nx = 1;\n}}",
    "labeled": "l{i}:\n{s}",
    "block": "{{\n{s}\n}}",
}


def nested(kind: str, depth: int, inner: str = INNER) -> str:
    """Statements whose innermost, `inner`, is `depth` statements deep."""
    body = inner
    for i in range(depth - 1):
        body = WRAP[kind].format(i=i, s=body)
    return body


def nested_calls(depth: int) -> str:
    """A statement whose innermost argument is `depth` levels deep, counting
    the statement as the first."""
    return "x =\n" + "g(\n" * (depth - 1) + "x" + ")" * (depth - 1) + ";"


def deep_file(body: str) -> str:
    return (
        "package p;\nclass Deep {\n    int f(int x) {\n"
        + body
        + "\n        return x;\n    }\n    int g(int v) {\n        return v;\n    }\n}\n"
    )


def scan_repo(tmp_path, body: str):
    root = write_repo(tmp_path, {"App.java": APP, "Deep.java": deep_file(body)})
    return scan(ScanConfig(repo=root, oracle_mode="mock"))


@pytest.mark.parametrize("body", [nested("if", 400), nested_calls(300)], ids=["ifs", "calls"])
def test_nesting_past_the_cap_skips_only_that_file(tmp_path, body):
    result = scan_repo(tmp_path, body)
    assert result.exit_code == EXIT_PARSE
    assert result.report["stats"]["files"] == 1
    assert [(f.file, f.cwe) for f in result.findings] == [("App.java", "CWE-78")]
    errors = [(d["path"], d["line"], d["message"]) for d in result.report["diagnostics"]]
    # Reported where the first level past the cap starts.
    assert errors == [("Deep.java", BODY_LINE + MAX_NESTING, f"subset violation: nesting deeper than {MAX_NESTING}")]


@pytest.mark.parametrize("kind", sorted(WRAP))
def test_nesting_at_the_cap_scans_end_to_end(tmp_path, kind):
    result = scan_repo(tmp_path, nested(kind, MAX_NESTING))
    assert result.exit_code == EXIT_OK
    assert result.report["stats"]["files"] == 2
    assert result.report["diagnostics"] == []
    assert any(s.text == INNER for s in result.model.statements.values())


@pytest.mark.parametrize("kind", sorted(WRAP))
def test_one_level_past_the_cap_is_a_subset_violation(tmp_path, kind):
    result = scan_repo(tmp_path, nested(kind, MAX_NESTING + 1))
    assert result.exit_code == EXIT_PARSE
    assert [d["message"] for d in result.report["diagnostics"]] == [
        f"subset violation: nesting deeper than {MAX_NESTING}"
    ]


def test_call_arguments_at_the_cap_scan_end_to_end(tmp_path):
    result = scan_repo(tmp_path, nested_calls(MAX_NESTING))
    assert result.exit_code == EXIT_OK
    assert result.report["stats"]["files"] == 2


@pytest.mark.parametrize("statements, arguments", [(50, 51), (100, 100)])
def test_statements_and_arguments_count_together(tmp_path, statements, arguments):
    # `try` costs the parser the most stack per level; its deepest statement
    # holds the deepest arguments.
    body = nested("try", statements, inner=nested_calls(arguments))
    result = scan_repo(tmp_path, body)
    if statements + arguments - 1 <= MAX_NESTING:
        assert result.exit_code == EXIT_OK
    else:
        assert result.exit_code == EXIT_PARSE
        assert result.report["stats"]["files"] == 1
