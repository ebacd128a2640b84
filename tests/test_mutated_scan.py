"""A scan of a repository with one mutated file never raises.

The repository holds two fixture files. One of them is mutated: tokens
deleted, duplicated or swapped, CRLF line ends, a byte order mark, NUL
characters, or statements nested one level past the parser's cap. The scan
must finish with exit code 0 or 3, every subset violation must name the
mutated file and a line, and when it skips the mutated file its outputs,
diagnostics apart, must be those of a scan without that file.
"""

import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path

from udgscan.errors import SubsetViolation
from udgscan.frontend.lexer import tokenize
from udgscan.frontend.parser import MAX_NESTING
from udgscan.harness.scan import EXIT_OK, EXIT_PARSE, ScanConfig, scan

KEPT = os.path.join(fixture_path("reflective_dispatch"), "PropertyClass.java")
MUTATED = "TemplateValidator.java"
with open(os.path.join(fixture_path("el_template_validation"), MUTATED), encoding="utf-8") as fh:
    ORIGINAL = fh.read()
# Where a statement may start: just inside the body of `isValid`.
BODY_START = ORIGINAL.index("context) {") + len("context) {")
TOO_DEEP = "{" * MAX_NESTING + "escaped = value;" + "}" * MAX_NESTING

_index = st.integers(min_value=0, max_value=10_000)
MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), _index),
    st.tuples(st.just("duplicate"), _index),
    st.tuples(st.just("swap"), _index, _index),
    st.tuples(st.just("nul"), _index),
    st.tuples(st.sampled_from(["crlf", "bom", "too_deep"])),
)


def mutate(text: str, ops) -> str:
    for op, *at in ops:
        if op == "crlf":
            text = text.replace("\n", "\r\n")
        elif op == "bom":
            text = "\ufeff" + text
        elif op == "too_deep":
            text = text[:BODY_START] + TOO_DEEP + text[BODY_START:]
        else:
            try:
                tokens = tokenize(text, MUTATED)
            except SubsetViolation:
                continue
            if not tokens:
                continue
            a, b = (tokens[i % len(tokens)] for i in (at * 2)[:2])
            if op == "delete":
                text = text[: a.start] + text[a.end :]
            elif op == "duplicate":
                text = text[: a.end] + " " + a.text + text[a.end :]
            elif op == "nul":
                text = text[: a.start] + "\x00" + text[a.start :]
            elif a.end <= b.start:  # swap
                text = text[: a.start] + b.text + text[a.end : b.start] + a.text + text[b.end :]
            elif b.end <= a.start:
                text = text[: b.start] + a.text + text[b.end : a.start] + b.text + text[a.end :]
    return text


def outputs(out_dir: str) -> dict:
    """Every output file, with the report's diagnostics left out."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            found[name] = fh.read()
    report = json.loads(found.pop("report.json"))
    del report["diagnostics"]
    found["report.json"] = report
    return found


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A repository holding only the kept file, and its scan's outputs."""
    base = tmp_path_factory.mktemp("mutated")
    os.makedirs(base / "repo")
    shutil.copy(KEPT, base / "repo")
    result = scan(ScanConfig(repo=str(base / "repo"), out_dir=str(base / "alone"), dump_context=True))
    assert result.exit_code == EXIT_OK
    return base


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(ops=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_scan_with_a_mutated_file(workdir, ops):
    repo, out = str(workdir / "repo"), str(workdir / "out")
    with open(os.path.join(repo, MUTATED), "w", encoding="utf-8", newline="") as fh:
        fh.write(mutate(ORIGINAL, ops))
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = scan(ScanConfig(repo=repo, out_dir=out, dump_context=True))
    finally:
        os.remove(os.path.join(repo, MUTATED))
    assert result.exit_code in (EXIT_OK, EXIT_PARSE)
    for d in result.report["diagnostics"]:
        assert "internal error" not in d["message"]
        if d["message"].startswith("subset violation"):
            assert (d["path"], d["line"] >= 1) == (MUTATED, True), d
    if result.model is not None and MUTATED not in [f.path for f in result.model.files]:
        assert outputs(out) == outputs(str(workdir / "alone"))
