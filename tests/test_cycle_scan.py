"""A scan of a repository whose classes inherit in cycles: each cycle costs
only the supertype clause that closes it.

Next to two fixture files, the repository holds generated classes K0 ... K3
whose `extends` and `implements` clauses name each other and the fixtures'
classes, so that cycles arise; a class may override `Animal.id`, which a
fixture calls polymorphically. The scan must exit 3 with one error per
cycle, naming the cycle at the declaration of the class whose clause
closes it, and its findings, context dumps and audit must be those of a
scan of the same repository with each closing clause deleted.
"""

import json
import os
import re
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path

from udgscan.harness.scan import EXIT_OK, EXIT_PARSE, ScanConfig, scan

KEPT = [
    os.path.join(fixture_path("dispatch"), "Zoo.java"),
    os.path.join(fixture_path("reflective_dispatch"), "PropertyClass.java"),
]
GENERATED = "Kin.java"
N = 4
SUPERTYPES = [f"K{i}" for i in range(N)] + ["Animal", "Dog", "PropertyClass"]
CLASSES = st.lists(
    st.tuples(st.lists(st.sampled_from(SUPERTYPES), unique=True, max_size=3), st.booleans()),
    min_size=N,
    max_size=N,
)
CYCLE = re.compile(r"^inheritance cycle through (.+)$")


def source(classes) -> str:
    """The generated file: class Ki extends the first of its supertypes and
    implements the rest, and overrides `id(int)` when asked to."""
    lines = ["package com.example.zoo;"]
    for i, (supers, overrides) in enumerate(classes):
        head = f"class K{i}"
        if supers:
            head += f" extends {supers[0]}"
        if supers[1:]:
            head += f" implements {', '.join(supers[1:])}"
        lines.append(head + " {")
        if overrides:
            lines += ["    String id(int tag) {", f'        return "k{i}-" + tag;', "    }"]
        lines.append("}")
    return "\n".join(lines) + "\n"


def declaration_line(text: str, name: str) -> int:
    return text[: re.search(rf"^class {name}\b", text, re.M).start()].count("\n") + 1


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cycles")
    os.makedirs(base / "repo")
    for path in KEPT:
        shutil.copy(path, base / "repo")
    return base


def scan_with(workdir, classes, name: str):
    """The scan of the kept files plus `classes`, into `workdir / name`,
    and its outputs, with only the findings of the report."""
    with open(workdir / "repo" / GENERATED, "w", encoding="utf-8") as fh:
        fh.write(source(classes))
    out = workdir / name
    shutil.rmtree(out, ignore_errors=True)
    result = scan(ScanConfig(repo=str(workdir / "repo"), out_dir=str(out), dump_context=True))
    found = {}
    for entry in sorted(os.listdir(out)):
        with open(out / entry, encoding="utf-8") as fh:
            found[entry] = fh.read()
    found["report.json"] = json.loads(found["report.json"])["findings"]
    return result, found


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(classes=CLASSES)
# K1's closing `extends K0` alone makes K1, which overrides `id`, a subtype of Animal.
@example(classes=[(["K1", "Animal"], False), (["K0"], True), (["K2"], True), (["Dog"], True)])
def test_a_cycle_costs_the_clause_that_closes_it(workdir, classes):
    result, got = scan_with(workdir, classes, "cyclic")
    text = source(classes)
    errors = [d for d in result.report["diagnostics"] if d["severity"] == "error"]
    closing = []
    for d in errors:
        cycle = [name.rsplit(".", 1)[1] for name in CYCLE.match(d["message"]).group(1).split(" -> ")]
        # A simple cycle of the classes' clauses, named at the class whose
        # clause closes it.
        assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
        assert all(sup in classes[int(sub[1:])][0] for sub, sup in zip(cycle, cycle[1:]))
        sub, sup = cycle[-2:]
        assert (d["module"], d["path"], d["line"]) == ("frontend", GENERATED, declaration_line(text, sub))
        closing.append((sub, sup))
    assert len(set(closing)) == len(closing)
    assert result.exit_code == (EXIT_PARSE if closing else EXIT_OK)
    assert "fatal" not in result.report

    pruned = [
        ([sup for sup in supers if (f"K{i}", sup) not in closing], overrides)
        for i, (supers, overrides) in enumerate(classes)
    ]
    expected, want = scan_with(workdir, pruned, "pruned")
    # The scan without the closing clauses meets no cycle.
    assert expected.exit_code == EXIT_OK
    assert result.model.hierarchy.edges == expected.model.hierarchy.edges
    assert got == want
    assert [d for d in result.report["diagnostics"] if d not in errors] == expected.report["diagnostics"]


def test_a_cycle_next_to_the_el_fixture_keeps_its_finding(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(fixture_path("el_template_validation"), repo)
    alone = scan(ScanConfig(repo=str(repo)))
    os.makedirs(repo / "p")
    (repo / "p" / "Cycle.java").write_text("package p;\nclass A extends B {}\nclass B extends A {}\n", encoding="utf-8")
    out = tmp_path / "out"
    result = scan(ScanConfig(repo=str(repo), out_dir=str(out)))
    assert result.exit_code == EXIT_PARSE
    assert len(result.findings) == 1
    assert result.report["findings"] == alone.report["findings"]
    errors = [d for d in result.report["diagnostics"] if d["severity"] == "error"]
    assert errors == [
        {
            "severity": "error",
            "module": "frontend",
            "message": "inheritance cycle through p.A -> p.B -> p.A",
            "path": "p/Cycle.java",
            "line": 3,
        }
    ]
    assert "fatal" not in result.report
    with open(out / "report.json", encoding="utf-8") as fh:
        assert json.load(fh) == result.report
    assert (out / "audit.jsonl").is_file()
