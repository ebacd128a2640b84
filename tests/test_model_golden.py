"""Model golden: a canonical dump of what `parse_repository` builds.

The dump holds every field of every statement node (with its call sites),
function, class and global, each file's declarations, classes, trivia lines,
imports and package, the structured statement forms of each body and the
diagnostics, with every set sorted.  It judges fields that no report shows,
so a wrong offset or use set cannot hide behind an unchanged `report.json`.

The repositories are the four fixtures, the three benchmark workloads at
seed 101, `random_summary_program` with each of its options and the shapes
of `tests/support/shapes.py`.  Each one's dump must equal the file under
`tests/golden/model/`.  A change that alters the model on purpose says so
and regenerates them with

    PYTHONPATH=src python tests/test_model_golden.py --update
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TESTS)
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "bench"))

from conftest import FIXTURES, write_repo  # noqa: E402
from support import shapes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from udgscan.errors import DiagnosticSink  # noqa: E402
from udgscan.frontend.model import CallSite, ClassDecl, FunctionDecl, GlobalDecl, StatementNode  # noqa: E402
from udgscan.frontend.parser import parse_repository  # noqa: E402
from udgscan.harness.generate import random_summary_program  # noqa: E402

GOLDEN = os.path.join(TESTS, "golden", "model")
BENCH_SEED = 101
SUMMARY_SEEDS = (1, 2, 3, 4, 5, 6)
SUMMARY_OPTIONS = {"plain": {}, "mixed_uses": {"mixed_uses": True}, "multi_declarators": {"multi_declarators": True}}
SHAPE_SIZE = 5


def summary_files(options: dict) -> dict[str, str]:
    """One `random_summary_program` class per seed, over two packages."""
    files = {}
    for i, seed in enumerate(SUMMARY_SEEDS):
        body = random_summary_program(seed, **options).replace("class Gen {", f"class Gen{i} {{", 1)
        files[f"pkg{i % 2}/Gen{i}.java"] = f"package pkg{i % 2};\n" + body
    return files


def shape_files() -> dict[str, str]:
    files = {}
    for make in (shapes.extends_chain, shapes.alias_group, shapes.override_chain, shapes.conditional_redefinitions):
        for path, text in make(SHAPE_SIZE).items():
            files[f"{make.__name__}/{path}"] = text
    return files


# Each case: its name and the files of its repository (None: the fixture of that name).
CASES = {name: None for name in sorted(os.listdir(FIXTURES))}
CASES.update({f"bench-{name}": (lambda name=name: WORKLOADS[name](BENCH_SEED).files) for name in sorted(WORKLOADS)})
CASES.update({f"summary-{name}": (lambda opts=opts: summary_files(opts)) for name, opts in SUMMARY_OPTIONS.items()})
CASES["shapes"] = shape_files


def _form(stmt):
    """A structured statement form as [its type, its fields...], nested."""
    if isinstance(stmt, tuple) and hasattr(stmt, "_fields"):
        return [type(stmt).__name__, *(_form(v) for v in stmt)]
    if isinstance(stmt, (list, tuple)):
        return [_form(v) for v in stmt]
    return stmt


# The fields each record of the dump lists, in this order.
FIELDS = {
    "files": ("path", "package", "imports", "declarations", "classes", "trivia"),
    "statements": (
        "id", "file", "start_line", "end_line", "kind", "text", "owner",
        "defs", "uses", "outside_uses", "calls", "allocates", "code", "synthetic",
    ),
    "calls": ("chain", "name", "arity", "receiver", "receiver_type", "arg_vars", "is_constructor"),
    "functions": (
        "id", "class_name", "name", "param_types", "params", "body", "entry", "exit",
        "is_abstract", "var_types", "sig_line", "file",
    ),
    "classes": ("name", "simple_name", "supertypes", "methods", "decl_statement", "enclosing", "file"),
    "globals": ("statement", "variable", "rhs_uses", "class_name", "declared_type"),
}


def _value(v):
    """A field's value as JSON holds it: a set sorted, a dict as its item
    pairs in order, a call site as its FIELDS, a list of flags (a file's
    trivia lines) as a string."""
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    if isinstance(v, dict):
        return [list(item) for item in v.items()]
    if isinstance(v, list):
        if v and isinstance(v[0], bool):
            return "".join("t" if t else "." for t in v)
        return [_value(x) for x in v]
    if isinstance(v, CallSite):
        return _record("calls", v)
    return v


def _record(section: str, obj) -> list:
    return [_value(getattr(obj, name)) for name in FIELDS[section]]


def model_dump(root: str) -> dict:
    """The canonical dump of the model `parse_repository` builds for `root`:
    per section, its records in the model's order."""
    diags = DiagnosticSink()
    model = parse_repository(root, diags)
    return {
        "files": [_record("files", f) for f in model.files],
        "statements": [_record("statements", s) for s in model.statements.values()],
        "functions": [_record("functions", f) for f in model.functions.values()],
        "classes": [_record("classes", c) for c in model.classes.values()],
        "globals": [_record("globals", g) for g in model.globals],
        "bodies": [[fid, _form(body)] for fid, body in model.bodies.items()],
        "diagnostics": diags.as_dicts(),
    }


def case_dump(name: str, work: Path) -> str:
    """The dump of case `name`, one record a line, each line its section's
    name and the record as compact JSON."""
    make = CASES[name]
    root = os.path.join(FIXTURES, name) if make is None else write_repo(work, make())
    return "".join(
        f"{section} {json.dumps(record, separators=(',', ':'), sort_keys=True)}\n"
        for section, records in model_dump(root).items()
        for record in records
    )


def test_the_dump_lists_every_field_of_the_records():
    records = {
        "statements": StatementNode,
        "calls": CallSite,
        "functions": FunctionDecl,
        "classes": ClassDecl,
        "globals": GlobalDecl,
    }
    for section, record in records.items():
        assert sorted(FIELDS[section]) == sorted(record._fields), section


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_matches_its_golden(name, tmp_path):
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert case_dump(name, tmp_path) == want, f"the model of {name} differs from tests/golden/model/{name}.txt"


def update() -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            dump = case_dump(name, Path(work))
        with open(os.path.join(GOLDEN, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(dump)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_model_golden.py --update")
    update()
