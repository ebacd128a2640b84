"""Golden diff: scan each fixture and compare its outputs byte for byte.

The files under `tests/golden/<fixture>/` are the mock-oracle scan outputs
(`report.json` with `repo` normalised to the fixture name, `audit.jsonl`,
the `.ctx.txt` context dumps and `udg.txt`) at the default token budget.
The files under `tests/golden/budget<N>/<fixture>/` are the outputs that
depend on the token budget (`report.json` and the context dumps) of a scan
at a budget tight enough to drop statements, for the fixtures that have a
sensitive invocation. The files under `tests/golden/corpus/` are the same
outputs for a generated corpus (`corpus_files`): seeded summary programs
across packages, whose call statements give the pruning pass argument edges
to remove, and one entry class per package that feeds their results to a
SQL sink; `tests/golden/budget40/corpus/` holds its budget-dependent
outputs at budget 40 (`CORPUS_BUDGET`), where the budget loop drops
statements from its contexts. Regenerate all of them after an intended
output change with

    PYTHONPATH=src python tests/test_golden.py --update
"""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from conftest import FIXTURES, write_repo  # noqa: E402

from udgscan.harness.generate import random_summary_program  # noqa: E402
from udgscan.harness.scan import ScanConfig, scan  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURE_NAMES = sorted(os.listdir(FIXTURES))
# 120 drops some droppable statements; at 60 every droppable statement goes
# and el_template_validation still exceeds the budget with what is protected.
TIGHT_BUDGETS = (120, 60)
# The fixtures with a sensitive invocation, the only ones the budget touches.
BUDGET_FIXTURES = ("el_template_validation", "reflective_dispatch")
CORPUS = "corpus"
CORPUS_SEEDS = (11, 12, 13, 14, 15, 16, 17, 18)
CORPUS_PACKAGES = 3
# Tight enough that the corpus's contexts lose statements to the budget.
CORPUS_BUDGET = 40


def corpus_files() -> dict[str, str]:
    """The generated corpus: one `random_summary_program` class per seed,
    spread over CORPUS_PACKAGES packages, and per package an entry class
    that passes each of its classes' `f0` result to `executeQuery`."""
    files: dict[str, str] = {}
    calls: dict[int, list[str]] = {pkg: [] for pkg in range(CORPUS_PACKAGES)}
    for i, seed in enumerate(CORPUS_SEEDS):
        pkg, cls = i % CORPUS_PACKAGES, f"Gen{i}"
        body = random_summary_program(seed, max_functions=8)
        arity = len(re.search(r"static int f0\(([^)]*)\)", body).group(1).split(","))
        files[f"pkg{pkg}/{cls}.java"] = f"package pkg{pkg};\n" + body.replace("class Gen {", f"class {cls} {{", 1)
        calls[pkg].append(f"{cls}.f0({', '.join('ab'[j % 2] for j in range(arity))})")
    for pkg, pkg_calls in calls.items():
        lines = [f"package pkg{pkg};", "import java.sql.Statement;", f"public class Entry{pkg} {{"]
        lines.append("    static void run(Statement st, int a, int b) {")
        for k, call in enumerate(pkg_calls):
            lines.append(f"        int r{k} = {call};")
            lines.append(f'        String q{k} = "SELECT v FROM t WHERE id = " + r{k};')
            lines.append(f"        st.executeQuery(q{k});")
        lines += ["    }", "}"]
        files[f"pkg{pkg}/Entry{pkg}.java"] = "\n".join(lines) + "\n"
    return files


def scan_outputs(
    name: str, out_dir: str, token_budget: int | None = None, repo: str | None = None
) -> dict[str, bytes]:
    """Scan one fixture (or the repository at `repo`, reported as `name`)
    into `out_dir`; return the golden-tracked files.

    With `token_budget` only the budget-dependent files are returned."""
    config = ScanConfig(
        repo=repo or os.path.join(FIXTURES, name),
        oracle_mode="mock",
        out_dir=out_dir,
        dump_context=True,
        dump_graph=True,
    )
    if token_budget is not None:
        config.token_budget = token_budget
    scan(config)
    outputs: dict[str, bytes] = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname == "udg.dot":
            continue
        if token_budget is not None and fname in ("audit.jsonl", "udg.txt"):
            continue
        with open(os.path.join(out_dir, fname), "rb") as fh:
            outputs[fname] = fh.read()
    report = json.loads(outputs["report.json"])
    report["repo"] = name
    outputs["report.json"] = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return outputs


def golden_dir(name: str, token_budget: int | None = None) -> str:
    if token_budget is None:
        return os.path.join(GOLDEN, name)
    return os.path.join(GOLDEN, f"budget{token_budget}", name)


def read_golden(root: str) -> dict[str, bytes]:
    outputs = {}
    for fname in sorted(os.listdir(root)):
        with open(os.path.join(root, fname), "rb") as fh:
            outputs[fname] = fh.read()
    return outputs


def assert_matches_golden(got: dict[str, bytes], root: str) -> None:
    want = read_golden(root)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{root}/{fname} differs from its golden copy"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_outputs_match_golden(name, tmp_path):
    assert_matches_golden(scan_outputs(name, str(tmp_path / "out")), golden_dir(name))


@pytest.mark.parametrize("budget", TIGHT_BUDGETS)
@pytest.mark.parametrize("name", BUDGET_FIXTURES)
def test_tight_budget_outputs_match_golden(name, budget, tmp_path):
    got = scan_outputs(name, str(tmp_path / "out"), budget)
    assert_matches_golden(got, golden_dir(name, budget))


def test_generated_corpus_outputs_match_golden(tmp_path):
    repo = write_repo(tmp_path, corpus_files())
    got = scan_outputs(CORPUS, str(tmp_path / "out"), repo=repo)
    assert_matches_golden(got, golden_dir(CORPUS))


def test_generated_corpus_tight_budget_outputs_match_golden(tmp_path):
    repo = write_repo(tmp_path, corpus_files())
    got = scan_outputs(CORPUS, str(tmp_path / "out"), CORPUS_BUDGET, repo)
    assert_matches_golden(got, golden_dir(CORPUS, CORPUS_BUDGET))
    # A context that lost statements renders fewer lines than at the default budget.
    full = read_golden(golden_dir(CORPUS))
    assert any(data != full[fname] for fname, data in got.items() if fname.endswith(".ctx.txt"))


def update() -> None:
    import pathlib
    import shutil
    import tempfile

    runs = [(name, None, None) for name in FIXTURE_NAMES]
    runs += [(name, budget, None) for name in BUDGET_FIXTURES for budget in TIGHT_BUDGETS]
    runs.append((CORPUS, None, corpus_files()))
    runs.append((CORPUS, CORPUS_BUDGET, corpus_files()))
    for name, budget, files in runs:
        with tempfile.TemporaryDirectory() as tmp:
            repo = write_repo(pathlib.Path(tmp), files) if files else None
            outputs = scan_outputs(name, os.path.join(tmp, "out"), budget, repo)
        dest = golden_dir(name, budget)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for fname, data in outputs.items():
            with open(os.path.join(dest, fname), "wb") as fh:
                fh.write(data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    update()
