"""The notes each command prints or reports, pinned line by line: eval's
dataset and metrics warnings, the knowledge base's duplicate-API warning
among a scan's diagnostics (also of a scan that stops early), and rename's
collision lines."""

import importlib.resources
import json

from conftest import write_repo

from udgscan.errors import ClientTransportError
from udgscan.harness.cli import main
from udgscan.harness.scan import EXIT_ORACLE, EXIT_PARSE, ScanConfig, scan
from udgscan.jsonio import decode


def _dataset(tmp_path, pairs: dict[str, tuple[str, str]]) -> str:
    lines = []
    for pid, (vuln, patched) in pairs.items():
        for variant, text in (("vulnerable", vuln), ("patched", patched)):
            (tmp_path / pid / variant).mkdir(parents=True)
            (tmp_path / pid / variant / "App.java").write_text(text, encoding="utf-8")
        lines.append(json.dumps({"id": pid, "vulnerable": f"{pid}/vulnerable", "patched": f"{pid}/patched"}))
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


QUIET = """package p;
class App {
    int step(int x) {
        return x + 1;
    }
}
"""


def test_eval_prints_dataset_then_metrics_warnings(tmp_path, capsys):
    # pair2 repeats pair1, so both its variants duplicate; no variant calls
    # a sensitive API, so every verdict is negative.
    patched = QUIET.replace("x + 1", "x + 2")
    dataset = _dataset(tmp_path, {"pair1": (QUIET, patched), "pair2": (QUIET, patched)})
    assert main(["eval", "--dataset", dataset, "--oracle", "mock"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "[warning] dataset: pair pair2: variant duplicates pair1, pair skipped\n"
        "[warning] dataset: pair pair2: variant duplicates pair1, pair skipped\n"
        "[warning] metrics: precision: no positive predictions\n"
        "[warning] metrics: f1: degenerate precision/recall\n"
    )
    assert json.loads(captured.out)["pairs"] == 1


class _Unparseable:
    def complete(self, prompt: str, site: str = "") -> str:
        return "no json here"


class _Unreachable:
    def complete(self, prompt: str, site: str = "") -> str:
        raise ClientTransportError("connection refused")


def _duplicate_kb(tmp_path) -> str:
    """The starter knowledge base with its first API listed twice."""
    starter = decode(importlib.resources.files("udgscan.knowledge").joinpath("data/starter_kb.json").read_bytes())
    starter["apis"].append(dict(starter["apis"][0]))
    kb = tmp_path / "kb.json"
    kb.write_text(json.dumps(starter), encoding="utf-8")
    return str(kb)


def test_a_duplicate_kb_api_is_noted_after_the_enhancement_notes(tmp_path):
    repo = write_repo(
        tmp_path,
        {
            "p/A.java": """package p;
class Shape {
    int area() {
        return 0;
    }
}
class Square extends Shape {
    int area() {
        return 1;
    }
}
class Outside extends Missing {
}
class App {
    int run(Shape s, String cmd) {
        Runtime.getRuntime().exec(cmd);
        return s.area();
    }
}
""",
            "p/B.java": "package p;\nclass B {\n    void f( }\n",
        },
    )
    out = tmp_path / "out"
    scan(ScanConfig(repo=repo, kb_path=_duplicate_kb(tmp_path), out_dir=str(out)), resolution_oracle=_Unparseable())
    with open(out / "report.json", encoding="utf-8") as fh:
        diagnostics = json.load(fh)["diagnostics"]
    notes = [(d["severity"], d["module"], d["path"]) for d in diagnostics]
    assert notes == [
        ("error", "frontend", "p/B.java"),
        ("info", "frontend", "p/A.java"),
        ("warning", "enhance", "p/A.java"),
        ("warning", "knowledge", ""),
    ]
    assert diagnostics[-1]["message"] == "duplicate api java.lang.Runtime.exec: entries merged"


def test_a_scan_with_a_hierarchy_cycle_keeps_the_knowledge_notes(tmp_path, capsys):
    """A cycle is a frontend error like any other: the scan goes on, and the
    knowledge base's notes follow it, as they follow every frontend note."""
    repo = write_repo(tmp_path, {"p/A.java": "package p;\nclass A extends B {}\nclass B extends A {}\n"})
    assert main(["scan", "--repo", repo, "--kb", _duplicate_kb(tmp_path), "--oracle", "mock"]) == EXIT_PARSE
    report = json.loads(capsys.readouterr().out)
    notes = [(d["severity"], d["module"]) for d in report["diagnostics"]]
    assert notes == [("error", "frontend"), ("warning", "knowledge")]
    assert "fatal" not in report


def test_a_scan_stopped_by_an_oracle_failure_keeps_the_knowledge_notes(tmp_path):
    repo = write_repo(
        tmp_path,
        {
            "p/A.java": """package p;
class Shape {
    int area() {
        return 0;
    }
}
class Square extends Shape {
    int area() {
        return 1;
    }
}
class App {
    int run(Shape s) {
        return s.area();
    }
}
"""
        },
    )
    result = scan(ScanConfig(repo=repo, kb_path=_duplicate_kb(tmp_path)), resolution_oracle=_Unreachable())
    assert result.exit_code == EXIT_ORACLE
    notes = [(d["severity"], d["module"]) for d in result.report["diagnostics"]]
    assert notes == [("warning", "knowledge"), ("error", "enhance")]


def test_rename_prints_each_collision(tmp_path, capsys):
    repo = write_repo(
        tmp_path,
        {
            "p/A.java": """package p;
class A {
    int x;
    int non_vulnerable_x;
    int f(int y) {
        return y;
    }
}
"""
        },
    )
    assert main(["rename", "--repo", repo, "--label", "vulnerable", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "[info] rename: collision: non_vulnerable_x taken, using non_vulnerable_x_2\n"
    )
