import importlib
import json
import os
import subprocess
import sys

import pytest

from conftest import write_repo

from udgscan.errors import ConfigError
from udgscan.harness.cli import main
from udgscan.harness.scan import CONFIG_FIELDS, EXIT_CONFIG, EXIT_OK, EXIT_PARSE, ScanConfig, scan
from udgscan.reasoning.clients import MockInferenceClient

NO = json.dumps({"explanation": "sanitized upstream", "is_vulnerable": False})
YES = json.dumps({"explanation": "tainted path reaches sink", "is_vulnerable": True})


def test_scan_el_fixture_mock_false_votes(el_repo):
    config = ScanConfig(repo=el_repo, oracle_mode="mock", n_rounds=3)
    result = scan(config, inference_client=MockInferenceClient(script=[NO, NO, NO]))
    assert result.exit_code == EXIT_OK
    assert len(result.findings) == 1
    f = result.findings[0]
    assert f.cwe == "CWE-74" and f.verdict == "not_vulnerable"
    assert f.confidence == 1.0


def test_scan_reflective_fixture_context_includes_callee(reflect_repo):
    config = ScanConfig(repo=reflect_repo, oracle_mode="mock")
    result = scan(config)
    # The reflective invocation is a CWE-470 unit; its context must include
    # the resolved callee body region.
    assert any(f.cwe == "CWE-470" for f in result.findings)
    inv_id = next(iter(result.contexts))
    ctx = result.contexts[inv_id]
    lines = set(ctx.rendered_lines["PropertyClass.java"])
    assert set(range(30, 39)) <= lines


def test_scan_empty_repo(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    config = ScanConfig(repo=str(root))
    result = scan(config)
    assert result.exit_code == EXIT_OK
    assert result.findings == []


def test_scan_subset_violation_exit_code(tmp_path):
    bad = "package p;\nclass L {\n    void m() {\n        Runnable r = () -> go();\n    }\n}\n"
    root = write_repo(tmp_path, {"Bad.java": bad})
    result = scan(ScanConfig(repo=str(root)))
    assert result.exit_code == EXIT_PARSE


def test_scan_outputs_written(el_repo, tmp_path):
    out = tmp_path / "out"
    config = ScanConfig(
        repo=el_repo,
        out_dir=str(out),
        dump_context=True,
        dump_graph=True,
        transcript_dir=str(tmp_path / "transcripts"),
    )
    result = scan(config)
    assert (out / "report.json").exists()
    assert (out / "udg.txt").exists()
    assert (out / "udg.dot").exists()
    assert (out / "audit.jsonl").exists()
    ctx_files = list(out.glob("*.ctx.txt"))
    assert len(ctx_files) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["findings"][0]["context_file"] == ctx_files[0].name
    assert (tmp_path / "transcripts" / "inference.jsonl").exists()


QUERY = """%s
import java.sql.Statement;
class A {
    void m(Statement st, String q) throws Exception {
        st.executeQuery(q);
    }
}
"""


def test_invocations_whose_names_sanitize_alike_keep_their_own_outputs(tmp_path):
    """`p/A.java` and `p_A.java` give one sanitized name; the later
    invocation's finding id and context dump take a suffix."""
    root = write_repo(tmp_path, {"p/A.java": QUERY % "package p;", "p_A.java": QUERY % "import java.util.List;"})
    out = tmp_path / "out"
    result = scan(ScanConfig(repo=root, out_dir=str(out), dump_context=True))
    assert [f.file for f in result.findings] == ["p/A.java", "p_A.java"]
    ids = [f.finding_id for f in result.findings]
    assert len(set(ids)) == 2 and ids[1] == ids[0].replace("::", "~2::", 1)
    dumps = [f.context_file for f in result.findings]
    assert len(set(dumps)) == 2 and sorted(p.name for p in out.glob("*.ctx.txt")) == sorted(dumps)
    for finding, dump in zip(result.findings, dumps):
        assert f"// file: {finding.file}\n" in (out / dump).read_text()
    report = json.loads((out / "report.json").read_text())
    assert [f["id"] for f in report["findings"]] == ids


def test_two_findings_of_one_statement_and_cwe_keep_their_own_ids(tmp_path):
    """Two APIs with one CWE at one statement: the later finding, in report
    order, takes the suffix a dump name would."""
    src = (
        "package p;\nimport java.sql.Statement;\nclass A {\n"
        "    void run(Statement st, String q) throws Exception {\n"
        "        int n = st.executeUpdate(q) + st.executeQuery(q).getRow();\n    }\n}\n"
    )
    result = scan(ScanConfig(repo=write_repo(tmp_path, {"A.java": src}), dump_context=True))
    assert [(f.api, f.finding_id) for f in result.findings] == [
        ("java.sql.Statement.executeQuery", "A.java_s6::CWE-89"),
        ("java.sql.Statement.executeUpdate", "A.java_s6::CWE-89~2"),
    ]
    assert [f["id"] for f in result.report["findings"]] == ["A.java_s6::CWE-89", "A.java_s6::CWE-89~2"]
    assert len({f.context_file for f in result.findings}) == 2


def test_an_annotated_controller_parameter_reaches_its_sink(tmp_path):
    """A Spring-style handler: the annotated parameter no longer makes the
    file a subset violation, so its command sink is found."""
    src = (
        "package web;\nclass CommandController {\n"
        '    @RequestMapping("/run")\n'
        '    String run(@RequestParam("cmd") String cmd) throws Exception {\n'
        "        Runtime.getRuntime().exec(cmd);\n"
        '        return "ok";\n    }\n}\n'
    )
    result = scan(ScanConfig(repo=write_repo(tmp_path, {"web/CommandController.java": src}), oracle_mode="mock"))
    assert (result.exit_code, result.report["stats"]["files"]) == (EXIT_OK, 1)
    assert [(f.api, f.cwe, f.line) for f in result.findings] == [("java.lang.Runtime.exec", "CWE-78", 5)]


def test_scan_determinism_replay(el_repo, tmp_path):
    transcripts = tmp_path / "t"
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    config = ScanConfig(
        repo=el_repo, oracle_mode="mock", transcript_dir=str(transcripts), out_dir=str(out1), dump_context=True
    )
    scan(config)
    replay1 = ScanConfig(
        repo=el_repo, oracle_mode="replay", transcript_dir=str(transcripts), out_dir=str(out2), dump_context=True
    )
    r1 = scan(replay1)
    out3 = tmp_path / "o3"
    replay2 = ScanConfig(
        repo=el_repo, oracle_mode="replay", transcript_dir=str(transcripts), out_dir=str(out3), dump_context=True
    )
    r2 = scan(replay2)
    assert (out2 / "report.json").read_bytes() == (out3 / "report.json").read_bytes()
    assert r1.report == r2.report


def test_config_validation():
    with pytest.raises(Exception):
        ScanConfig(repo="", n_rounds=3).validate()
    with pytest.raises(Exception):
        ScanConfig(repo=".", n_rounds=2).validate()
    with pytest.raises(Exception):
        ScanConfig(repo=".", oracle_mode="replay").validate()
    # The only field a config file cannot set under `scan`'s required flag.
    with pytest.raises(ConfigError, match="repo must be a string"):
        ScanConfig(repo=5).validate()


@pytest.mark.parametrize(
    "values",
    [{"hop_limit": "3"}, {"n_rounds": 3.0}, {"token_budget": "140"}, {"token_budget": -5}, {"jobs": True}],
)
def test_config_file_integers_are_checked(tmp_path, el_repo, capsys, values):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(values), encoding="utf-8")
    assert main(["scan", "--repo", el_repo, "--config", str(cfg)]) == EXIT_CONFIG
    (name,) = values
    assert capsys.readouterr().err.startswith(f"error: {name} must be an integer >= ")


# A value of the wrong type for each kind of setting in `CONFIG_FIELDS`.
WRONG_TYPE = {"int": "3", "int | None": "x", "float": "hot", "bool": "yes", "str": 5, "str | None": 5}


@pytest.mark.parametrize("field", [f for f in CONFIG_FIELDS if f[0] != "repo"], ids=lambda f: f[0])
def test_config_file_values_are_checked_by_type(tmp_path, el_repo, capsys, field):
    name, _, kind = field
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({name: WRONG_TYPE[kind]}), encoding="utf-8")
    assert main(["scan", "--repo", el_repo, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_config_file_temperature_must_be_finite(tmp_path, el_repo, capsys, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(f'{{"temperature": {value}}}', encoding="utf-8")
    assert main(["scan", "--repo", el_repo, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: temperature must be a finite number\n"
    assert "Traceback" not in err


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _replay_dir(tmp_path, resolution):
    _write(tmp_path / "resolution.jsonl", resolution)
    _write(tmp_path / "inference.jsonl", "")
    return ["--oracle", "replay", "--transcript", str(tmp_path)]


@pytest.mark.parametrize(
    "args, named",
    [
        (lambda tmp: ["--config", str(tmp / "missing.json")], "missing.json"),
        (lambda tmp: ["--config", str(_write(tmp / "c.json", "[1, 2]"))], "c.json"),
        (lambda tmp: ["--config", str(_write(tmp / "c.json", '{"out_dir": 5}'))], "out_dir must be a path"),
        (lambda tmp: ["--kb", str(tmp / "missing.json")], "missing.json"),
        (lambda tmp: ["--kb", str(_write(tmp / "kb.json", '{"guidelines":[5],"apis":[]}'))], "kb.guidelines[0]"),
        (lambda tmp: ["--sink", str(tmp / "missing.json")], "missing.json"),
        (lambda tmp: ["--sink", str(_write(tmp / "s.json", '"sinks"'))], "s.json"),
        (
            lambda tmp: ["--sink", str(_write(tmp / "s.json", '{"sinks":[{"function":"X.y","cwe_id":"CWE-999"}]}'))],
            "sinks[0]: CWE-999 has no guideline and no inline override",
        ),
        (
            lambda tmp: [
                "--sink",
                str(_write(tmp / "s.json", '{"sinks":[{"function":"Dao.rawQuery","cwe_id":"CWE-89","arity":"2"}]}')),
            ],
            "sinks[0].arity: arity must be a non-negative integer",
        ),
        (
            lambda tmp: [
                "--sink",
                str(
                    _write(
                        tmp / "s.json",
                        '{"sinks":[{"function":"X.y","cwe_id":"CWE-999","guideline":'
                        '{"title":"t","vuln_patterns":" ","defense_knowledge":"d"}}]}',
                    )
                ),
            ],
            "sinks[0].guideline: guideline text blocks must be non-empty",
        ),
        (lambda tmp: _replay_dir(tmp, "not json\n"), "resolution.jsonl:1"),
        (lambda tmp: _replay_dir(tmp, '{"site": "a", "prompt": "p", "response": "r"}\n[]\n'), "resolution.jsonl:2"),
    ],
    ids=[
        "config-missing",
        "config-list",
        "config-path-not-a-string",
        "kb-missing",
        "kb-guideline-not-an-object",
        "sink-missing",
        "sink-string",
        "sink-cwe-without-guideline",
        "sink-arity-a-string",
        "sink-guideline-text-blank",
        "transcript-line-not-json",
        "transcript-line-not-an-object",
    ],
)
def test_malformed_json_inputs_are_config_errors(tmp_path, el_repo, capsys, monkeypatch, args, named):
    scan_module = importlib.import_module("udgscan.harness.scan")

    def parse_repository(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(scan_module, "parse_repository", parse_repository)
    assert main(["scan", "--repo", el_repo, *args(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


# What each fault leaves where a document should be (None: no file).
DOCUMENT_FAULTS = {
    "missing": None,
    "not UTF-8": b'{"a": "\xff"}\n',
    "not JSON": b"{not json\n",
    "nested too deep": b"[" * 100_000 + b"]" * 100_000 + b"\n",
    "not an object": b"5\n",
}


def _reading(kind, tmp_path, repo):
    """The CLI arguments under which `udgscan` reads a document of `kind`,
    and where that document is."""
    if kind in ("config", "kb", "sink"):
        path = tmp_path / f"{kind}.json"
        return ["scan", "--repo", repo, f"--{kind}", str(path)], path
    if kind == "dataset":
        path = tmp_path / "data.jsonl"
        return ["eval", "--dataset", str(path), "--oracle", "mock"], path
    transcripts = tmp_path / "t"
    transcripts.mkdir()
    for name in ("resolution.jsonl", "inference.jsonl"):
        _write(transcripts / name, "")
    return ["scan", "--repo", repo, "--oracle", "replay", "--transcript", str(transcripts)], transcripts / kind


@pytest.mark.parametrize("fault", sorted(DOCUMENT_FAULTS))
@pytest.mark.parametrize("kind", ["config", "kb", "sink", "resolution.jsonl", "inference.jsonl", "dataset"])
def test_every_document_fault_is_a_config_error_naming_the_file(tmp_path, el_repo, capsys, kind, fault):
    argv, path = _reading(kind, tmp_path, el_repo)
    content = DOCUMENT_FAULTS[fault]
    if content is None:
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(content)
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err


def test_config_file_merged_under_flags(tmp_path, el_repo):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_rounds": 5, "hop_limit": 2}), encoding="utf-8")
    merged = ScanConfig.from_sources({"repo": el_repo, "hop_limit": 1}, str(cfg))
    assert merged.n_rounds == 5  # from file
    assert merged.hop_limit == 1  # flag wins


def test_cli_scan_exit_codes(el_repo, tmp_path, capsys):
    rc = main(["scan", "--repo", el_repo, "--oracle", "mock"])
    captured = capsys.readouterr()
    assert rc == EXIT_OK
    report = json.loads(captured.out)
    assert report["findings"][0]["cwe"] == "CWE-74"
    rc = main(["scan", "--repo", str(tmp_path / "missing")])
    assert rc == EXIT_CONFIG


def test_cli_rename_roundtrip(el_repo, tmp_path, capsys):
    out = tmp_path / "renamed"
    rc = main(["rename", "--repo", el_repo, "--label", "vulnerable", "--out", str(out)])
    assert rc == 0
    assert (out / "TemplateValidator.java").exists()
    text = (out / "TemplateValidator.java").read_text(encoding="utf-8")
    assert "non_vulnerable_isValid" in text


def test_cli_rename_of_a_missing_repository_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["rename", "--repo", str(missing), "--label", "vulnerable", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: repository path does not exist: {missing}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["file", "under a file"])
def test_cli_rename_into_a_path_blocked_by_a_file_is_a_config_error(el_repo, tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out = blocker if where == "file" else blocker / "sub"
    assert main(["rename", "--repo", el_repo, "--label", "vulnerable", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: output directory {out} cannot be made: {blocker} is not a directory\n"
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_eval_toy_dataset(tmp_path, capsys):
    vuln = """package p;
class App {
    void run(String cmd) {
        Runtime.getRuntime().exec(cmd);
    }
}
"""
    patched = vuln.replace("exec(cmd)", 'exec("fixed")')
    for pid, text_v, text_p in (("pair1", vuln, patched),):
        (tmp_path / pid / "vulnerable").mkdir(parents=True)
        (tmp_path / pid / "patched").mkdir(parents=True)
        (tmp_path / pid / "vulnerable" / "App.java").write_text(text_v, encoding="utf-8")
        (tmp_path / pid / "patched" / "App.java").write_text(text_p, encoding="utf-8")
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "pair1", "vulnerable": "pair1/vulnerable", "patched": "pair1/patched"}) + "\n",
        encoding="utf-8",
    )
    rc = main(["eval", "--dataset", str(dataset), "--oracle", "mock"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["pairs"] == 1
    assert doc["vp_s"] == doc["p_c"] - doc["p_r"]


def test_console_entrypoint_installed(el_repo):
    proc = subprocess.run(
        [sys.executable, "-m", "udgscan.harness.cli", "scan", "--repo", el_repo],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"findings"' in proc.stdout


def test_cli_scan_skips_unreadable_files(tmp_path, capsys):
    good = "package p;\nclass App {\n    void run(String cmd) {\n        Runtime.getRuntime().exec(cmd);\n    }\n}\n"
    root = write_repo(tmp_path, {"App.java": good})
    with open(os.path.join(root, "Bad.java"), "wb") as fh:
        fh.write(b"package p;\nclass Bad { String s = \"\xff\"; }\n")
    os.symlink(os.path.join(root, "missing.txt"), os.path.join(root, "Gone.java"))
    rc = main(["scan", "--repo", root, "--oracle", "mock"])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE
    report = json.loads(captured.out)
    assert report["stats"]["files"] == 1
    assert [(f["file"], f["cwe"]) for f in report["findings"]] == [("App.java", "CWE-78")]
    errors = {d["path"]: d["message"] for d in report["diagnostics"] if d["severity"] == "error"}
    assert errors["Bad.java"].startswith("source file is not valid UTF-8")
    assert errors["Gone.java"].startswith("unreadable source file")
    assert "Bad.java" in captured.err and "not valid UTF-8" in captured.err
    assert "Bad.java: source file" in captured.err and ":0:" not in captured.err


def test_parser_bug_is_a_per_file_internal_error(tmp_path, capsys, monkeypatch):
    from udgscan.frontend import parser

    good = "package p;\nclass App {\n    void run(String cmd) {\n        Runtime.getRuntime().exec(cmd);\n    }\n}\n"
    root = write_repo(tmp_path, {"App.java": good, "Bug.java": "package p;\nclass Bug { }\n"})
    real = parser._FileParser.parse_file

    def parse_file(self):
        if self.path == "Bug.java":
            raise KeyError("x")
        return real(self)

    monkeypatch.setattr(parser._FileParser, "parse_file", parse_file)
    rc = main(["scan", "--repo", root, "--oracle", "mock"])
    captured = capsys.readouterr()
    assert rc == EXIT_PARSE
    report = json.loads(captured.out)
    assert report["stats"]["files"] == 1
    errors = [(d["path"], d["module"], d["message"]) for d in report["diagnostics"] if d["severity"] == "error"]
    assert errors == [("Bug.java", "frontend", "internal error: KeyError")]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--out", "--transcript"])
@pytest.mark.parametrize("where", ["file", "under a file"])
def test_an_output_path_blocked_by_a_file_fails_before_parsing(el_repo, tmp_path, capsys, monkeypatch, flag, where):
    scan_module = importlib.import_module("udgscan.harness.scan")
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    path = blocker if where == "file" else blocker / "sub"

    def parse_repository(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(scan_module, "parse_repository", parse_repository)
    assert main(["scan", "--repo", el_repo, "--oracle", "mock", flag, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{blocker} is not a directory" in err
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("missing", ["resolution.jsonl", "inference.jsonl"])
def test_replay_without_a_transcript_file_fails_before_parsing(el_repo, tmp_path, capsys, monkeypatch, missing):
    transcripts = tmp_path / "t"
    assert scan(ScanConfig(repo=el_repo, transcript_dir=str(transcripts))).exit_code == EXIT_OK
    (transcripts / missing).unlink()
    scan_module = importlib.import_module("udgscan.harness.scan")

    def parse_repository(*args, **kwargs):
        raise AssertionError("the scan started")

    monkeypatch.setattr(scan_module, "parse_repository", parse_repository)
    argv = ["scan", "--repo", el_repo, "--oracle", "replay", "--transcript", str(transcripts)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read transcript {transcripts / missing}: ")
    assert "Traceback" not in err


def test_replay_does_not_check_the_transcript_path_as_an_output(el_repo, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    ScanConfig(repo=el_repo, oracle_mode="replay", transcript_dir=str(blocker)).validate()
    with pytest.raises(ConfigError, match="output directory"):
        ScanConfig(repo=el_repo, out_dir=str(blocker)).validate()


def _tree(root):
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _outputs(tmp_path, where, repo, **options):
    config = ScanConfig(
        repo=repo,
        oracle_mode="mock",
        out_dir=str(tmp_path / where / "out"),
        transcript_dir=str(tmp_path / where / "transcripts"),
        dump_context=True,
        dump_graph=True,
        **options,
    )
    scan(config)
    return _tree(tmp_path / where)


def test_rescan_into_a_used_directory_equals_a_fresh_scan(reflect_repo, el_repo, tmp_path):
    first = _outputs(tmp_path, "used", reflect_repo)
    assert {"out/report.json", "out/audit.jsonl", "out/udg.txt", "out/udg.dot"} <= set(first)
    assert {"transcripts/resolution.jsonl", "transcripts/inference.jsonl"} <= set(first)
    assert any(name.endswith(".ctx.txt") for name in first)
    # Lengthen every output and mark it stale, so each one is longer than
    # what the next scan writes there and must be rewritten and cut.
    for name in first:
        path = tmp_path / "used" / name
        with open(path, "ab") as fh:
            fh.write(b"stale tail\n" * 100)
        os.utime(path, ns=(0, 0))

    again = _outputs(tmp_path, "used", reflect_repo, token_budget=60)
    fresh = _outputs(tmp_path, "fresh", reflect_repo, token_budget=60)
    assert again == fresh
    # The tight budget shortens the context dump and the inference prompts.
    shorter = {name for name in fresh if len(fresh[name]) < len(first[name])}
    assert "transcripts/inference.jsonl" in shorter
    assert any(name.endswith(".ctx.txt") for name in shorter)
    # Every file was written again, including those whose bytes did not change.
    for name in fresh:
        assert os.stat(tmp_path / "used" / name).st_mtime_ns != 0, name

    # A dump whose invocation the next scan does not have stays as it was.
    other = _outputs(tmp_path, "used", el_repo)
    fresh_other = _outputs(tmp_path, "fresh_other", el_repo)
    left = set(other) - set(fresh_other)
    assert left and all(name.endswith(".ctx.txt") for name in left)
    assert {name: other[name] for name in left} == {name: fresh[name] for name in left}
    assert {name: other[name] for name in fresh_other} == fresh_other
