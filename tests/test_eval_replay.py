"""Record/replay round-trips through the eval driver."""

import json

from udgscan.harness.cli import main

VULN = """package p;
class App {
    void run(String cmd) {
        Runtime.getRuntime().exec(cmd);
    }
}
"""

PATCHED = VULN.replace("exec(cmd)", 'exec("fixed")')


def _dataset(tmp_path, n_pairs=2):
    lines = []
    for i in range(n_pairs):
        pid = f"pair{i}"
        v = VULN.replace("class App", f"class App{i}")
        p = PATCHED.replace("class App", f"class App{i}")
        (tmp_path / pid / "vulnerable").mkdir(parents=True)
        (tmp_path / pid / "patched").mkdir(parents=True)
        (tmp_path / pid / "vulnerable" / "App.java").write_text(v, encoding="utf-8")
        (tmp_path / pid / "patched" / "App.java").write_text(p, encoding="utf-8")
        lines.append(json.dumps({"id": pid, "vulnerable": f"{pid}/vulnerable", "patched": f"{pid}/patched"}))
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_eval_record_then_replay(tmp_path, capsys):
    dataset = _dataset(tmp_path)
    transcripts = tmp_path / "transcripts"
    rc = main(["eval", "--dataset", dataset, "--oracle", "mock", "--transcript", str(transcripts)])
    assert rc == 0
    recorded = capsys.readouterr().out
    # Each (pair, variant) scan records into its own transcript directory.
    assert (transcripts / "pair0" / "vulnerable" / "inference.jsonl").exists()
    assert (transcripts / "pair1" / "patched" / "inference.jsonl").exists()
    rc = main(["eval", "--dataset", dataset, "--oracle", "replay", "--transcript", str(transcripts)])
    assert rc == 0
    replayed = capsys.readouterr().out
    assert json.loads(recorded) == json.loads(replayed)


VARIANTS = [(pair, variant) for pair in ("pair0", "pair1") for variant in ("vulnerable", "patched")]


def test_eval_writes_each_variant_into_its_own_output_directory(tmp_path):
    dataset = _dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["eval", "--dataset", dataset, "--oracle", "mock", "--out", str(out), "--dump-context"]) == 0
    assert not (out / "report.json").exists()
    for pair, variant in VARIANTS:
        report = json.loads((out / pair / variant / "report.json").read_text(encoding="utf-8"))
        assert report["repo"].endswith(f"{pair}/{variant}")
        assert list((out / pair / variant).glob("*.ctx.txt"))


def test_eval_splits_the_directories_a_config_file_gives(tmp_path, capsys):
    """A config file's `transcript_dir` and `out_dir` are split per pair and
    variant as the flags are, and replay reads them back so."""
    dataset = _dataset(tmp_path)
    config = tmp_path / "config.json"
    settings = {"transcript_dir": str(tmp_path / "tr"), "out_dir": str(tmp_path / "out")}
    config.write_text(json.dumps(settings), encoding="utf-8")
    assert main(["eval", "--dataset", dataset, "--oracle", "mock", "--config", str(config)]) == 0
    recorded = capsys.readouterr().out
    assert not (tmp_path / "tr" / "inference.jsonl").exists()
    for pair, variant in VARIANTS:
        assert (tmp_path / "tr" / pair / variant / "inference.jsonl").exists()
        assert (tmp_path / "tr" / pair / variant / "resolution.jsonl").exists()
        assert (tmp_path / "out" / pair / variant / "report.json").exists()
    assert main(["eval", "--dataset", dataset, "--oracle", "replay", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(recorded)
