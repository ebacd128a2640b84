"""Golden diff: scan each fixture and compare its outputs byte for byte.

The files under `tests/golden/<fixture>/` are the mock-oracle scan outputs
(`report.json` with `repo` normalised to the fixture name, `audit.jsonl`,
the `.ctx.txt` context dumps and `udg.txt`). Regenerate them after an
intended output change with

    PYTHONPATH=src python tests/test_golden.py --update
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from conftest import FIXTURES  # noqa: E402

from udgscan.harness.scan import ScanConfig, scan  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
FIXTURE_NAMES = sorted(os.listdir(FIXTURES))


def scan_outputs(name: str, out_dir: str) -> dict[str, bytes]:
    """Scan one fixture into `out_dir`; return the golden-tracked files."""
    config = ScanConfig(
        repo=os.path.join(FIXTURES, name),
        oracle_mode="mock",
        out_dir=out_dir,
        dump_context=True,
        dump_graph=True,
    )
    scan(config)
    outputs: dict[str, bytes] = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname == "udg.dot":
            continue
        with open(os.path.join(out_dir, fname), "rb") as fh:
            outputs[fname] = fh.read()
    report = json.loads(outputs["report.json"])
    report["repo"] = name
    outputs["report.json"] = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return outputs


def read_golden(name: str) -> dict[str, bytes]:
    root = os.path.join(GOLDEN, name)
    outputs = {}
    for fname in sorted(os.listdir(root)):
        with open(os.path.join(root, fname), "rb") as fh:
            outputs[fname] = fh.read()
    return outputs


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_outputs_match_golden(name, tmp_path):
    got = scan_outputs(name, str(tmp_path / "out"))
    want = read_golden(name)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from its golden copy"


def update() -> None:
    import shutil
    import tempfile

    for name in FIXTURE_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            outputs = scan_outputs(name, tmp)
        dest = os.path.join(GOLDEN, name)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for fname, data in outputs.items():
            with open(os.path.join(dest, fname), "wb") as fh:
                fh.write(data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    update()
