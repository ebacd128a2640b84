"""What a scan imports depends on the mode it runs in: an offline scan loads
no network, TLS or hashing stack, and, since the mocks and a replay answer
in-process, no executor.  No scan loads `dataclasses` or the introspection
modules it brings."""

import json
import os
import subprocess
import sys

from conftest import fixture_path

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Loaded by the live client's first request (`urllib.request` brings the
# rest), by an evaluation's hashing, or by a request that waits; and, never,
# `dataclasses` with the modules it imports.
NOT_LOADED = (
    "ssl",
    "_ssl",
    "http.client",
    "email",
    "urllib.request",
    "hashlib",
    "_hashlib",
    "concurrent.futures",
    "dataclasses",
    "inspect",
    "ast",
    "dis",
)
# Runs the CLI and prints, as its last line, the exit code and which of
# NOT_LOADED the process holds.  `-S` keeps site-packages' start-up hooks
# out of what is measured.
PROBE = (
    "import json, sys\n"
    "from udgscan.harness.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(json.dumps([code, [m for m in {NOT_LOADED!r} if m in sys.modules]]))\n"
)


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_mock_and_replay_scans_load_no_network_or_hashing_stack(tmp_path):
    repo = fixture_path("reflective_dispatch")
    transcripts = str(tmp_path / "t")
    mock = _cli("scan", "--repo", repo, "--oracle", "mock", "--transcript", transcripts, "--out", str(tmp_path / "m"))
    assert mock == [0, []]
    # The replayed transcript holds the reflective site's oracle questions.
    assert os.path.getsize(os.path.join(transcripts, "resolution.jsonl")) > 0
    replay = _cli("scan", "--repo", repo, "--oracle", "replay", "--transcript", transcripts, "--out", str(tmp_path / "r"))
    assert replay == [0, []]
