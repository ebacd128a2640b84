"""The benchmark workloads' scan outputs, guarded in tier 1.

Each workload of `bench/workloads.py` is generated at seed 101 and scanned
with the benchmark's client wrappers (`bench/clients.py`) at zero latency,
dumping the contexts and the graph.  One sha256 per workload covers
`report.json` (with `repo` normalised to the workload's name),
`audit.jsonl`, every `.ctx.txt` dump, `udg.txt` and `udg.dot`, and must
equal the one in `tests/golden/bench_digests.json`.  A change that alters a
workload's outputs on purpose says so and regenerates the digests with

    PYTHONPATH=src python tests/test_bench_outputs.py --update

`bench/` is imported read-only, as `test_bench_entry_points.py` does.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TESTS)
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "bench"))

from clients import LatencyClient, LatencyOracle  # noqa: E402
from conftest import write_repo  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from udgscan.harness.scan import ScanConfig, scan  # noqa: E402

SEED = 101
DIGESTS = os.path.join(TESTS, "golden", "bench_digests.json")


def workload_digest(name: str, work: Path) -> str:
    """Scan workload `name` at SEED under `work`; the digest of its outputs."""
    corpus = WORKLOADS[name](SEED)
    out = str(work / "out")
    config = ScanConfig(
        repo=write_repo(work, corpus.files), oracle_mode="mock", out_dir=out, dump_context=True, dump_graph=True
    )
    if corpus.token_budget is not None:
        config.token_budget = corpus.token_budget
    scan(config, inference_client=LatencyClient(0.0, corpus.garbage), resolution_oracle=LatencyOracle(0.0))
    digest = hashlib.sha256()
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            data = fh.read()
        if fname == "report.json":
            report = json.loads(data)
            report["repo"] = name
            data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        digest.update(fname.encode("utf-8") + b"\0" + data + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bench_workload_outputs_match_their_digest(name, tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    assert workload_digest(name, tmp_path) == want, f"{name} at seed {SEED} changed its outputs"


def update() -> None:
    digests = {}
    for name in sorted(WORKLOADS):
        with tempfile.TemporaryDirectory() as work:
            digests[name] = workload_digest(name, Path(work))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_bench_outputs.py --update")
    update()
