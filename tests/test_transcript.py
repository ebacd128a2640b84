"""Transcript recording and keyed replay, for both request layers."""

import importlib
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from conftest import fixture_path  # noqa: E402
from test_golden import GOLDEN, golden_dir, read_golden  # noqa: E402

from udgscan.enhance.oracle import MockResolutionOracle  # noqa: E402
from udgscan.errors import ClientTransportError  # noqa: E402
from udgscan.harness.cli import main  # noqa: E402
from udgscan.harness.scan import EXIT_CONFIG, EXIT_OK, EXIT_ORACLE, ScanConfig, scan  # noqa: E402
from udgscan.reasoning.clients import MockInferenceClient  # noqa: E402
from udgscan.reasoning.prompt import MetaPrompt  # noqa: E402
from udgscan.reasoning.votes import query_rounds  # noqa: E402
from udgscan.transcript import Recorder, Replay  # noqa: E402

# Transcripts of mock scans: of `reflective_dispatch`, recorded before
# replay was keyed by request, and of `dispatch`, recorded before the
# polymorphism pass decided locally allocated receivers without a request.
EARLIER_TRANSCRIPTS = os.path.join(GOLDEN, "transcripts", "reflective_dispatch")
EARLIER_DISPATCH_TRANSCRIPTS = os.path.join(GOLDEN, "transcripts", "dispatch")

TAGS = ["s0", "s1", 0, 1]
PROMPTS = ["p", "q", 'multi\nline "quoted"']


class Counter:
    """Answers every request with a response no other request gets."""

    def __init__(self):
        self.calls = []

    def complete(self, prompt, tag):
        self.calls.append((tag, prompt))
        return f"response {len(self.calls)} to {tag!r}"


@st.composite
def sessions(draw):
    """Recorded requests, then a reordering of them that keeps the order of
    the requests sharing one (tag, prompt) key."""
    requests = draw(st.lists(st.tuples(st.sampled_from(TAGS), st.sampled_from(PROMPTS)), max_size=30))
    order = draw(st.permutations(range(len(requests))))
    return requests, [requests[i] for i in order]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    sessions(),
    st.sampled_from(["site", "round"]),
    st.tuples(st.sampled_from(TAGS + [2]), st.sampled_from(PROMPTS + ["r"])),
)
def test_replay_is_keyed_by_tag_and_prompt(tmp_path_factory, session, tag_field, extra):
    recorded, reordered = session
    recorder = Recorder(Counter(), tag_field)
    answers = {}
    for tag, prompt in recorded:
        answers.setdefault((tag, prompt), []).append(recorder.complete(prompt, tag))
    path = tmp_path_factory.mktemp("t") / "transcript.jsonl"
    path.write_text("".join(recorder.lines()), encoding="utf-8")

    replay = Replay(str(path), tag_field)
    if extra not in answers:
        with pytest.raises(ClientTransportError, match=f"{tag_field} {extra[0]!r}"):
            replay.complete(extra[1], extra[0])
    for tag, prompt in reordered:
        # Same-key requests come back in recorded order, whatever came between.
        assert replay.complete(prompt, tag) == answers[(tag, prompt)].pop(0)
    # Every recorded response is used up, so any further request is a miss.
    with pytest.raises(ClientTransportError, match=f"{tag_field} {extra[0]!r}"):
        replay.complete(extra[1], extra[0])


def test_recorder_writes_the_layer_tag_field(tmp_path):
    recorder = Recorder(MockResolutionOracle(), "site")
    prompt = "### Inputs\nwhich class is accessed\nDataflow Context:\n(none)\n"
    response = recorder.complete(prompt, "A.java#s1/reflect0/class")
    path = tmp_path / "resolution.jsonl"
    path.write_text("".join(recorder.lines()), encoding="utf-8")
    assert [json.loads(ln) for ln in path.read_text().splitlines()] == [
        {"prompt": prompt, "response": response, "site": "A.java#s1/reflect0/class"}
    ]


def test_inference_miss_is_that_rounds_unparseable_vote(tmp_path):
    yes = json.dumps({"explanation": "tainted", "is_vulnerable": True})
    no = json.dumps({"explanation": "sanitized", "is_vulnerable": False})
    # Split votes, so that round 2 is asked.
    recorder = Recorder(MockInferenceClient(script=[yes, no, yes]), "round")
    prompt = MetaPrompt(text="detect")
    query_rounds(recorder, prompt, 3)
    recorder.records.pop()  # the transcript lacks round 2
    path = tmp_path / "inference.jsonl"
    path.write_text("".join(recorder.lines()), encoding="utf-8")
    votes = query_rounds(Replay(str(path), "round"), prompt, 3)
    assert [(v.parse_ok, v.is_vulnerable) for v in votes] == [(True, True), (True, False), (False, None)]
    assert "round 2" in votes[2].raw


def test_replay_of_another_repository_is_an_oracle_fault(tmp_path):
    transcripts = str(tmp_path / "t")
    recorded = scan(
        ScanConfig(repo=fixture_path("el_template_validation"), oracle_mode="mock", transcript_dir=transcripts)
    )
    assert recorded.exit_code == EXIT_OK
    result = scan(
        ScanConfig(repo=fixture_path("reflective_dispatch"), oracle_mode="replay", transcript_dir=transcripts)
    )
    assert result.exit_code == EXIT_ORACLE
    assert result.findings == [] and result.report["findings"] == []
    assert "resolution.jsonl holds no response for site" in result.report["fatal"]


def test_missing_transcript_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "none")
    rc = main(["scan", "--repo", fixture_path("dispatch"), "--oracle", "replay", "--transcript", missing])
    assert rc == EXIT_CONFIG
    assert "cannot read transcript" in capsys.readouterr().err


def test_earlier_transcripts_replay_to_the_mock_golden_outputs(tmp_path):
    assert_replays_to_golden("reflective_dispatch", EARLIER_TRANSCRIPTS, tmp_path)


def test_transcripts_recorded_before_the_allocation_rule_still_replay(tmp_path):
    # The one recorded request is for the site the rule now decides: it
    # stays unused, and that is not an error.
    with open(os.path.join(EARLIER_DISPATCH_TRANSCRIPTS, "resolution.jsonl"), encoding="utf-8") as fh:
        assert [json.loads(line)["site"] for line in fh] == ["Zoo.java#s18/poly0"]
    oracle = Recorder(MockResolutionOracle(), "site")
    scan(ScanConfig(repo=fixture_path("dispatch")), resolution_oracle=oracle)
    assert not list(oracle.lines())
    assert_replays_to_golden("dispatch", EARLIER_DISPATCH_TRANSCRIPTS, tmp_path)


def assert_replays_to_golden(name, transcripts, tmp_path):
    """A replay scan of fixture `name` from `transcripts` writes the mock
    golden outputs, but for the oracle mode in its report."""
    out = tmp_path / "out"
    config = ScanConfig(
        repo=fixture_path(name),
        oracle_mode="replay",
        transcript_dir=transcripts,
        out_dir=str(out),
        dump_context=True,
        dump_graph=True,
    )
    assert scan(config).exit_code == EXIT_OK
    want = read_golden(golden_dir(name))
    got = {fname: (out / fname).read_bytes() for fname in want}
    report = json.loads(got.pop("report.json"))
    assert report["config"]["oracle_mode"] == "replay"
    report["config"]["oracle_mode"] = "mock"
    report["repo"] = name
    assert report == json.loads(want.pop("report.json"))
    assert got == want


class FakeLiveClient:
    """Stands in for the HTTP client: answers like the mocks, counts builds."""

    built: list = []

    def __init__(self, *, endpoint, model, api_key_env, temperature, seed):
        FakeLiveClient.built.append(self)
        self.rounds = []

    def complete(self, prompt, round_index=0):
        self.rounds.append(round_index)
        if prompt.startswith("### Problem"):
            return MockInferenceClient().complete(prompt, round_index)
        return MockResolutionOracle().complete(prompt)


def test_live_scan_builds_one_client_and_records_both_layers(tmp_path, monkeypatch):
    scan_module = importlib.import_module("udgscan.harness.scan")
    monkeypatch.setattr(scan_module, "LiveInferenceClient", FakeLiveClient)
    monkeypatch.setattr(FakeLiveClient, "built", [])
    transcripts = tmp_path / "t"
    config = ScanConfig(
        repo=fixture_path("reflective_dispatch"),
        oracle_mode="live",
        endpoint="http://localhost:9/v1",
        model="m",
        transcript_dir=str(transcripts),
    )
    live = scan(config)
    [client] = FakeLiveClient.built
    resolution = [json.loads(ln) for ln in (transcripts / "resolution.jsonl").read_text().splitlines()]
    inference = [json.loads(ln) for ln in (transcripts / "inference.jsonl").read_text().splitlines()]
    assert resolution and all(isinstance(r["site"], str) for r in resolution)
    # The mock's votes always agree, so every unit stops after two rounds.
    assert inference and [r["round"] for r in inference] == [0, 1] * (len(inference) // 2)
    # Resolution requests go to the one client as round 0.
    assert client.rounds == [0] * len(resolution) + [r["round"] for r in inference]
    replayed = scan(ScanConfig(repo=config.repo, oracle_mode="replay", transcript_dir=str(transcripts)))
    assert FakeLiveClient.built == [client]
    assert replayed.report["findings"] == live.report["findings"]
