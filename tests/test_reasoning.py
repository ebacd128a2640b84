import json
import urllib.error
import urllib.request

import pytest

from conftest import enhance, parse_and_build

from udgscan.context.holistic import holistic_context
from udgscan.context.sinks import find_sensitive_invocations
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.errors import AllRoundsFailed, ClientTransportError
from udgscan.knowledge import load_starter_kb
from udgscan.reasoning.clients import RETRIES, LiveInferenceClient, MockInferenceClient
from udgscan.reasoning.prompt import STEP_HEADERS, build_detection_prompt
from udgscan.reasoning.votes import aggregate_votes, parse_verdict, query_rounds
from udgscan.transcript import Recorder, Replay

YES = json.dumps({"explanation": "tainted path", "is_vulnerable": True})
NO = json.dumps({"explanation": "sanitized", "is_vulnerable": False})
# A verdict whose explanation nests deeper than any JSON decoder follows.
TOO_DEEP = '{"is_vulnerable": true, "explanation": ' + "[" * 100_000 + "]" * 100_000 + "}"


def el_context(el_repo):
    model, g, diags = parse_and_build(el_repo)
    result = enhance(model, g, MockResolutionOracle(), diags)
    kb = load_starter_kb()
    inv = find_sensitive_invocations(result.graph, model, kb)[0]
    return holistic_context(result.graph, model, [inv])[0], inv, kb


def test_prompt_contains_context_and_guideline(el_repo):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    for header in STEP_HEADERS:
        assert header in prompt.text
    assert "expert security auditor for Java" in prompt.text
    assert "critically review your reasoning" in prompt.text
    guideline = kb.guidelines["CWE-74"]
    assert guideline.vuln_patterns in prompt.text
    assert guideline.defense_knowledge in prompt.text
    # Context lines (sanitizer body and globals) are embedded.
    assert "ESCAPE_PATTERN" in prompt.text
    assert "18|" in prompt.text


def test_prompt_has_no_unfilled_placeholders(el_repo):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    assert prompt.unfilled_placeholders() == []


def test_placeholders_inside_the_context_are_kept_verbatim(el_repo):
    """Slots are filled in one pass: a context that holds `%vuln_patterns%`
    or `%cwe%` (say in a string literal) gets no guideline text spliced in."""
    ctx, inv, kb = el_context(el_repo)
    ctx = ctx._replace(rendered='12|  String s = "%vuln_patterns% / %cwe%";')
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-22"), kb)
    assert ctx.rendered in prompt.text
    assert prompt.text.count(kb.guidelines["CWE-22"].vuln_patterns) == 1


def test_parse_verdict_plain():
    v = parse_verdict('{"explanation":"...","is_vulnerable":false}')
    assert v.parse_ok and v.is_vulnerable is False


def test_parse_verdict_fenced_with_prose():
    text = "Reasoning first.\n```json\n{\"explanation\": \"x\", \"is_vulnerable\": true}\n```\ntrailing"
    v = parse_verdict(text)
    assert v.parse_ok and v.is_vulnerable is True and v.explanation == "x"


def test_parse_verdict_last_object_wins():
    text = '{"is_vulnerable": true} later I changed my mind {"is_vulnerable": false, "explanation": "final"}'
    v = parse_verdict(text)
    assert v.parse_ok and v.is_vulnerable is False


def test_parse_verdict_non_boolean_fails():
    v = parse_verdict('{"is_vulnerable": "yes"}')
    assert not v.parse_ok


@pytest.mark.parametrize("text", ["definitely vulnerable!", TOO_DEEP], ids=["prose", "too deep"])
def test_parse_verdict_no_json_fails(text):
    assert not parse_verdict(text).parse_ok


def test_query_rounds_fixed_mock(el_repo):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    votes = query_rounds(MockInferenceClient(script=[NO, NO, NO]), prompt, 3)
    # Two agreeing votes decide three rounds: the third is not asked.
    assert [v.is_vulnerable for v in votes] == [False, False]


def test_query_rounds_alternating(el_repo):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    votes = query_rounds(MockInferenceClient(script=[YES, NO, YES]), prompt, 3)
    assert sum(1 for v in votes if v.is_vulnerable) == 2


def test_query_rounds_prose_round_excluded(el_repo):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    # 0-1 with one round left is undecided, so the third round is asked.
    votes = query_rounds(MockInferenceClient(script=[NO, "no json, just prose", NO]), prompt, 3)
    assert [v.parse_ok for v in votes] == [True, False, True]
    agg = aggregate_votes(votes)
    assert agg.final is False and agg.low_confidence


def test_query_rounds_requires_odd():
    with pytest.raises(ValueError):
        query_rounds(MockInferenceClient(), None, 2)


class DownClient:
    """An inference client whose every request fails in transport."""

    def __init__(self):
        self.calls = 0

    def complete(self, prompt: str, round_index: int = 0) -> str:
        self.calls += 1
        raise ClientTransportError("connection refused")


@pytest.mark.parametrize("n", [1, 3])
def test_transport_failure_is_one_request_per_round(el_repo, n):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    client = DownClient()
    votes = query_rounds(client, prompt, n)
    assert client.calls == n
    assert [(v.parse_ok, v.raw) for v in votes] == [(False, "<transport failure: connection refused>")] * n


def test_live_client_retries_each_request(monkeypatch):
    calls = []

    def urlopen(request, timeout):
        calls.append(request.full_url)
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    client = LiveInferenceClient(
        endpoint="http://localhost:9/v1", model="m", api_key_env="UDGSCAN_API_KEY", temperature=0.7, seed=None
    )
    for expected_calls in (3, 6):
        with pytest.raises(ClientTransportError):
            client.complete("prompt")
        assert len(calls) == expected_calls


class Body:
    def __init__(self, data):
        self.data = data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.data


def _serving(monkeypatch, bodies):
    """A live client whose endpoint answers with `bodies` in turn, the last
    one from then on; returns it and the list of bodies served."""
    served = []

    def urlopen(request, timeout):
        served.append(bodies[min(len(served), len(bodies) - 1)])
        return Body(served[-1])

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    client = LiveInferenceClient(
        endpoint="http://localhost:9/v1", model="m", api_key_env="UDGSCAN_API_KEY", temperature=0.7, seed=None
    )
    return client, served


@pytest.mark.parametrize(
    "body", [b'{"choices": "\xff"}', TOO_DEEP.encode(), b"<html>"], ids=["not UTF-8", "too deep", "not JSON"]
)
def test_live_client_retries_a_body_it_cannot_decode(monkeypatch, body):
    client, served = _serving(monkeypatch, [body])
    with pytest.raises(ClientTransportError):
        client.complete("prompt")
    assert len(served) == 3


def test_live_client_retries_a_null_body(monkeypatch):
    client, served = _serving(monkeypatch, [b"null", b'{"choices": [{"message": {"content": "ok"}}]}'])
    assert client.complete("prompt") == "ok"
    assert len(served) == 2


def test_live_client_gives_up_on_an_always_null_body(monkeypatch):
    client, served = _serving(monkeypatch, [b"null"])
    with pytest.raises(ClientTransportError) as failure:
        client.complete("prompt")
    assert len(served) == RETRIES + 1
    assert str(failure.value) != "None" and "null" in str(failure.value)


def test_aggregate_majority():
    votes = [parse_verdict(YES), parse_verdict(YES), parse_verdict(NO)]
    agg = aggregate_votes(votes)
    assert agg.final is True
    assert agg.confidence == pytest.approx(2 / 3)


def test_aggregate_unanimous():
    votes = [parse_verdict(NO)] * 3
    agg = aggregate_votes(votes)
    assert agg.final is False and agg.confidence == 1.0 and not agg.low_confidence


def test_aggregate_tie_breaks_vulnerable():
    votes = [parse_verdict(YES), parse_verdict(NO), parse_verdict("garbage")]
    agg = aggregate_votes(votes)
    assert agg.final is True and agg.low_confidence


def test_aggregate_all_failed():
    votes = [parse_verdict("x"), parse_verdict("y"), parse_verdict("z")]
    with pytest.raises(AllRoundsFailed):
        aggregate_votes(votes)


def test_aggregation_permutation_invariant():
    import itertools

    base = [parse_verdict(YES), parse_verdict(NO), parse_verdict(YES)]
    outcomes = set()
    for perm in itertools.permutations(base):
        agg = aggregate_votes(list(perm))
        outcomes.add((agg.final, round(agg.confidence, 9)))
    assert len(outcomes) == 1


def test_transcript_replay_bit_exact(el_repo, tmp_path):
    ctx, inv, kb = el_context(el_repo)
    prompt = build_detection_prompt(ctx, (inv.api, "CWE-74"), kb)
    recorder = Recorder(MockInferenceClient(script=[NO, YES, NO]), "round")
    first = query_rounds(recorder, prompt, 3)
    path = tmp_path / "inference.jsonl"
    path.write_text("".join(recorder.lines()), encoding="utf-8")
    replay = Replay(str(path), "round")
    second = query_rounds(replay, prompt, 3)
    assert [v.raw for v in first] == [v.raw for v in second]
