"""The stop rule of `query_rounds` against the all-rounds reference: a unit
stops asking once the rounds left cannot change its verdict."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support.votes import query_all_rounds

from udgscan.errors import AllRoundsFailed, ClientTransportError
from udgscan.reasoning.prompt import MetaPrompt
from udgscan.reasoning.votes import aggregate_votes, parse_verdict, query_rounds

# What one round can answer: a vote either way, or one that is excluded.
ANSWERS = ("yes", "no", "prose", "flag", "failure")
PROMPT = MetaPrompt(text="detect")


def _response(answer: str, round_index: int) -> str:
    """The text of `answer` in round `round_index`; each round explains
    itself differently, so the explanation a finding takes is traceable."""
    if answer == "failure":
        raise ClientTransportError(f"round {round_index} timed out")
    if answer == "prose":
        return "I need more context before I can give a verdict."
    flag = {"yes": True, "no": False, "flag": "maybe"}[answer]
    return json.dumps({"explanation": f"round {round_index}", "is_vulnerable": flag})


class StreamClient:
    """Answers round i with the i-th answer of its stream, and records the
    rounds asked."""

    def __init__(self, stream):
        self.stream = stream
        self.rounds = []

    def complete(self, prompt, round_index=0):
        self.rounds.append(round_index)
        return _response(self.stream[round_index], round_index)


def _final(votes):
    """`final` and the explanation a finding takes, or None when every round
    failed."""
    try:
        agg = aggregate_votes(votes)
    except AllRoundsFailed:
        return None
    return agg.final, next(v.explanation for v in agg.parseable if v.is_vulnerable == agg.final)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from([1, 3, 5, 7]).flatmap(lambda n: st.lists(st.sampled_from(ANSWERS), min_size=n, max_size=n)))
def test_stopped_rounds_decide_as_all_rounds_do(stream):
    n = len(stream)
    client = StreamClient(stream)
    stopped = query_rounds(client, PROMPT, n)
    everything = query_all_rounds(StreamClient(stream), PROMPT, n)
    asked = len(stopped)
    assert client.rounds == list(range(asked))
    assert stopped == everything[:asked]
    assert _final(stopped) == _final(everything)
    if asked < n:
        # However the rounds not asked would have answered, the verdict
        # would be the same (a flag or a failure counts as prose does).
        decided = _final(stopped)
        assert decided is not None
        for rest in itertools.product(("yes", "no", "prose"), repeat=n - asked):
            completed = stopped + [parse_verdict(_response(a, asked + i)) for i, a in enumerate(rest)]
            assert _final(completed)[0] == decided[0]


@pytest.mark.parametrize(
    "stream, asked",
    [
        (["no", "no", "yes"], 2),
        (["yes", "no", "no"], 3),
        (["yes", "prose", "no"], 2),
        (["no", "prose", "yes"], 3),
        (["failure"] * 3, 3),
        (["no", "no", "no", "yes", "yes"], 3),
    ],
    ids=[
        "two agree",
        "split until the last round",
        "one yes and one round left: at worst an even split",
        "one no and one round left: can still become an even split",
        "no parseable vote",
        "three of five agree",
    ],
)
def test_a_unit_stops_at_the_first_decided_round(stream, asked):
    """The differential checks that a unit never stops too early; these
    streams check that it stops as soon as it may."""
    client = StreamClient(stream)
    query_rounds(client, PROMPT, len(stream))
    assert client.rounds == list(range(asked))
