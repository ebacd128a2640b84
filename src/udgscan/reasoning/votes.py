"""Verdict parsing and majority-vote aggregation across query rounds."""

from __future__ import annotations

import json
from typing import NamedTuple

from ..enhance.oracle import json_objects
from ..errors import AllRoundsFailed, ClientTransportError
from .clients import InferenceClient
from .prompt import MetaPrompt


class Verdict(NamedTuple):
    raw: str
    parse_ok: bool
    is_vulnerable: bool | None = None
    explanation: str = ""


class AggregatedVerdict(NamedTuple):
    votes: list[Verdict]
    final: bool
    confidence: float
    low_confidence: bool

    @property
    def parseable(self) -> list[Verdict]:
        return [v for v in self.votes if v.parse_ok]


def parse_verdict(text: str) -> Verdict:
    """Last well-formed JSON object with a boolean `is_vulnerable` wins.

    Tolerates code fences and leading reasoning prose; a non-boolean flag or
    no parsable object yields parse_ok=False and excludes the vote.
    """
    for obj in json_objects(text):
        if "is_vulnerable" not in obj:
            continue
        flag = obj["is_vulnerable"]
        if not isinstance(flag, bool):
            return Verdict(raw=text, parse_ok=False)
        explanation = obj.get("explanation", "")
        if not isinstance(explanation, str):
            explanation = json.dumps(explanation)
        return Verdict(raw=text, parse_ok=True, is_vulnerable=flag, explanation=explanation)
    return Verdict(raw=text, parse_ok=False)


def query_rounds(client: InferenceClient, prompt: MetaPrompt, n: int) -> list[Verdict]:
    """Up to n independent completions, asked one after another, stopping
    once the rounds not yet asked cannot change `aggregate_votes`' `final`.

    With y yes and m no parseable votes so far and `left` rounds not yet
    asked, the verdict is decided when y >= m + left (an even split breaks
    toward vulnerable) or m > y + left.  A unit without a parseable vote
    asks every round.  A transport error (the live client has already
    retried) is recorded as that round's unparseable vote."""
    if n < 1 or n % 2 == 0:
        raise ValueError("round count must be odd and >= 1")
    votes: list[Verdict] = []
    yes = no = 0
    for i in range(n):
        try:
            raw = client.complete(prompt.text, i)
        except ClientTransportError as exc:
            vote = Verdict(raw=f"<transport failure: {exc}>", parse_ok=False)
        else:
            vote = parse_verdict(raw)
        votes.append(vote)
        yes += vote.is_vulnerable is True
        no += vote.is_vulnerable is False
        left = n - 1 - i
        if yes >= no + left or no > yes + left:
            break
    return votes


def aggregate_votes(votes: list[Verdict]) -> AggregatedVerdict:
    """Strict majority over parseable votes; an even split breaks toward
    vulnerable and is flagged low-confidence.  `votes` are the rounds
    asked: `confidence` is the winning share of their parseable votes, and
    a unit is also low-confidence when one of them has no parseable vote."""
    parseable = [v for v in votes if v.parse_ok]
    if not parseable:
        raise AllRoundsFailed("no parseable verdicts")
    yes = sum(1 for v in parseable if v.is_vulnerable)
    no = len(parseable) - yes
    final = yes >= no  # safety tie-break: an even split is flagged for review
    confidence = (yes if final else no) / len(parseable)
    low_confidence = yes == no or len(parseable) < len(votes)
    return AggregatedVerdict(votes, final, confidence, low_confidence)
