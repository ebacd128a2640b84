"""Verdict parsing and majority-vote aggregation across query rounds."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..enhance.oracle import json_objects
from ..errors import AllRoundsFailed, ClientTransportError
from .clients import InferenceClient
from .prompt import MetaPrompt


@dataclass
class Verdict:
    raw: str
    parse_ok: bool
    is_vulnerable: bool | None = None
    explanation: str = ""


@dataclass
class AggregatedVerdict:
    votes: list[Verdict] = field(default_factory=list)
    final: bool | None = None
    confidence: float = 0.0
    low_confidence: bool = False

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
    """N independent completions; a transport error (the live client has
    already retried) is recorded as that round's unparseable vote."""
    if n < 1 or n % 2 == 0:
        raise ValueError("round count must be odd and >= 1")
    votes: list[Verdict] = []
    for i in range(n):
        try:
            raw = client.complete(prompt.text, i)
        except ClientTransportError as exc:
            votes.append(Verdict(raw=f"<transport failure: {exc}>", parse_ok=False))
            continue
        votes.append(parse_verdict(raw))
    return votes


def aggregate_votes(votes: list[Verdict], n_requested: int) -> AggregatedVerdict:
    """Strict majority over parseable votes; an even split breaks toward
    vulnerable and is flagged low-confidence."""
    agg = AggregatedVerdict(votes=votes)
    parseable = agg.parseable
    if not parseable:
        raise AllRoundsFailed("no parseable verdicts")
    yes = sum(1 for v in parseable if v.is_vulnerable)
    no = len(parseable) - yes
    if yes > no:
        agg.final = True
    elif no > yes:
        agg.final = False
    else:
        agg.final = True  # safety tie-break: flag for review
        agg.low_confidence = True
    winner_votes = yes if agg.final else no
    agg.confidence = winner_votes / len(parseable)
    if len(parseable) < n_requested:
        agg.low_confidence = True
    return agg
