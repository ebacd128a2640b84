"""The all-rounds vote: every round of a unit asked, whatever the votes so
far.  The reference the stop rule of `udgscan.reasoning.votes.query_rounds`
is checked against."""

from udgscan.errors import ClientTransportError
from udgscan.reasoning.clients import InferenceClient
from udgscan.reasoning.prompt import MetaPrompt
from udgscan.reasoning.votes import Verdict, parse_verdict


def query_all_rounds(client: InferenceClient, prompt: MetaPrompt, n: int) -> list[Verdict]:
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
