"""Transcripts of model requests: record a run, replay it bit-exactly.

Both request layers share one contract, `complete(prompt, tag) -> str`: the
resolution oracle's tag is the site it asks about, the inference client's
is the voting round.  `Recorder` wraps either layer and writes one JSON line
per request, the tag under the layer's field name (`site` or `round`), in
issue order: the requests of a call that runs later or on another thread
record at the place `udgscan.pool.issue` reserved for the call when it was
issued; `lines()` is the transcript file's text.
`Replay` serves those responses keyed by (tag, prompt), in recorded order
per key, so replay does not depend on the order requests arrive in.  A
request the transcript does not hold is a transport failure, like a live
endpoint that does not answer; a transcript file that cannot be read, or a
line of it that is not a record, is a configuration error naming the file
(`udgscan.jsonio.read_json_lines`).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict, deque
from typing import Iterator

from .errors import ClientTransportError, ConfigError
from .jsonio import read_json_lines


class Recorder:
    def __init__(self, inner, tag_field: str):
        self.inner = inner
        self.tag_field = tag_field
        # Recording waits on nothing: the inner layer decides where its calls run.
        self.in_process = getattr(inner, "in_process", False)
        # One record per request made here, and one `Recorder` per place
        # reserved here, which holds the records of the requests made there.
        self.records: list[dict | Recorder] = []

    def complete(self, prompt: str, tag: str | int) -> str:
        response = self.inner.complete(prompt, tag)
        self.records.append({self.tag_field: tag, "prompt": prompt, "response": response})
        return response

    def reserve(self) -> Recorder:
        """The transcript's next place, for requests that may run later or
        on another thread: a recorder of the same layer whose records are
        written here."""
        place = Recorder(self.inner, self.tag_field)
        self.records.append(place)
        return place

    def lines(self) -> Iterator[str]:
        for rec in self.records:
            if isinstance(rec, Recorder):
                yield from rec.lines()
            else:
                yield json.dumps(rec, sort_keys=True) + "\n"


class Replay:
    in_process = True  # `udgscan.pool.issue` makes its requests on the issuing thread

    def __init__(self, path: str, tag_field: str):
        self.name = os.path.basename(path)
        self.tag_field = tag_field
        self.responses: dict[tuple, deque[str]] = defaultdict(deque)
        for lineno, rec in read_json_lines(path, "transcript"):
            if not _is_record(rec, tag_field):
                raise ConfigError(
                    f"transcript {path}:{lineno} is not a JSON object with {tag_field}, prompt and response"
                )
            self.responses[(rec[tag_field], rec["prompt"])].append(rec["response"])

    def complete(self, prompt: str, tag: str | int) -> str:
        queue = self.responses.get((tag, prompt))
        if not queue:
            raise ClientTransportError(
                f"{self.name} holds no response for {self.tag_field} {tag!r} with this prompt"
            )
        return queue.popleft()


def _is_record(rec: dict, tag_field: str) -> bool:
    return (
        isinstance(rec.get(tag_field), (str, int))
        and isinstance(rec.get("prompt"), str)
        and isinstance(rec.get("response"), str)
    )
