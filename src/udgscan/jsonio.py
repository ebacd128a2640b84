"""JSON decoding for every document udgscan reads: config, knowledge-base
and sink files, replay transcripts and paired datasets, and the text of
model answers and endpoint responses.

`decode` decides what a malformed JSON text is: one that is not JSON, bytes
that are not UTF-8, or nesting deeper than the decoder can follow.  Each is
one `ValueError`.  The file readers turn that, and a file that cannot be
read, into a `ConfigError` naming the file; model text is the caller's to
judge.
"""

from __future__ import annotations

import json
from typing import Iterator

from .errors import ConfigError


def decode(text: str | bytes):
    """The value JSON `text` holds; bytes are decoded as UTF-8 first.  Every
    fault is a `ValueError`."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except RecursionError:
        raise ValueError("nested too deep to decode") from None


def read_json_object(path: str, where: str) -> dict:
    """The JSON object that file `path` holds.  A file that cannot be read,
    is not JSON or holds no object is a `ConfigError` naming `where` (the
    kind of document) and the file."""
    return _object(_read(path, where), f"{where} {path}")


def read_json_lines(path: str, where: str) -> Iterator[tuple[int, dict]]:
    """`(line number, object)` for each non-blank line of the JSON-lines
    file `path`.  A file that cannot be read, or a line that is not JSON or
    holds no object, is a `ConfigError` naming `where` and the file (and
    the line)."""
    for lineno, line in enumerate(_read(path, where).split(b"\n"), 1):
        if line.strip():
            yield lineno, _object(line, f"{where} {path}:{lineno}")


def _read(path: str, where: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {where} {path}: {exc.strerror or exc}") from exc


def _object(data: bytes, source: str) -> dict:
    """The JSON object `data` holds; `source` names where it was read."""
    try:
        doc = decode(data)
    except ValueError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{source} is not a JSON object")
    return doc
