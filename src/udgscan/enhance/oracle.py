"""Resolution oracles: answer polymorphism/reflection questions from prompts.

Every oracle has one contract, `complete(prompt, site) -> str`.  The
deterministic mock infers answers from the prompt text alone (constant
propagation over the dataflow-context lines); `udgscan.transcript` records
and replays any oracle's answers.
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Protocol

from ..errors import OracleParseError
from ..jsonio import decode


class ResolutionOracle(Protocol):
    def complete(self, prompt: str, site: str = "") -> str: ...


# A string literal (to the end of the text when it never closes; a backslash
# escapes the next character) or a brace: the only characters that change
# the brace depth or hide braces from it.
_JSON_STRUCTURE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[{}]', re.S)


def json_objects(text: str) -> Iterator[dict]:
    """The balanced, string-aware `{...}` spans of `text` that `decode` turns
    into JSON objects, last first."""
    spans = []
    depth = 0
    start = 0
    for m in _JSON_STRUCTURE.finditer(text):
        i = m.start()
        ch = text[i]
        if ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                spans.append(text[start : i + 1])
    for span in reversed(spans):
        try:
            obj = decode(span)
        except ValueError:
            continue
        if isinstance(obj, dict):
            yield obj


def extract_json_object(text: str) -> dict:
    """Last balanced JSON object in `text`, string-aware."""
    for obj in json_objects(text):
        return obj
    raise OracleParseError("no JSON object found in oracle response")


# ------------------------------------------------------------------ sections


def _section(prompt: str, header: str) -> str:
    pattern = re.compile(rf"^{re.escape(header)}:\n(.*?)(?=\n\n|\Z)", re.S | re.M)
    m = pattern.search(prompt)
    return m.group(1).strip() if m else ""


def _context_lines(prompt: str) -> list[str]:
    block = _section(prompt, "Dataflow Context")
    lines = []
    for raw in block.splitlines():
        if "|" in raw:
            lines.append(raw.split("|", 1)[1].strip())
        else:
            lines.append(raw.strip())
    return [ln for ln in lines if ln and ln != "(none)"]


def _bullet_list(prompt: str, header: str) -> list[str]:
    return [
        ln.strip()[2:].strip()
        for ln in _section(prompt, header).splitlines()
        if ln.strip().startswith("- ")
    ]


class ConstantFolder:
    """String constant propagation over context lines: each variable's
    value set collects every definition of it that folds."""

    ASSIGN = re.compile(r"(?:[\w\[\]<>,.\s]+\s)?([A-Za-z_$][\w$]*)\s*=\s*(.+?);?$")

    def __init__(self, lines: list[str]):
        self.values: dict[str, set[str]] = {}
        for ln in lines:
            m = self.ASSIGN.match(ln.strip())
            if not m:
                continue
            value = fold_concat(m.group(2), self.values.get)
            if value is not None:
                self.values.setdefault(m.group(1), set()).update(value)


FOLD_CAP = 8  # most strings one concatenation may fold to
_STRING_LITERAL = re.compile(r'"[^"\\]*"')
_IDENTIFIER = re.compile(r"[A-Za-z_$][\w$]*")


def fold_concat(expr: str, lookup) -> set[str] | None:
    """The strings `expr` can take when it is a top-level `+` concatenation
    of string literals and variables, each variable's strings coming from
    `lookup(name)`; None when a part is anything else, a variable's lookup
    gives None, or there are more than `FOLD_CAP` strings."""
    values = {""}
    for part in _split_top(expr, "+"):
        part = part.strip()
        if _STRING_LITERAL.fullmatch(part):
            options = {part[1:-1]}
        elif _IDENTIFIER.fullmatch(part):
            options = lookup(part)
            if options is None:
                return None
        else:
            return None
        values = {v + o for v in values for o in options}
        if len(values) > FOLD_CAP:
            return None
    return values


# A string literal (to the end of the text when it never closes) or a
# bracket or separator outside one.
_TOP_STRUCTURE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[()\[\]+,]', re.S)


def _split_top(text: str, sep: str) -> list[str]:
    """The parts of `text` between the `sep` characters (`+` or `,`) that
    lie outside string literals and brackets."""
    parts = []
    depth = start = 0
    for m in _TOP_STRUCTURE.finditer(text):
        ch = m.group()
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start : m.start()])
            start = m.end()
    parts.append(text[start:])
    return parts


class MockResolutionOracle:
    """Deterministic oracle driven entirely by prompt content.

    Polymorphism: the candidates of the classes `T` of every
    `receiver = new T(...)` in the dataflow context; all candidates when
    there is none, or when one `T` names no candidate.  The context may hold
    an allocation that does not reach the call, so the answer may keep a
    candidate the call cannot reach.  Reflection: the
    class comes from the getMethod receiver (own class for getClass()), the
    methods from folding the getMethod name argument over every definition
    in the context.
    """

    in_process = True  # answers without waiting: `udgscan.pool.issue` asks it on the issuing thread

    def complete(self, prompt: str, site: str = "") -> str:
        if "polymorphic call statement" in prompt:
            return self._polymorphic(prompt)
        if "which class is accessed" in prompt:
            return self._reflection_class(prompt)
        if "invoked through reflection" in prompt:
            return self._reflection_method(prompt)
        raise OracleParseError("mock oracle cannot classify prompt")

    def _polymorphic(self, prompt: str) -> str:
        call = _section(prompt, "Polymorphic Call Statement")
        m = re.search(r"([A-Za-z_$][\w$]*)\s*\.\s*[A-Za-z_$][\w$]*\s*\(", call)
        candidates = _bullet_list(prompt, "Candidate Callee Method Signatures")
        concrete: set[str] = set()
        if m:
            pattern = re.compile(rf"\b{re.escape(m.group(1))}\s*=\s*new\s+([A-Za-z_$][\w$]*)")
            hits = (pattern.search(ln) for ln in _context_lines(prompt))
            concrete = {hit.group(1) for hit in hits if hit}
        # The candidates each allocated class names; a class naming none
        # inherits the method from a class the mock cannot tell.
        named = [[c for c in candidates if f".{t}." in f".{c.split('(')[0]}."] for t in concrete]
        if named and all(named):
            candidates = [c for c in candidates if any(c in n for n in named)]
        return json.dumps({"feasible_targets": candidates})

    def _reflection_class(self, prompt: str) -> str:
        call = _section(prompt, "Reflection API Call Statement")
        lines = _context_lines(prompt)
        classes = _bullet_list(prompt, "Available Classes")
        # A `X.class.getMethod` receiver names the class outright.
        for ln in lines + [call]:
            m = re.search(r"([A-Za-z_$][\w$]*)\s*\.\s*class\s*\.\s*get(?:Declared)?Method", ln)
            if m:
                return json.dumps({"target_class": m.group(1)})
        # getClass().getMethod(...) targets the enclosing class, which the
        # call statement line is qualified with.
        m = re.match(r"([\w.$]+)\.[\w$]+:\d+\|", call)
        if m and any("getClass()" in ln or "getClass ()" in ln for ln in lines + [call]):
            simple = m.group(1).split(".")[-1]
            for c in classes:
                if c == simple or c.endswith("." + simple):
                    return json.dumps({"target_class": c})
        return json.dumps({"target_class": "unknown"})

    def _reflection_method(self, prompt: str) -> str:
        lines = _context_lines(prompt)
        folder = ConstantFolder(lines)
        for ln in reversed(lines):
            m = re.search(r"get(?:Declared)?Method\s*\((.*)\)", ln)
            if m:
                values = fold_concat(_split_top(m.group(1), ",")[0], folder.values.get)
                if values:
                    return json.dumps({"target_methods": sorted(values)})
        return json.dumps({"target_methods": ["unknown"]})
