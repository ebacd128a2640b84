"""`json_objects` against the character-by-character scanner it replaced."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from udgscan.enhance.oracle import json_objects


def reference_json_objects(text):
    """The previous scanner: one Python step per character."""
    spans = []
    depth = 0
    start = -1
    in_str = False
    escape = False
    for i, ch in enumerate(text):
        if in_str:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}":
            if depth > 0:
                depth -= 1
                if depth == 0 and start >= 0:
                    spans.append(text[start : i + 1])
    for span in reversed(spans):
        try:
            obj = json.loads(span)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            yield obj


FRAGMENTS = ['{', '}', '"', '\\', '\\"', ':', ',', '[', ']', ' ', '\n', 'a', '1', 'true', 'null', '"k"', '```json\n', '```']

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def _same(text):
    assert list(json_objects(text)) == list(reference_json_objects(text))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join)))
@example('{"a": "}"} {"b": 1')
@example('x "unclosed {"a": 1}')
@example('{"a": "\\\\"} trailing \\')
@example('{"a": "x\\\n"}')
def test_json_objects_match_reference_on_arbitrary_text(text):
    _same(text)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.text(max_size=6), json_values, max_size=4), min_size=1, max_size=3),
    st.lists(st.text(max_size=20), min_size=4, max_size=4),
    st.booleans(),
    st.integers(min_value=0, max_value=40),
)
def test_json_objects_match_reference_on_fenced_and_nested_json(objects, prose, fenced, cut):
    parts = [prose[0]]
    for i, obj in enumerate(objects):
        dumped = json.dumps(obj, indent=2 if i % 2 else None, ensure_ascii=bool(i % 2))
        parts.append(f"```json\n{dumped}\n```" if fenced else dumped)
        parts.append(prose[(i + 1) % 4])
    text = "".join(parts)
    _same(text)
    _same(text[: len(text) - cut])  # an answer cut off mid-object
    _same(text[cut:])
