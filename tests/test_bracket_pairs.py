"""Bracket pairs recorded by the per-file token pass, checked against a walk.

`_Cursor.skip_balanced` jumps to the closer that the file parser paired
with each `(`, `[` and `{` when it marked the trivia lines. `walk_skip` is
the token-by-token walk it replaced, kept as the reference: on random token
texts with unbalanced, interleaved and truncated groups, and a random `end`,
both must leave the cursor at the same position and return the same closer,
or raise the same subset violation at the same line.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from udgscan.errors import DiagnosticSink, SubsetViolation
from udgscan.frontend.model import RepoModel, SourceFile
from udgscan.frontend.parser import _FileParser

CLOSE = {"(": ")", "[": "]", "{": "}"}


def walk_skip(cursor, open_t):
    """The reference: consume from `open_t` to its matching closer, one token
    at a time, counting only brackets of the same type."""
    close_t = CLOSE[open_t]
    cursor.expect(open_t)
    depth = 1
    while depth > 0:
        tok = cursor.next()
        if tok.text == open_t:
            depth += 1
        elif tok.text == close_t:
            depth -= 1
    return tok


def cursor_for(text):
    return _FileParser(SourceFile(path="T.java", text=text), RepoModel(root=""), DiagnosticSink())


def outcome(text, skip, open_t, start, end, eof_line):
    """(position, index of the returned closer), or the violation's (line, message)."""
    cursor = cursor_for(text)
    cursor.pos, cursor.end, cursor.eof_line = start, end, eof_line
    try:
        tok = skip(cursor, open_t)
    except SubsetViolation as exc:
        assert exc.path == "T.java"
        return (exc.line, exc.message)
    return cursor.pos, cursor.tokens.index(tok)


def jump_skip(cursor, open_t):
    return cursor.skip_balanced(open_t)


TOKENS = list("()[]{}") * 3 + ["a", ";", "\n", '"("', "'}'", "/* ( */", "// {\n"]


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(
    st.lists(st.sampled_from(TOKENS), max_size=30),
    st.sampled_from(sorted(CLOSE)),
    st.integers(0, 40),
    st.integers(0, 40),
    st.integers(1, 5),
)
@example(["(", "(", ")"], "(", 0, 3, 2)  # the closer is missing
@example(["{", "a", "}", "}"], "{", 0, 2, 1)  # the closer lies at `end`
@example(["(", "[", ")", "]"], "(", 0, 4, 1)  # interleaved types pair apart
@example(["]", "[", "]"], "[", 1, 3, 1)  # an unopened closer before the group
@example(["a", "("], "(", 0, 2, 1)  # no opener at the cursor
def test_skip_balanced_matches_the_walk(texts, open_t, start, end, eof_line):
    text = " ".join(texts)
    n = len(cursor_for(text).tokens)
    start, end = min(start, n), min(end, n)
    want = outcome(text, walk_skip, open_t, start, end, eof_line)
    assert outcome(text, jump_skip, open_t, start, end, eof_line) == want
