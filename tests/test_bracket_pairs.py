"""Bracket pairs recorded by the per-file token pass, checked against
references.

The file parser pairs each `(`, `[` and `{` with its closer on one stack
when it marks the trivia lines, and a file whose brackets do not nest is a
subset violation there.  `nesting_error` is the rule as a reference: on
random token texts, pairing raises exactly when it names a bracket at
fault, with its line and message.  When the brackets nest,
`_Cursor.skip_balanced` jumps to the recorded closer; `walk_skip`, the
token-by-token walk it replaced, is the reference for it on the windows the
parser reads (the whole file, or the inside of a group).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from udgscan.errors import DiagnosticSink, SubsetViolation
from udgscan.frontend.lexer import tokenize
from udgscan.frontend.model import RepoModel, SourceFile
from udgscan.frontend.parser import _FileParser

CLOSE = {"(": ")", "[": "]", "{": "}"}
LEAVES = ["a", ";", "\n", '"("', "'}'", "/* ( */", "// {\n"]
TOKENS = list("()[]{}") * 3 + LEAVES


def nesting_error(text):
    """The reference: (line, message) of the bracket at fault, or None when
    the brackets nest.  A closer of a type that no open group has is
    unmatched; any other closer that does not close the innermost open
    group, and the end of the text, leave that group unclosed."""
    opened = []
    for tok in tokenize(text, "T.java"):
        if tok.text in CLOSE:
            opened.append(tok)
        elif tok.text in CLOSE.values():
            if opened and CLOSE[opened[-1].text] == tok.text:
                opened.pop()
            elif all(CLOSE[o.text] != tok.text for o in opened):
                return tok.line, f"unmatched '{tok.text}'"
            else:
                break
    return (opened[-1].line, f"unclosed '{opened[-1].text}'") if opened else None


def nests(text):
    """Whether deleting adjacent pairs `()`, `[]` and `{}` from the text's
    brackets leaves none."""
    brackets = "".join(t.text for t in tokenize(text, "T.java") if t.text in "()[]{}")
    while any(pair in brackets for pair in ("()", "[]", "{}")):
        for pair in ("()", "[]", "{}"):
            brackets = brackets.replace(pair, "")
    return brackets == ""


def cursor_for(text):
    return _FileParser(SourceFile(path="T.java", text=text), RepoModel(root=""), DiagnosticSink())


def pairing_error(text):
    try:
        cursor_for(text)
    except SubsetViolation as exc:
        assert exc.path == "T.java"
        return exc.line, exc.message
    return None


def groups(inner):
    """Lists of leaves and of groups around `inner`, flattened."""
    group = st.tuples(st.sampled_from(sorted(CLOSE)), inner).map(lambda g: [g[0], *g[1], CLOSE[g[0]]])
    part = st.one_of(st.sampled_from(LEAVES).map(lambda t: [t]), group)
    return st.lists(part, max_size=4).map(lambda parts: sum(parts, []))


NESTED = st.recursive(st.lists(st.sampled_from(LEAVES), max_size=3), groups, max_leaves=12)
# A nesting text with one token inserted, which may break it.
NEAR_NESTED = st.tuples(NESTED, st.integers(0, 60), st.sampled_from(TOKENS)).map(
    lambda e: e[0][: e[1]] + [e[2]] + e[0][e[1] :]
)


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(TOKENS), max_size=30), NESTED, NEAR_NESTED))
@example(["a", "[", "(", "]", ")"])  # interleaved: the `(` never closes
@example(["{", "\n", "(", "a", "}"])  # a brace inside a group
@example(["(", ")", "\n", ")"])  # a stray closer
@example(["{", "\n", "(", "]", "}"])  # a closer of a type no open group has
@example(["{", "\n", "[", "\n"])  # the end of the text leaves the innermost open
def test_pairing_raises_exactly_where_brackets_do_not_nest(texts):
    text = " ".join(texts)
    want = nesting_error(text)
    assert (want is None) == nests(text)
    assert pairing_error(text) == want


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


def jump_skip(cursor, open_t):
    return cursor.skip_balanced(open_t)


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


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(NESTED, st.sampled_from(sorted(CLOSE)), st.integers(0, 40), st.integers(0, 40), st.integers(1, 5))
@example(["(", "(", ")", ")"], "(", 1, 0, 2)  # the inner group of the outer's window
@example(["(", "[", "]", ")"], "[", 1, 1, 1)  # a group of another type
@example(["a", "(", ")"], "(", 0, 0, 1)  # no opener at the cursor
@example(["{", "}"], "{", 1, 0, 3)  # an empty window
def test_skip_balanced_matches_the_walk_on_the_parsers_windows(texts, open_t, window, start, eof_line):
    text = " ".join(texts)
    cursor = cursor_for(text)
    n = len(cursor.tokens)
    windows = [(0, n)] + [(i + 1, cursor.closers[i]) for i, t in enumerate(cursor.tokens) if t.text in CLOSE]
    lo, end = windows[window % len(windows)]
    start = lo + start % (end - lo + 1)
    want = outcome(text, walk_skip, open_t, start, end, eof_line)
    assert outcome(text, jump_skip, open_t, start, end, eof_line) == want
