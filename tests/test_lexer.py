"""The tokenizer checked against the character-loop lexer it replaced.

`reference_tokenize` is that lexer, kept verbatim (with a local `Token`
that still has the `col` field it filled). The regex tokenizer must give
the same (kind, text, line, start, end) tuples, or raise the same subset
violation with the same line and message, on any input. Two differences
are allowed. A string or char literal whose last character in the file is
a backslash made the reference index past the end of the text
(`IndexError`); it is now the matching "unterminated ... literal" error.
And the reference let a char literal run across line breaks to the next
quote; such a literal is now an "unterminated char literal" at its line,
as a string literal already was.

The fuzzed strings leave out non-decimal Unicode digits such as `²` or
`½`. They are not legal Java, and the two lexers disagree on them: the
reference tests `str.isdigit`/`str.isalpha`, the regex uses `\\d` and
`\\w`.
"""

import os
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES

from udgscan.errors import SubsetViolation
from udgscan.frontend.lexer import KEYWORDS, tokenize
from udgscan.harness.generate import random_summary_program

Token = namedtuple("Token", "kind text line col start end")

# Multi-character operators, longest first.
_OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>",
    "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>",
]


def reference_tokenize(text: str, path: str = "<memory>") -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            advance(2)
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                advance(1)
            if i + 1 >= n:
                raise SubsetViolation(path, line, "unterminated block comment")
            advance(2)
            continue
        start_line, start_col, start = line, col, i
        if ch == '"':
            advance(1)
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    advance(1)
                if text[i] == "\n":
                    raise SubsetViolation(path, start_line, "unterminated string literal")
                advance(1)
            if i >= n:
                raise SubsetViolation(path, start_line, "unterminated string literal")
            advance(1)
            tokens.append(Token("string", text[start:i], start_line, start_col, start, i))
            continue
        if ch == "'":
            advance(1)
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    advance(1)
                advance(1)
            if i >= n:
                raise SubsetViolation(path, start_line, "unterminated char literal")
            advance(1)
            tokens.append(Token("char", text[start:i], start_line, start_col, start, i))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            while i < n and (text[i].isalnum() or text[i] in "._xX"):
                # Stop a trailing dot that starts a method call on a literal.
                if text[i] == "." and not (i + 1 < n and (text[i + 1].isdigit() or text[i + 1] in "eE")):
                    break
                advance(1)
            tokens.append(Token("number", text[start:i], start_line, start_col, start, i))
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            while i < n and (text[i].isalnum() or text[i] in "_$"):
                advance(1)
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_col, start, i))
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                advance(len(op))
                tokens.append(Token("punct", op, start_line, start_col, start, i))
                matched = True
                break
        if matched:
            continue
        advance(1)
        tokens.append(Token("punct", ch, start_line, start_col, start, i))
    return tokens


def lex(tokenizer, text):
    """Token tuples, or the (line, message) of the subset violation."""
    try:
        return [(t.kind, t.text, t.line, t.start, t.end) for t in tokenizer(text, "T.java")]
    except SubsetViolation as exc:
        assert exc.path == "T.java"
        return (exc.line, exc.message)


def multiline_char_line(text):
    """The line of the first char literal the reference lexes across a line
    break, or None. The extent of the reference's tokens up to a char
    literal does not depend on the text after it, so each quote is tried as
    the end of a prefix."""
    for end in range(1, len(text) + 1):
        if text[end - 1] != "'":
            continue
        try:
            tokens = reference_tokenize(text[:end])
        except (SubsetViolation, IndexError):
            continue
        last = tokens[-1] if tokens else None
        if last and last.kind == "char" and last.end == end and "\n" in last.text:
            return last.line
    return None


def expected(text):
    line = multiline_char_line(text)
    if line is not None:
        return (line, "unterminated char literal")
    try:
        return lex(reference_tokenize, text)
    except IndexError:
        # A literal ran into a final backslash. Without it, the reference
        # reports that literal as unterminated, at its line.
        assert text.endswith("\\")
        want = lex(reference_tokenize, text[:-1])
        assert want[1] in ("unterminated string literal", "unterminated char literal")
        return want


FRAGMENTS = (
    list("abcdefxyzABCXYZ0123456789$_.ex")
    + ['"', "'", "\\", "/*", "*/", "//", "/", "*", "\n", " ", "\t", "\r", "\f", "é"]
    + list("{}()[];,=+-<>!&|^%?:@~")
    + _OPERATORS
    + ["class", "int", "return", "0x1F", "1.5e3", ".5", "1.e2", "1.equals"]
)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join), st.sampled_from(["", "\\"]))
# Char literals across line breaks, which the fuzzed strings rarely hold.
@example("char d = 'x;\nint y = 'b;", "")
@example("a\n'b\n'", "\\")
@example("'\\\n' 'x", "\\")
@example("/* ' */ '\n'", "")
@example("\"'\" 'a'\n'b", "")
def test_tokenize_matches_reference(text, tail):
    assert lex(tokenize, text + tail) == expected(text + tail)


def corpus_texts():
    for name in sorted(os.listdir(FIXTURES)):
        folder = os.path.join(FIXTURES, name)
        for fn in sorted(os.listdir(folder)):
            with open(os.path.join(folder, fn), encoding="utf-8") as fh:
                yield fh.read()
    for seed in range(8):
        yield random_summary_program(seed)


def test_tokenize_matches_reference_on_fixtures_and_generated_programs():
    for text in corpus_texts():
        got = lex(tokenize, text)
        assert isinstance(got, list) and got
        assert got == expected(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('int a;\nString s = "ab\\', 2, "unterminated string literal"),
        ("int a;\n\nchar c = '\\", 3, "unterminated char literal"),
        ('String s = "ab\nc";', 1, "unterminated string literal"),
        ("char d = 'x;\nint y = 'b;", 1, "unterminated char literal"),
        ("int a;\n/* open\n\n", 3, "unterminated block comment"),
        ("int a; /*", 1, "unterminated block comment"),
    ],
)
def test_unterminated_constructs_report_their_line(text, line, message):
    with pytest.raises(SubsetViolation) as info:
        tokenize(text, "T.java")
    assert (info.value.path, info.value.line, info.value.message) == ("T.java", line, message)


# What trails the last token, or a file with no token, ends the walk.
@pytest.mark.parametrize(
    "text, want",
    [
        ("int a; \n\t \n", [("keyword", "int", 1, 0, 3), ("ident", "a", 1, 4, 5), ("punct", ";", 1, 5, 6)]),
        ("x; // done", [("ident", "x", 1, 0, 1), ("punct", ";", 1, 1, 2)]),
        ("// one\n/* two\n */ // three", []),
        ("", []),
        (" \n ", []),
    ],
    ids=["trailing-whitespace", "trailing-line-comment", "only-comments", "empty", "only-whitespace"],
)
def test_end_of_text(text, want):
    assert lex(tokenize, text) == want == expected(text)


def test_unterminated_block_comment_after_trailing_blanks():
    # Reported at the line of the text's last character, where the scan for
    # the closing `*/` gave up.
    text = "int a;\n  \n\t\n/* open\n\n"
    assert lex(tokenize, text) == (5, "unterminated block comment") == expected(text)


# The separators and operators of the subset: a token with one of these
# texts, or with a keyword's, is punctuation, or that keyword.
PUNCTUATION = frozenset(list("{}()[];,.=+-*/<>!&|^%?:@~") + _OPERATORS)


def assert_text_fixes_kind(text):
    try:
        tokens = tokenize(text)
    except SubsetViolation:
        return
    for tok in tokens:
        if tok.text in KEYWORDS:
            assert tok.kind == "keyword", tok
        if tok.text in PUNCTUATION:
            assert tok.kind == "punct", tok
        if tok.kind == "keyword":
            assert tok.text in KEYWORDS, tok


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS + sorted(KEYWORDS) + ["'a'", '"if"', '";"']), max_size=40).map("".join))
def test_a_token_text_fixes_keyword_and_punctuation_kinds(text):
    assert_text_fixes_kind(text)


def test_a_token_text_fixes_keyword_and_punctuation_kinds_on_fixtures_and_generated_programs():
    for text in corpus_texts():
        assert_text_fixes_kind(text)
