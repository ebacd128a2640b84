"""Tokenizer for the supported Java subset.

Produces position-annotated tokens with absolute character offsets so that
later passes (def/use extraction, identifier rewriting) can splice the
original text precisely.  Comments and whitespace are skipped but line
numbers remain exact.

One compiled master regular expression does the work, one match per
token: each match is the whitespace and `//`/`/* */` comments before a
token, as a prefix, then the token itself, one of the named alternatives
tried in order (word, punct, string, char, number, bad, other), or the end
of the text, which ends the walk.  `tokenize` counts the newlines between
token starts for line numbers.  `bad` matches the opening `/*`, `"` or `'`
of a construct that does not close; `other` is a one-character catch-all,
so every character of the text belongs to some match.  This is the only
place that knows the comment grammar: the parser derives each file's
trivia lines, and its bracket pairs, from these tokens.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import SubsetViolation

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

PRIMITIVES = frozenset("boolean byte char double float int long short void".split())

# Multi-character operators, longest first: the regex tries them in this order.
_OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>",
    "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>",
]

# The alternatives are tried in order, the most frequent first.  `punct`
# takes the brackets and separators, the operators (longest first), a `.`
# that starts no number, a `/` that starts no comment and any character that
# starts no other token; `other` takes what is left, such as a form feed.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)*"
_MASTER = re.compile(
    _SKIP
    + "(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in [
            ("word", r"(?:[^\W\d]|\$)[\w$]*"),
            (
                "punct",
                r"[;(){}\[\],]|"
                + "|".join(map(re.escape, _OPERATORS))
                + r"|\.(?!\d)|/(?!\*)|[^\w\s$\"'./]",
            ),
            ("string", r'"(?:[^"\\\n]|\\[^\n])*"'),
            ("char", r"'(?:[^'\\\n]|\\[^\n])*'"),
            # A dot continues a number only before a digit or an exponent.
            ("number", r"\.?\d(?:\w|\.(?=[\deE]))*"),
            ("bad", r"/\*|[\"']"),
            ("other", r"[\s\S]"),
            ("end", r"\Z"),
        ]
    )
    + ")"
)
_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "char literal"}


class Token(NamedTuple):
    """A token; its text fixes its kind for keywords and punctuation, since
    no identifier spells a keyword and a literal's text keeps its quotes."""

    kind: str  # "ident" | "keyword" | "number" | "string" | "char" | "punct"
    text: str
    line: int
    start: int  # absolute offset, inclusive
    end: int  # absolute offset, exclusive


def tokenize(text: str, path: str = "<memory>") -> list[Token]:
    tokens: list[Token] = []
    # Built with `tuple.__new__`, in C, not the named tuple's Python `__new__`.
    append, count, new = tokens.append, text.count, tuple.__new__
    line = 1
    counted = 0  # offset up to which newlines are counted into `line`
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        if kind == "end":
            break
        start, end = m.span(kind)
        line += count("\n", counted, start)
        counted = start
        lexeme = text[start:end]
        if kind == "word":
            kind = "keyword" if lexeme in KEYWORDS else "ident"
        elif kind == "other":
            kind = "punct"
        elif kind == "bad":
            if lexeme == "/*":
                # Reported where the scan for "*/" gave up: the last character.
                line += count("\n", start, max(len(text) - 1, start + 2))
            raise SubsetViolation(path, line, f"unterminated {_UNTERMINATED[lexeme]}")
        append(new(Token, (kind, lexeme, line, start, end)))
    return tokens
