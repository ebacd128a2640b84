"""Tokenizer for the supported Java subset.

Produces position-annotated tokens with absolute character offsets so that
later passes (def/use extraction, identifier rewriting) can splice the
original text precisely.  Comments and whitespace are skipped but line
numbers remain exact.

One compiled master regular expression does the work: its named
alternatives are tried in order at each position (skip, string, char,
number, word, bad, punct), and `tokenize` walks its matches, counting the
newlines between token starts for line numbers.  `skip` is whitespace and
`//`/`/* */` comments; `bad` matches the opening `/*`, `"` or `'` of a
construct that does not close; `punct` ends in a one-character catch-all,
so every character of the text belongs to some match.  This is the only
place that knows the comment grammar: the parser derives each file's
trivia lines from these tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

_MASTER = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in [
            ("skip", r"[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/"),
            ("string", r'"(?:[^"\\\n]|\\[^\n])*"'),
            ("char", r"'(?:[^'\\\n]|\\[^\n])*'"),
            # A dot continues a number only before a digit or an exponent.
            ("number", r"\.?\d(?:\w|\.(?=[\deE]))*"),
            ("word", r"(?:[^\W\d]|\$)[\w$]*"),
            ("bad", r"/\*|[\"']"),
            ("punct", "|".join(map(re.escape, _OPERATORS)) + r"|[\s\S]"),
        ]
    )
)
_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "char literal"}


@dataclass
class Token:
    kind: str  # "ident" | "keyword" | "number" | "string" | "char" | "punct"
    text: str
    line: int
    start: int  # absolute offset, inclusive
    end: int  # absolute offset, exclusive

    def is_punct(self, *texts: str) -> bool:
        return self.kind == "punct" and self.text in texts

    def is_kw(self, *texts: str) -> bool:
        return self.kind == "keyword" and self.text in texts


def tokenize(text: str, path: str = "<memory>") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    counted = 0  # offset up to which newlines are counted into `line`
    for m in _MASTER.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        start = m.start()
        line += text.count("\n", counted, start)
        counted = start
        lexeme = m.group()
        if kind == "bad":
            if lexeme == "/*":
                # Reported where the scan for "*/" gave up: the last character.
                line += text.count("\n", start, max(len(text) - 1, start + 2))
            raise SubsetViolation(path, line, f"unterminated {_UNTERMINATED[lexeme]}")
        if kind == "word":
            kind = "keyword" if lexeme in KEYWORDS else "ident"
        tokens.append(Token(kind, lexeme, line, start, m.end()))
    return tokens
