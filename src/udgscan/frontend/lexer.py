"""Tokenizer for the supported Java subset.

Produces position-annotated tokens with absolute character offsets so that
later passes (def/use extraction, identifier rewriting) can splice the
original text precisely.  Comments and whitespace are skipped but line
numbers remain exact.
"""

from __future__ import annotations

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

# Multi-character operators, longest first.
_OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>",
    "...", "->", "::",
    "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>",
]


@dataclass
class Token:
    kind: str  # "ident" | "keyword" | "number" | "string" | "char" | "punct"
    text: str
    line: int
    col: int
    start: int  # absolute offset, inclusive
    end: int  # absolute offset, exclusive

    def is_punct(self, *texts: str) -> bool:
        return self.kind == "punct" and self.text in texts

    def is_kw(self, *texts: str) -> bool:
        return self.kind == "keyword" and self.text in texts


def tokenize(text: str, path: str = "<memory>") -> list[Token]:
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

