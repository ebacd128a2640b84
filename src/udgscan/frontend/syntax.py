"""Structured statement forms retained for control-flow construction.

The parser lowers every simple statement to a StatementNode immediately; the
shapes below only preserve the nesting needed to wire control-flow edges and
to resolve labeled-jump targets.  All references are statement ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Simple:
    node: str


@dataclass
class Return:
    node: str


@dataclass
class Jump:
    node: str
    kind: str  # "break" | "continue" | "throw"
    label: str = ""


@dataclass
class Block:
    stmts: list = field(default_factory=list)


@dataclass
class If:
    cond: str
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


@dataclass
class While:
    cond: str
    body: list = field(default_factory=list)


@dataclass
class DoWhile:
    cond: str
    body: list = field(default_factory=list)


@dataclass
class For:
    init: str | None
    cond: str | None
    update: str | None
    body: list = field(default_factory=list)


@dataclass
class ForEach:
    header: str  # loop_header node: the implicit has-next check
    update: str  # assignment node binding the loop variable each iteration
    body: list = field(default_factory=list)


@dataclass
class Switch:
    selector: str
    cases: list = field(default_factory=list)  # list of (is_default, stmts)


@dataclass
class Labeled:
    label: str
    label_node: str
    inner: object = None


@dataclass
class Try:
    body: list = field(default_factory=list)
    catches: list = field(default_factory=list)  # list of stmt lists, parsed but not wired
    finally_: list = field(default_factory=list)


def head_node(stmt) -> str | None:
    """First CFG node of a structured statement, or None for empty blocks."""
    if isinstance(stmt, Simple):
        return stmt.node
    if isinstance(stmt, (Return, Jump)):
        return stmt.node
    if isinstance(stmt, If):
        return stmt.cond
    if isinstance(stmt, While):
        return stmt.cond
    if isinstance(stmt, DoWhile):
        return head_of_list(stmt.body) or stmt.cond
    if isinstance(stmt, For):
        return stmt.init or stmt.cond or head_of_list(stmt.body)
    if isinstance(stmt, ForEach):
        return stmt.header
    if isinstance(stmt, Switch):
        return stmt.selector
    if isinstance(stmt, Labeled):
        return stmt.label_node
    if isinstance(stmt, Try):
        return head_of_list(stmt.body) or head_of_list(stmt.finally_)
    if isinstance(stmt, Block):
        return head_of_list(stmt.stmts)
    return None


def head_of_list(stmts: list) -> str | None:
    for s in stmts:
        h = head_node(s)
        if h is not None:
            return h
    return None
