"""Structured statement forms retained for control-flow construction.

The parser lowers every simple statement to a StatementNode immediately; the
shapes below only preserve the nesting needed to wire control-flow edges and
to resolve labeled-jump targets.  All references are statement ids.
"""

from __future__ import annotations

from typing import NamedTuple


class Simple(NamedTuple):
    node: str


class Return(NamedTuple):
    node: str


class Jump(NamedTuple):
    node: str
    kind: str  # "break" | "continue" | "throw"
    label: str = ""


class Block(NamedTuple):
    stmts: list


class If(NamedTuple):
    cond: str
    then: list
    orelse: list


class While(NamedTuple):
    cond: str
    body: list


class DoWhile(NamedTuple):
    cond: str
    body: list


class For(NamedTuple):
    init: str | None
    cond: str | None
    update: str | None
    body: list


class ForEach(NamedTuple):
    header: str  # loop_header node: the implicit has-next check
    update: str  # assignment node binding the loop variable each iteration
    body: list


class Switch(NamedTuple):
    selector: str
    cases: list  # list of (is_default, stmts)


class Labeled(NamedTuple):
    label: str
    label_node: str
    inner: object = None


class Try(NamedTuple):
    body: list
    catches: list  # list of stmt lists, parsed but not wired
    finally_: list


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
