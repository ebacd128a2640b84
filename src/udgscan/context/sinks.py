"""Sensitive-invocation collection over a dependency graph."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from ..frontend.model import RepoModel
from ..udg.calls import call_statements
from ..udg.graph import CALL, UnifiedDependencyGraph


class SensitiveInvocation(NamedTuple):
    statement: str
    api: str
    cwes: Sequence[str] = ()
    origin: str = "knowledge_base"  # "knowledge_base" | "user_sink"

    @property
    def id(self) -> str:
        return f"{self.statement}::{self.api}"


def find_sensitive_invocations(
    g: UnifiedDependencyGraph,
    model: RepoModel,
    kb,
    user_sinks: list | None = None,
) -> list[SensitiveInvocation]:
    """Every call statement matching a knowledge-base API or a user sink.

    User sinks are matched against in-repo function signatures; the call
    sites of the matched functions become invocations.
    """
    found: dict[tuple[str, str], SensitiveInvocation] = {}
    for stmt in call_statements(g):
        for site in stmt.calls:
            entries = kb.match_call(site.qualified_candidates(), site.arity)
            if not entries and site.receiver_type is None and not site.is_constructor:
                # No type information at all: match the bare method name.
                entries = kb.match_call([site.name], site.arity)
            for entry in entries:
                key = (stmt.id, entry.api)
                if key not in found:
                    found[key] = SensitiveInvocation(
                        statement=stmt.id,
                        api=entry.api,
                        cwes=list(entry.cwes),
                        origin="knowledge_base",
                    )
    # `matches_function` needs the method name to equal the pattern's last
    # segment and, for a pattern of two or more segments, the class's simple
    # name to equal the segment before it.  The order functions are tried in
    # does not matter: the invocations are sorted below, and those one sink
    # finds at one statement are equal.
    by_owner: dict[tuple[str, str], list[str]] = {}
    if user_sinks:
        for fid, func in model.functions.items():
            by_owner.setdefault((func.class_name.rsplit(".", 1)[-1], func.name), []).append(fid)
    for sink in user_sinks or []:
        segments = sink.pattern.split(".")
        if len(segments) == 1:
            fids = model.functions_by_name.get(segments[0], ())
        else:
            fids = by_owner.get((segments[-2], segments[-1]), ())
        for fid in fids:
            func = model.functions[fid]
            if not sink.matches_function(func):
                continue
            for e in g.in_edges(func.entry, CALL):
                src = g.nodes.get(e.src)
                if src is None or src.synthetic:
                    continue
                key = (src.id, sink.pattern)
                if key not in found:
                    found[key] = SensitiveInvocation(
                        statement=src.id,
                        api=sink.pattern,
                        cwes=[sink.cwe_id],
                        origin="user_sink",
                    )
    return sorted(found.values(), key=lambda inv: (g.nodes[inv.statement].sort_key(), inv.api))
