"""Explicit context: data-dependency and hop-limited control-flow slicing."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..frontend.model import StatementNode
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UnifiedDependencyGraph

DEFAULT_HOP_LIMIT = 3


@dataclass
class ContextSlice:
    kind: str  # data | control | usage | definition | declaration | explicit | holistic
    statements: list[str] = field(default_factory=list)  # ordered by (file, line, id)
    boundary_notes: list[str] = field(default_factory=list)
    depths: dict[str, int] = field(default_factory=dict)  # graph distance from the criterion

    def line_set(self, g_or_model) -> set[int]:
        """Source lines covered by the slice's non-synthetic statements."""
        lines: set[int] = set()
        for sid in self.statements:
            node = _node(g_or_model, sid)
            if node is None or node.synthetic:
                continue
            lines.update(node.span_lines())
        return lines


def _node(g_or_model, sid: str) -> StatementNode | None:
    if isinstance(g_or_model, UnifiedDependencyGraph):
        return g_or_model.nodes.get(sid)
    return g_or_model.statements.get(sid)


def _ordered(g: UnifiedDependencyGraph, ids: set[str]) -> list[str]:
    return sorted(ids, key=lambda sid: g.nodes[sid].sort_key() if sid in g.nodes else ("", 0, sid))


def data_slice(
    g: UnifiedDependencyGraph, s: StatementNode, direction: str = "both"
) -> ContextSlice:
    """Transitive closure over data-dependency edges; includes the criterion."""
    assert direction in ("forward", "backward", "both")
    depths: dict[str, int] = {s.id: 0}
    notes: list[str] = []
    directions = ["forward", "backward"] if direction == "both" else [direction]
    for mode in directions:
        local: dict[str, int] = {s.id: 0}
        work = deque([(s.id, 0)])
        while work:
            cur, d = work.popleft()
            edges = (
                g.out_edges(cur, DATA_DEPENDENCY)
                if mode == "forward"
                else g.in_edges(cur, DATA_DEPENDENCY)
            )
            for e in edges:
                nxt = e.dst if mode == "forward" else e.src
                if nxt not in local or local[nxt] > d + 1:
                    local[nxt] = d + 1
                    work.append((nxt, d + 1))
        for sid, d in local.items():
            depths[sid] = min(depths.get(sid, d), d)
    return ContextSlice(kind="data", statements=_ordered(g, set(depths)), boundary_notes=notes, depths=depths)


def control_slice(
    g: UnifiedDependencyGraph, s: StatementNode, hop_limit: int = DEFAULT_HOP_LIMIT
) -> ContextSlice:
    """Bidirectional traversal over control-flow and call edges.

    Each call-edge crossing consumes one hop; traversal halts at the hop
    limit with a truncation note, and external nodes terminate paths.
    """
    assert hop_limit >= 0
    best: dict[str, int] = {}
    depths: dict[str, int] = {s.id: 0}
    notes: list[str] = []
    truncated = False
    externals: set[str] = set()

    for mode in ("forward", "backward"):
        hops: dict[str, int] = {s.id: 0}
        steps: dict[str, int] = {s.id: 0}
        work = deque([s.id])
        while work:
            cur = work.popleft()
            node = g.nodes.get(cur)
            if node is not None and node.external:
                externals.add(cur)
                continue
            edges = (
                g.out_edges(cur) if mode == "forward" else g.in_edges(cur)
            )
            for e in sorted(edges, key=lambda e: (e.dst if mode == "forward" else e.src)):
                if e.tau not in (CONTROL_FLOW, CALL):
                    continue
                cost = 1 if e.tau == CALL else 0
                nxt = e.dst if mode == "forward" else e.src
                nh = hops[cur] + cost
                if nh > hop_limit:
                    truncated = True
                    continue
                if nxt not in hops or hops[nxt] > nh:
                    hops[nxt] = nh
                    steps[nxt] = steps[cur] + 1
                    work.append(nxt)
        for sid, h in hops.items():
            best[sid] = min(best.get(sid, h), h)
            depths[sid] = min(depths.get(sid, steps[sid]), steps[sid])

    if truncated:
        notes.append(f"control slice truncated at {hop_limit} call hops")
    for ext in sorted(externals):
        notes.append(f"external boundary crossed: {g.nodes[ext].text}")
    return ContextSlice(
        kind="control", statements=_ordered(g, set(best)), boundary_notes=notes, depths=depths
    )


def merge_slices(kind: str, g: UnifiedDependencyGraph, slices: list[ContextSlice]) -> ContextSlice:
    ids: set[str] = set()
    notes: list[str] = []
    depths: dict[str, int] = {}
    for sl in slices:
        ids.update(sl.statements)
        for note in sl.boundary_notes:
            if note not in notes:
                notes.append(note)
        for sid, d in sl.depths.items():
            depths[sid] = min(depths.get(sid, d), d)
    return ContextSlice(kind=kind, statements=_ordered(g, ids), boundary_notes=notes, depths=depths)


def explicit_context(
    g: UnifiedDependencyGraph,
    s: StatementNode,
    hop_limit: int = DEFAULT_HOP_LIMIT,
) -> ContextSlice:
    """Union of bidirectional data slicing and hop-limited control slicing."""
    return merge_slices(
        "explicit", g, [data_slice(g, s, "both"), control_slice(g, s, hop_limit)]
    )
