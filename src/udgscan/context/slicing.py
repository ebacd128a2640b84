"""Explicit context: data-dependency and hop-limited control-flow slicing.

A slice depends on the graph alone, so each one is computed once per graph
and criterion and kept in the graph's memo tables, which any change to the
graph empties (`UnifiedDependencyGraph.derived`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from operator import itemgetter

from ..frontend.model import StatementNode
from ..record import Record
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UnifiedDependencyGraph, is_external

DEFAULT_HOP_LIMIT = 3


class ContextSlice(Record):
    """A set of statements, ordered by (file, line, id), and each one's
    graph distance from the criterion."""

    __slots__ = ("statements", "depths")

    def __init__(self, statements: list[str], depths: dict[str, int] | None = None) -> None:
        self.statements = statements
        self.depths = {} if depths is None else depths


def _ordered(
    g: UnifiedDependencyGraph, ids, statements: Mapping[str, StatementNode] | None = None
) -> list[str]:
    """`ids` in `StatementNode.sort_key` order.  An id outside the graph is
    looked up in `statements`, a model's, which a caller whose `ids` may
    hold one must give."""
    rank = g.rank()
    try:
        return sorted(ids, key=rank.__getitem__)
    except KeyError:
        return sorted(ids, key=lambda sid: (g.nodes.get(sid) or statements[sid]).sort_key())


def data_slice(
    g: UnifiedDependencyGraph, s: StatementNode, direction: str = "both"
) -> ContextSlice:
    """Transitive closure over data-dependency edges; includes the criterion.

    Computed once per graph, node and direction: every call returns the same
    slice, which callers must not mutate."""
    assert direction in ("forward", "backward", "both")
    memo = g.derived("data_slice")
    sl = memo.get((s.id, direction))
    if sl is None:
        depths = _data_depths(g, s.id, direction != "backward")
        if direction == "both":
            for sid, d in _data_depths(g, s.id, False).items():
                if d < depths.get(sid, d + 1):
                    depths[sid] = d
        sl = memo[s.id, direction] = ContextSlice(_ordered(g, depths), depths)
    return sl


def _data_depths(g: UnifiedDependencyGraph, sid: str, forward: bool) -> dict[str, int]:
    """Breadth-first data-dependency distances from `sid` in one direction."""
    edges_of = g.out_edges if forward else g.in_edges
    local: dict[str, int] = {sid: 0}
    work = deque([(sid, 0)])
    while work:
        cur, d = work.popleft()
        for e in edges_of(cur, DATA_DEPENDENCY):
            nxt = e.dst if forward else e.src
            if nxt not in local or local[nxt] > d + 1:
                local[nxt] = d + 1
                work.append((nxt, d + 1))
    return local


def _control_neighbours(g: UnifiedDependencyGraph, sid: str, forward: bool) -> tuple[tuple, tuple]:
    """`sid`'s control-flow and call neighbours in one direction, by
    neighbour id, and the hops the edge to each costs."""
    edges = g.out_edges(sid) if forward else g.in_edges(sid)
    pairs = [
        (e.dst if forward else e.src, 1 if e.tau == CALL else 0)
        for e in edges
        if e.tau in (CONTROL_FLOW, CALL)
    ]
    pairs.sort(key=itemgetter(0))
    return tuple(nxt for nxt, _ in pairs), tuple(cost for _, cost in pairs)


def control_slice(
    g: UnifiedDependencyGraph, s: StatementNode, hop_limit: int = DEFAULT_HOP_LIMIT
) -> ContextSlice:
    """Bidirectional traversal over control-flow and call edges.

    Each call-edge crossing consumes one hop; a neighbour beyond the hop
    limit is not visited, and external nodes terminate paths.
    Computed once per graph, node and hop limit, like `data_slice`; each
    node's neighbours are listed once per graph, on its first visit.
    """
    assert hop_limit >= 0
    memo = g.derived("control_slice")
    sl = memo.get((s.id, hop_limit))
    if sl is not None:
        return sl
    depths: dict[str, int] = {}

    for forward in (True, False):
        adjacency = g.derived("control_out" if forward else "control_in")
        hops: dict[str, int] = {s.id: 0}
        steps: dict[str, int] = {s.id: 0}
        work = deque([s.id])
        while work:
            cur = work.popleft()
            if is_external(cur):
                continue
            neighbours = adjacency.get(cur)
            if neighbours is None:
                neighbours = adjacency[cur] = _control_neighbours(g, cur, forward)
            h, step = hops[cur], steps[cur] + 1
            for nxt, cost in zip(*neighbours):
                nh = h + cost
                if nh <= hop_limit and (nxt not in hops or hops[nxt] > nh):
                    hops[nxt] = nh
                    steps[nxt] = step
                    work.append(nxt)
        for sid, d in steps.items():
            old = depths.get(sid)
            if old is None or d < old:
                depths[sid] = d

    sl = memo[s.id, hop_limit] = ContextSlice(_ordered(g, depths), depths)
    return sl


def merge_slices(g: UnifiedDependencyGraph, slices: list[ContextSlice]) -> ContextSlice:
    """The union of `slices`, each statement at its least depth."""
    depths: dict[str, int] = dict(slices[0].depths) if slices else {}
    for sl in slices[1:]:
        for sid, d in sl.depths.items():
            old = depths.get(sid)
            if old is None or d < old:
                depths[sid] = d
    ids = {sid for sl in slices for sid in sl.statements}
    return ContextSlice(_ordered(g, ids), depths)
