"""Explicit context: data-dependency and hop-limited control-flow slicing.

A slice depends on the graph alone, so each one is computed once per graph
and criterion and kept in the graph's memo tables, which any change to the
graph empties (`UnifiedDependencyGraph.derived`).  A slice's statements are
in source order; its depths are graph distances from the criterion, with
no cap, which the token budget's drop order reads.  Each traversal is a
list the loop appends to as it reads it, and merging slices sorts their
concatenated statements, runs that are each in order already.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from ..frontend.model import StatementNode
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UnifiedDependencyGraph, is_external

DEFAULT_HOP_LIMIT = 3
_HOPS = {CONTROL_FLOW: 0, CALL: 1}  # per edge type the control slice walks, its hops


class ContextSlice(NamedTuple):
    """A set of statements, ordered by (file, line, id), and each one's
    graph distance from the criterion."""

    statements: list[str]
    depths: Mapping[str, int] = MappingProxyType({})


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
            depths = _least(depths, _data_depths(g, s.id, False))
        sl = memo[s.id, direction] = ContextSlice(_ordered(g, depths), depths)
    return sl


def _data_depths(g: UnifiedDependencyGraph, sid: str, forward: bool) -> dict[str, int]:
    """Breadth-first data-dependency distances from `sid` in one direction:
    the first visit to a node is by a shortest path."""
    edges_of = g.out_edges if forward else g.in_edges
    local: dict[str, int] = {sid: 0}
    work = [sid]
    for cur in work:  # a queue: the loop reaches what it appends
        d = local[cur] + 1
        for e in edges_of(cur, DATA_DEPENDENCY):
            nxt = e.dst if forward else e.src
            if nxt not in local:
                local[nxt] = d
                work.append(nxt)
    return local


def _least(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    """The union of two depth maps, each statement at its lesser depth."""
    out = {**b, **a}
    for sid in a.keys() & b.keys():
        if b[sid] < out[sid]:
            out[sid] = b[sid]
    return out


def _control_neighbours(g: UnifiedDependencyGraph, sid: str, forward: bool) -> tuple[tuple, tuple]:
    """`sid`'s control-flow and call neighbours in one direction, by
    neighbour id, and the hops the edge to each costs: none for an external
    node, where paths end."""
    if is_external(sid):
        return (), ()
    if forward:
        pairs = [(dst, _HOPS[tau]) for _, dst, tau, _ in g.out_edges(sid) if tau in _HOPS]
    else:
        pairs = [(src, _HOPS[tau]) for src, _, tau, _ in g.in_edges(sid) if tau in _HOPS]
    pairs.sort(key=itemgetter(0))
    return tuple(zip(*pairs)) or ((), ())


def control_slice(
    g: UnifiedDependencyGraph, s: StatementNode, hop_limit: int = DEFAULT_HOP_LIMIT
) -> ContextSlice:
    """Bidirectional traversal over control-flow and call edges.

    Each call-edge crossing consumes one hop; a neighbour beyond the hop
    limit is not visited, and external nodes terminate paths.  A
    statement's depth is its step count along the path that first reached
    it with its fewest hops, the lesser of the two directions.
    Computed once per graph, node and hop limit, like `data_slice`; each
    node's neighbours are listed once per graph, on its first visit, and an
    external node lists none.
    """
    assert hop_limit >= 0
    memo = g.derived("control_slice")
    sl = memo.get((s.id, hop_limit))
    if sl is not None:
        return sl
    both = []
    for forward in (True, False):
        adjacency = g.derived("control_out" if forward else "control_in")
        hops: dict[str, int] = {s.id: 0}
        steps: dict[str, int] = {s.id: 0}
        work = [s.id]
        for cur in work:  # a queue: the loop reaches what it appends
            neighbours = adjacency.get(cur)
            if neighbours is None:
                neighbours = adjacency[cur] = _control_neighbours(g, cur, forward)
            ids, costs = neighbours
            h, step = hops[cur], steps[cur] + 1
            for nxt, cost in zip(ids, costs):
                nh = h + cost
                if nh <= hop_limit and (nxt not in hops or hops[nxt] > nh):
                    hops[nxt] = nh
                    steps[nxt] = step
                    work.append(nxt)
        both.append(steps)
    depths = _least(*both)
    sl = memo[s.id, hop_limit] = ContextSlice(_ordered(g, depths), depths)
    return sl


def merge_slices(g: UnifiedDependencyGraph, slices: list[ContextSlice]) -> ContextSlice:
    """The union of `slices`, each statement at its least depth."""
    depths: dict[str, int] = {}
    ids: list[str] = []
    for sl in slices:
        depths = _least(depths, sl.depths) if depths else dict(sl.depths)
        ids += sl.statements
    # Each slice is in order already: sorting their concatenation merges runs.
    return ContextSlice(_ordered(g, dict.fromkeys(ids)), depths)
