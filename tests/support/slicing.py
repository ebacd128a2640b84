"""The explicit context of one criterion, as the holistic context builds it,
and the source lines a set of statements covers."""

from collections.abc import Iterable, Mapping

from udgscan.context.slicing import DEFAULT_HOP_LIMIT, ContextSlice, control_slice, data_slice, merge_slices
from udgscan.frontend.model import StatementNode
from udgscan.udg.graph import UnifiedDependencyGraph


def explicit_context(
    g: UnifiedDependencyGraph,
    s: StatementNode,
    hop_limit: int = DEFAULT_HOP_LIMIT,
) -> ContextSlice:
    """Union of bidirectional data slicing and hop-limited control slicing."""
    return merge_slices(g, [data_slice(g, s, "both"), control_slice(g, s, hop_limit)])


def lines_of(nodes: Mapping[str, StatementNode], ids: Iterable[str]) -> set[int]:
    """Source lines covered by the non-synthetic statements among `ids`,
    looked up in `nodes` (a graph's `nodes` or a model's `statements`)."""
    lines: set[int] = set()
    for sid in ids:
        node = nodes.get(sid)
        if node is not None and not node.synthetic:
            lines.update(node.span_lines())
    return lines
