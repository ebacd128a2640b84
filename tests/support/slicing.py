"""The explicit context of one criterion, as the holistic context builds it."""

from udgscan.context.slicing import DEFAULT_HOP_LIMIT, ContextSlice, control_slice, data_slice, merge_slices
from udgscan.frontend.model import StatementNode
from udgscan.udg.graph import UnifiedDependencyGraph


def explicit_context(
    g: UnifiedDependencyGraph,
    s: StatementNode,
    hop_limit: int = DEFAULT_HOP_LIMIT,
) -> ContextSlice:
    """Union of bidirectional data slicing and hop-limited control slicing."""
    return merge_slices(
        "explicit", g, [data_slice(g, s, "both"), control_slice(g, s, hop_limit)]
    )
