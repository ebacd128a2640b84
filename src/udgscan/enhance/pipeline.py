"""End-to-end enhancement: original graph in, enhanced graph out."""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from ..errors import DiagnosticSink
from ..frontend.model import JumpTarget, RepoModel
from ..pool import RequestPool
from ..udg.graph import UnifiedDependencyGraph
from .oracle import ResolutionOracle
from .order import AnalysisSequence, compute_analysis_order
from .passes import (
    AuditEntry,
    add_global_nodes,
    enhance_polymorphic_calls,
    enhance_reflective_calls,
    reconstruct_labeled_jumps,
)
from .prune import prune_data_edges
from .summaries import FunctionSummary, compute_all_summaries


class EnhancementResult(NamedTuple):
    graph: UnifiedDependencyGraph
    summaries: Mapping[str, FunctionSummary]
    order: AnalysisSequence


def enhance_graph(
    model: RepoModel,
    original: UnifiedDependencyGraph,
    oracle: ResolutionOracle,
    diagnostics: DiagnosticSink,
    audit: list[AuditEntry],
    jump_targets: list[JumpTarget],
    pool: RequestPool | None = None,
) -> EnhancementResult:
    """Run the four passes in order on one copy of `original`: globals,
    labeled jumps to `jump_targets` (see `udg.cfg.resolve_label_targets`)
    with the data edges they bring, call-edge refinement (with the call
    graph finalized before ordering), then summary-based data-dependency
    pruning.  The call-edge rules and prompts thus read the data edges a
    jump brings.  Each pass edits the copy in place, logs its edits to
    `audit` and its warnings to `diagnostics`, so both hold what the passes
    did before a failure; `original` is left intact.
    The call-edge passes send their oracle requests on `pool` (see
    `udgscan.pool`)."""
    g = original.copy()
    add_global_nodes(g, model.globals, model, audit)
    reconstruct_labeled_jumps(g, jump_targets, model, audit)
    enhance_polymorphic_calls(g, oracle, model, diagnostics, audit, pool)
    enhance_reflective_calls(g, oracle, model, diagnostics, audit, pool)
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    prune_data_edges(g, summaries, model, audit)
    return EnhancementResult(graph=g, summaries=summaries, order=order)
