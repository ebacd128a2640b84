"""Summary-based pruning of conservative interprocedural data edges."""

from __future__ import annotations

from collections.abc import Mapping

from ..frontend.model import RepoModel
from ..udg.calls import call_statements, site_targets
from ..udg.graph import DATA_DEPENDENCY, UnifiedDependencyGraph
from .passes import AuditEntry, remove_audited
from .summaries import FunctionSummary, flowing_uses


def prune_data_edges(
    g: UnifiedDependencyGraph,
    summaries: Mapping[str, FunctionSummary],
    model: RepoModel,
    audit: list[AuditEntry],
) -> None:
    """Remove from `g` each data edge into a call statement whose variable
    cannot reach the statement's value (see `summaries.flowing_uses`)."""
    # Removing data edges leaves every statement's call targets as they are.
    targets = [(stmt, site_targets(g, model, stmt)) for stmt in call_statements(g)]
    for stmt, per_site in targets:
        removable = set(stmt.uses) - flowing_uses(stmt, per_site, model, summaries)
        if removable:
            doomed = [e for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable in removable]
            remove_audited(g, audit, "data_pruning", doomed)
