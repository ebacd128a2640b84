"""Summary-based pruning of conservative interprocedural data edges."""

from __future__ import annotations

from ..errors import DiagnosticSink
from ..frontend.model import RepoModel
from ..udg.calls import call_statements, function_of_entry, site_targets
from ..udg.graph import DATA_DEPENDENCY, UnifiedDependencyGraph
from .passes import AuditEntry
from .summaries import FunctionSummary, flowing_uses


def prune_data_edges(
    g: UnifiedDependencyGraph,
    summaries: dict[str, FunctionSummary],
    model: RepoModel,
    diagnostics: DiagnosticSink | None = None,
    audit: list[AuditEntry] | None = None,
) -> None:
    """Remove from `g` each data edge into a call statement whose variable
    cannot reach the statement's value (see `summaries.flowing_uses`).

    An argument past the end of an in-repo callee's parameters keeps its
    edges and produces a diagnostic.
    """
    # Removing data edges leaves every statement's call targets as they are.
    targets = [(stmt, site_targets(g, model, stmt)) for stmt in call_statements(g)]
    for stmt, per_site in targets:
        if diagnostics is not None:
            for idx, site in enumerate(stmt.calls):
                if site.is_constructor:
                    continue
                targets = per_site.get(idx, [])
                callees = [function_of_entry(model, t) for t in targets if not t.startswith("external:")]
                for i in range(len(site.arg_vars)):
                    for callee in callees:
                        if i >= len(callee.params):
                            diagnostics.add(
                                "warning",
                                "enhance",
                                f"arity mismatch calling {callee.signature_text()} at {stmt.id}",
                                stmt.file,
                                stmt.start_line,
                            )
        removable = set(stmt.uses) - flowing_uses(stmt, per_site, model, summaries)
        if not removable:
            continue
        doomed = [e for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable in removable]
        if audit is not None:
            for e in doomed:
                audit.append(AuditEntry("remove", DATA_DEPENDENCY, e.src, e.dst, "data_pruning", e.variable))
        g.remove_edges({e.key() for e in doomed})
