"""Summary-based pruning of conservative interprocedural data edges."""

from __future__ import annotations

from ..errors import DiagnosticSink
from ..frontend.model import RepoModel
from ..udg.calls import function_of_entry, site_targets
from ..udg.graph import DATA_DEPENDENCY, UnifiedDependencyGraph
from .passes import AuditEntry
from .summaries import FunctionSummary


def prune_data_edges(
    g: UnifiedDependencyGraph,
    summaries: dict[str, FunctionSummary],
    model: RepoModel,
    diagnostics: DiagnosticSink | None = None,
    audit: list[AuditEntry] | None = None,
) -> None:
    """Remove from `g` each argument-definition edge into a call site whose
    callee summary says the matched parameter does not reach the return value.

    Edges feeding external callees, receivers, or any non-argument use of the
    statement are untouched; arity mismatches keep their edges and produce a
    diagnostic.
    """
    ordered = sorted(
        (n for n in g.nodes.values() if n.calls and not n.synthetic),
        key=lambda n: n.sort_key(),
    )
    for stmt in ordered:
        per_site = site_targets(g, model, stmt)
        kept_vars: set[str] = set()
        dropped_vars: set[str] = set()
        all_arg_vars: set[str] = set()
        saw_in_repo = False
        for idx, site in enumerate(stmt.calls):
            targets = per_site.get(idx, [])
            in_repo = [t for t in targets if not t.startswith("external:")]
            has_external = bool([t for t in targets if t.startswith("external:")]) or not targets
            for arg_vars in site.arg_vars:
                all_arg_vars |= arg_vars
            if site.receiver and site.receiver != "this":
                kept_vars.add(site.receiver)
            if not in_repo or site.is_constructor:
                # External callees and constructors keep every argument edge;
                # return-dependence summaries say nothing about them.
                for arg_vars in site.arg_vars:
                    kept_vars |= arg_vars
                continue
            saw_in_repo = True
            for i, arg_vars in enumerate(site.arg_vars):
                keep = has_external
                for t in in_repo:
                    callee = function_of_entry(model, t)
                    if i >= len(callee.params):
                        keep = True
                        if diagnostics is not None:
                            diagnostics.add(
                                "warning",
                                "enhance",
                                f"arity mismatch calling {callee.signature_text()} at {stmt.id}",
                                stmt.file,
                                stmt.start_line,
                            )
                        continue
                    summary = summaries.get(callee.id)
                    if summary is None or summary.depends(callee.params[i]):
                        keep = True
                if keep:
                    kept_vars |= arg_vars
                else:
                    dropped_vars |= arg_vars
        if not saw_in_repo:
            continue
        other_uses = set(stmt.uses) - all_arg_vars
        removable = dropped_vars - kept_vars - other_uses
        if not removable:
            continue
        doomed_keys = set()
        for e in g.in_edges(stmt.id, DATA_DEPENDENCY):
            if e.variable in removable:
                doomed_keys.add(e.key())
                if audit is not None:
                    audit.append(
                        AuditEntry("remove", DATA_DEPENDENCY, e.src, e.dst, "data_pruning", e.variable)
                    )
        g.remove_edges(doomed_keys)
