"""The type hierarchy of a parsed repository: its supertype edges."""

from __future__ import annotations

from ..errors import DiagnosticSink
from .model import RepoModel, TypeHierarchy


def build_type_hierarchy(model: RepoModel, diagnostics: DiagnosticSink) -> TypeHierarchy:
    """The repository's supertype edges, less each edge that closes an
    inheritance cycle (see `_closing_edges`)."""
    hierarchy = TypeHierarchy()
    supers: dict[str, list[str]] = {}
    for cls in model.classes.values():
        for sup in cls.supertypes:
            resolved = model.resolve_class(sup, cls.file)
            if resolved is not None:
                supers.setdefault(cls.name, []).append(resolved.name)
            else:
                hierarchy.external_edges.append((cls.name, sup))
                diagnostics.add("info", "frontend", f"supertype {sup} of {cls.name} is external", cls.file)
    closing = _closing_edges(model, supers, diagnostics)
    for sub, sups in supers.items():
        for sup in sups:
            if (sub, sup) not in closing:
                hierarchy.add_edge(sub, sup)
    model.hierarchy = hierarchy
    return hierarchy


def _closing_edges(
    model: RepoModel, supers: dict[str, list[str]], diagnostics: DiagnosticSink
) -> set[tuple[str, str]]:
    """The edges of `supers` that a depth-first walk from each class, in
    name order, meets on the path it is on: each closes a cycle and gets an
    error naming that cycle at its subclass's declaration.  Without them the
    edges hold no cycle.  The walk keeps its own stack, so a chain of any
    length is checked."""
    closing: set[tuple[str, str]] = set()
    done: set[str] = set()
    for root in sorted(supers):
        if root in done:
            continue
        # The path from `root` to the class being visited, and for each
        # class on it, the supertypes still to visit.
        path = [root]
        on_path = {root}
        pending = [iter(supers[root])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
            elif nxt in on_path:
                cls = model.classes[path[-1]]
                cycle = " -> ".join(path[path.index(nxt) :] + [nxt])
                line = model.stmt(cls.decl_statement).start_line
                diagnostics.add("error", "frontend", f"inheritance cycle through {cycle}", cls.file, line)
                closing.add((cls.name, nxt))
            elif nxt not in done:
                path.append(nxt)
                on_path.add(nxt)
                pending.append(iter(supers.get(nxt, [])))
    return closing
