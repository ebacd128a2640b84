"""The type hierarchy of a parsed repository: its supertype edges."""

from __future__ import annotations

from ..errors import DiagnosticSink, HierarchyCycle
from .model import RepoModel, TypeHierarchy


def build_type_hierarchy(model: RepoModel, diagnostics: DiagnosticSink | None = None) -> TypeHierarchy:
    hierarchy = TypeHierarchy()
    for cls in model.classes.values():
        for sup in cls.supertypes:
            resolved = model.resolve_class(sup, cls.file)
            if resolved is not None:
                hierarchy.add_edge(cls.name, resolved.name)
            else:
                hierarchy.external_edges.append((cls.name, sup))
                if diagnostics is not None:
                    diagnostics.add(
                        "info", "frontend", f"supertype {sup} of {cls.name} is external", cls.file
                    )
    _reject_cycles(hierarchy)
    model.hierarchy = hierarchy
    return hierarchy


def _reject_cycles(hierarchy: TypeHierarchy) -> None:
    """Raise `HierarchyCycle` naming the first cycle a depth-first walk from
    each class, in name order, meets.  The walk keeps its own stack, so a
    chain of any length is checked."""
    adj = hierarchy.direct_supertypes
    done: set[str] = set()
    for root in sorted(adj):
        if root in done:
            continue
        # The path from `root` to the class being visited, and for each
        # class on it, the supertypes still to visit.
        path = [root]
        on_path = {root}
        pending = [iter(adj.get(root, []))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                pending.pop()
                node = path.pop()
                on_path.discard(node)
                done.add(node)
            elif nxt in on_path:
                raise HierarchyCycle(f"inheritance cycle through {' -> '.join(path + [nxt])}")
            elif nxt not in done:
                path.append(nxt)
                on_path.add(nxt)
                pending.append(iter(adj.get(nxt, [])))
