"""The type hierarchy of a parsed repository: supertypes and overrides."""

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
                hierarchy.external_supertypes.add(sup)
                if diagnostics is not None:
                    diagnostics.add(
                        "info", "frontend", f"supertype {sup} of {cls.name} is external", cls.file
                    )
    _reject_cycles(hierarchy)
    for cls in sorted(model.classes.values(), key=lambda c: c.name):
        ancestors = hierarchy.supertypes_of(cls.name)
        for fid in cls.methods:
            func = model.functions[fid]
            for anc in ancestors:
                for base in model.find_methods(anc, func.name, func.arity):
                    if base.param_types == func.param_types:
                        key = (anc, func.name, func.arity)
                        hierarchy.method_overrides.setdefault(key, []).append((cls.name, fid))
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
