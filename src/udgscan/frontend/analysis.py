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
    adj = hierarchy.direct_supertypes
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(node: str, trail: list[str]) -> None:
        state[node] = 0
        for nxt in adj.get(node, []):
            if state.get(nxt) == 0:
                raise HierarchyCycle(f"inheritance cycle through {' -> '.join(trail + [node, nxt])}")
            if nxt not in state:
                visit(nxt, trail + [node])
        state[node] = 1

    for node in sorted(adj):
        if node not in state:
            visit(node, [])
