"""Structural analyses over a parsed repository: hierarchy and labels."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DiagnosticSink, HierarchyCycle
from . import syntax as syn
from .model import FunctionDecl, JumpTarget, RepoModel, TypeHierarchy


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


# ------------------------------------------------------------- labeled jumps


@dataclass
class _LabelInfo:
    after: str
    next_iteration: str | None  # None when the construct is not a loop


def resolve_label_targets(
    model: RepoModel, diagnostics: DiagnosticSink | None = None
) -> list[JumpTarget]:
    """Resolve every labeled break/continue to its reconstruction successor.

    A labeled continue lands on the loop's next-iteration point (the update
    node of for/for-each, the condition node of while/do-while); a labeled
    break lands on the statement immediately after the labeled construct, or
    on the function exit when the construct is the last statement.
    """
    targets: list[JumpTarget] = []
    for fid in sorted(model.functions):
        func = model.functions[fid]
        body = model.bodies.get(fid)
        if not body:
            continue
        _walk_list(body, func.exit, {}, targets, model, func, diagnostics)
    return targets


def _next_iteration_point(stmt) -> str | None:
    if isinstance(stmt, syn.While) or isinstance(stmt, syn.DoWhile):
        return stmt.cond
    if isinstance(stmt, syn.For):
        return stmt.update or stmt.cond or syn.head_of_list(stmt.body)
    if isinstance(stmt, syn.ForEach):
        return stmt.update
    return None


def _walk_list(stmts, cont, env, targets, model, func: FunctionDecl, diagnostics) -> None:
    for idx, stmt in enumerate(stmts):
        after = syn.head_of_list(stmts[idx + 1 :]) or cont
        _walk_stmt(stmt, after, env, targets, model, func, diagnostics)


def _walk_stmt(stmt, after, env, targets, model, func: FunctionDecl, diagnostics) -> None:
    if isinstance(stmt, syn.Labeled):
        inner = stmt.inner
        info = _LabelInfo(after=after, next_iteration=_next_iteration_point(inner))
        _walk_stmt(inner, after, {**env, stmt.label: info}, targets, model, func, diagnostics)
        return
    if isinstance(stmt, syn.Jump):
        if stmt.kind in ("break", "continue") and stmt.label:
            info = env.get(stmt.label)
            node = model.stmt(stmt.node)
            if info is None:
                _report_unresolved(diagnostics, node, f"label {stmt.label} has no enclosing construct")
                return
            if stmt.kind == "continue":
                if info.next_iteration is None:
                    _report_unresolved(
                        diagnostics, node, f"continue {stmt.label} does not target an iteration construct"
                    )
                    return
                successor = info.next_iteration
            else:
                successor = info.after
            targets.append(JumpTarget(jump=stmt.node, resolved_successor=successor))
        return
    if isinstance(stmt, syn.If):
        _walk_list(stmt.then, after, env, targets, model, func, diagnostics)
        _walk_list(stmt.orelse, after, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.While):
        _walk_list(stmt.body, stmt.cond, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.DoWhile):
        _walk_list(stmt.body, stmt.cond, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.For):
        cont = stmt.update or stmt.cond or syn.head_of_list(stmt.body) or after
        _walk_list(stmt.body, cont, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.ForEach):
        _walk_list(stmt.body, stmt.header, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.Switch):
        for i, (_, case_stmts) in enumerate(stmt.cases):
            fall = None
            for _, later in stmt.cases[i + 1 :]:
                fall = syn.head_of_list(later)
                if fall:
                    break
            _walk_list(case_stmts, fall or after, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.Try):
        fin = syn.head_of_list(stmt.finally_)
        _walk_list(stmt.body, fin or after, env, targets, model, func, diagnostics)
        for c in stmt.catches:
            _walk_list(c, fin or after, env, targets, model, func, diagnostics)
        _walk_list(stmt.finally_, after, env, targets, model, func, diagnostics)
    elif isinstance(stmt, syn.Block):
        _walk_list(stmt.stmts, after, env, targets, model, func, diagnostics)


def _report_unresolved(diagnostics, node, message: str) -> None:
    if diagnostics is not None:
        diagnostics.add("error", "frontend", message, node.file, node.start_line)
