"""Implicit context: callee-internal flows, unresolved definitions, and
structural declarations that directional slicing cannot reach."""

from __future__ import annotations

from ..frontend.model import RETURN_VAR, RepoModel
from ..udg.calls import function_of_entry
from ..udg.graph import CALL, DATA_DEPENDENCY, UnifiedDependencyGraph
from .slicing import ContextSlice, _ordered, data_slice, merge_slices


def usage_context(
    g: UnifiedDependencyGraph, model: RepoModel, c_e: ContextSlice
) -> ContextSlice:
    """Forward data slices seeded at the entry of every in-repo callee
    invoked from the explicit context; external callees only leave notes."""
    notes: list[str] = []
    pieces: list[ContextSlice] = []
    seen_entries: set[str] = set()
    for sid in c_e.statements:
        stmt = g.nodes.get(sid)
        if stmt is None or not stmt.calls or stmt.synthetic:
            continue
        for e in sorted(g.out_edges(sid, CALL), key=lambda e: e.dst):
            dst = g.nodes.get(e.dst)
            if dst is None:
                continue
            if dst.external:
                note = f"external callee at {stmt.file}:{stmt.start_line}: {dst.text}"
                if note not in notes:
                    notes.append(note)
                continue
            if e.dst in seen_entries:
                continue
            seen_entries.add(e.dst)
            func = function_of_entry(model, e.dst)
            if func is None:
                continue
            sl = data_slice(g, dst, "forward")
            pieces.append(sl)
    merged = merge_slices("usage", g, pieces)
    merged.boundary_notes.extend(n for n in notes if n not in merged.boundary_notes)
    return merged


def _resolved(name: str, defined: set[str]) -> bool:
    """Dotted names resolve greedily to their longest defined prefix."""
    if name in defined:
        return True
    parts = name.split(".")
    for i in range(len(parts) - 1, 0, -1):
        if ".".join(parts[:i]) in defined:
            return True
    return False


def definition_context(
    g: UnifiedDependencyGraph, model: RepoModel, base: ContextSlice
) -> ContextSlice:
    """Recover definitions for variables used but not defined in the input.

    A use with no incoming data edge is assumed global: its global definition
    seeds a backward slice.  A use with incoming edges is locally reachable
    and seeds a backward slice at the usage statement.
    """
    v_def: set[str] = set()
    v_use: dict[str, list[str]] = {}
    for sid in base.statements:
        stmt = g.nodes.get(sid)
        if stmt is None:
            continue
        v_def.update(d for d in stmt.defs if d != RETURN_VAR)
        for u in stmt.uses:
            v_use.setdefault(u, []).append(sid)

    notes: list[str] = []
    pieces: list[ContextSlice] = []
    extra: set[str] = set()
    for name in sorted(v_use):
        if _resolved(name, v_def):
            continue
        for use_sid in sorted(v_use[name]):
            stmt = g.nodes.get(use_sid)
            incoming = [e for e in g.in_edges(use_sid, DATA_DEPENDENCY) if e.variable == name]
            if incoming:
                pieces.append(data_slice(g, stmt, "backward"))
                continue
            lookup = name[5:] if name.startswith("this.") else name
            candidates = model.global_defs.get(lookup, [])
            if not candidates:
                notes.append(f"unresolved variable {name} at {stmt.file}:{stmt.start_line}")
                continue
            chosen = _closest_global(model, stmt, candidates)
            extra.add(chosen)
            pieces.append(data_slice(g, g.nodes[chosen], "backward"))
    merged = merge_slices("definition", g, pieces)
    ids = set(merged.statements) | extra
    # The definition context excludes the usage statements themselves: they
    # are already part of the input context.
    ids -= set(base.statements)
    merged.statements = _ordered(g, ids)
    merged.depths = {sid: merged.depths.get(sid, 1) for sid in merged.statements}
    merged.boundary_notes.extend(n for n in notes if n not in merged.boundary_notes)
    merged.kind = "definition"
    return merged


def _closest_global(model: RepoModel, use_stmt, candidates: list[str]) -> str:
    """Prefer a global declared in the class enclosing the usage."""
    func = model.functions.get(use_stmt.owner)
    chain = []
    cur = model.classes.get(func.class_name) if func is not None else None
    while cur is not None:
        chain.append(cur.name)
        cur = model.classes.get(cur.enclosing) if cur.enclosing else None
    for decl_class in chain:
        for sid in candidates:
            if model.owner_class.get(sid) == decl_class:
                return sid
    return sorted(candidates)[0]


def declaration_context(statement_ids: list[str], model: RepoModel) -> ContextSlice:
    """Package, import, and class declarations of every contributing file.

    Classes are collected when they are top level in a contributing file or
    when they enclose a contributed statement (nested sanitizers and the
    like must keep their declaration visible).
    """
    files: set[str] = set()
    enclosing_classes: set[str] = set()
    for sid in statement_ids:
        stmt = model.statements.get(sid)
        if stmt is None or stmt.synthetic:
            continue
        files.add(stmt.file)
        func = model.functions.get(stmt.owner)
        cls_name = func.class_name if func is not None else model.owner_class.get(sid)
        cur = model.classes.get(cls_name) if cls_name else None
        while cur is not None:
            enclosing_classes.add(cur.name)
            cur = model.classes.get(cur.enclosing) if cur.enclosing else None

    ids = {model.classes[name].decl_statement for name in enclosing_classes}
    for path in files:
        source = model.file_by_path(path)
        if source is not None:
            ids.update(source.declarations)
            ids.update(source.classes)
    ordered = sorted(ids, key=lambda sid: model.statements[sid].sort_key())
    return ContextSlice(kind="declaration", statements=ordered, depths={sid: 0 for sid in ordered})
