"""Implicit context: callee-internal flows, unresolved definitions, and
structural declarations that directional slicing cannot reach."""

from __future__ import annotations

from ..frontend.model import RETURN_VAR, RepoModel
from ..udg.calls import function_of_entry
from ..udg.graph import CALL, DATA_DEPENDENCY, UnifiedDependencyGraph
from .slicing import ContextSlice, _ordered, _union, data_slice, merge_slices


def usage_context(
    g: UnifiedDependencyGraph, model: RepoModel, c_e: ContextSlice
) -> ContextSlice:
    """Forward data slices seeded at the entry of every in-repo callee
    invoked from the explicit context; external callees only leave notes."""
    callees = g.derived("callees", model)
    notes: dict[str, None] = {}
    pieces: list[ContextSlice] = []
    seen_entries: set[str] = set()
    for sid in c_e.statements:
        found = callees.get(sid)
        if found is None:
            found = callees[sid] = _callees(g, model, sid)
        entries, external = found
        for note in external:
            notes[note] = None
        for entry in entries:
            if entry not in seen_entries:
                seen_entries.add(entry)
                pieces.append(data_slice(g, g.nodes[entry], "forward"))
    merged = merge_slices("usage", g, pieces)
    merged.boundary_notes = list(dict.fromkeys([*merged.boundary_notes, *notes]))
    return merged


def _callees(g: UnifiedDependencyGraph, model: RepoModel, sid: str) -> tuple[tuple, tuple]:
    """The entries of the in-repo functions statement `sid` calls, by id,
    and the notes on the external callees it calls, each once."""
    stmt = g.nodes.get(sid)
    if stmt is None or not stmt.calls or stmt.synthetic:
        return (), ()
    entries: list[str] = []
    external: dict[str, None] = {}
    for e in sorted(g.out_edges(sid, CALL), key=lambda e: e.dst):
        dst = g.nodes.get(e.dst)
        if dst is None:
            continue
        if dst.external:
            external[f"external callee at {stmt.file}:{stmt.start_line}: {dst.text}"] = None
        elif function_of_entry(model, e.dst) is not None:
            entries.append(e.dst)
    return tuple(entries), tuple(external)


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
    and seeds a backward slice at the usage statement.  Only the set of
    `base.statements` matters, not its order.
    """
    v_def: set[str] = set()
    v_use: dict[str, list[str]] = {}
    for sid in base.statements:
        stmt = g.nodes.get(sid)
        if stmt is None:
            continue
        v_def.update(stmt.defs)
        for u in stmt.uses:
            v_use.setdefault(u, []).append(sid)
    v_def.discard(RETURN_VAR)

    lookups = g.derived("definitions", model)
    notes: dict[str, None] = {}
    pieces: list[ContextSlice] = []
    extra: set[str] = set()
    for name in sorted(v_use):
        if _resolved(name, v_def):
            continue
        for use_sid in sorted(v_use[name]):
            found = lookups.get((use_sid, name))
            if found is None:
                found = lookups[use_sid, name] = _definition_of(g, model, use_sid, name)
            chosen, piece, note = found
            if note:
                notes[note] = None
                continue
            if chosen:
                extra.add(chosen)
            pieces.append(piece)
    ids, piece_notes, depths = _union(pieces)
    ids |= extra
    # The definition context excludes the usage statements themselves: they
    # are already part of the input context.
    ids.difference_update(base.statements)
    statements = _ordered(g, ids)
    return ContextSlice(
        kind="definition",
        statements=statements,
        boundary_notes=list(dict.fromkeys([*piece_notes, *notes])),
        depths={sid: depths.get(sid, 1) for sid in statements},
    )


def _definition_of(
    g: UnifiedDependencyGraph, model: RepoModel, use_sid: str, name: str
) -> tuple[str | None, ContextSlice | None, str | None]:
    """Where the use of `name` at `use_sid` is defined: (None, the use's
    backward slice, None) when a data edge brings it, else (the chosen
    global, its backward slice, None), else (None, None, a note)."""
    stmt = g.nodes[use_sid]
    if any(e.variable == name for e in g.in_edges(use_sid, DATA_DEPENDENCY)):
        return None, data_slice(g, stmt, "backward"), None
    lookup = name[5:] if name.startswith("this.") else name
    candidates = model.global_defs.get(lookup, [])
    if not candidates:
        return None, None, f"unresolved variable {name} at {stmt.file}:{stmt.start_line}"
    chosen = _closest_global(model, stmt, candidates)
    return chosen, data_slice(g, g.nodes[chosen], "backward"), None


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
    class_names: set[str] = set()
    for sid in statement_ids:
        stmt = model.statements.get(sid)
        if stmt is None or stmt.synthetic:
            continue
        files.add(stmt.file)
        func = model.functions.get(stmt.owner)
        class_names.add(func.class_name if func is not None else model.owner_class.get(sid))
    enclosing_classes: set[str] = set()
    for name in class_names:
        cur = model.classes.get(name) if name else None
        # A class already collected brought its enclosing classes with it.
        while cur is not None and cur.name not in enclosing_classes:
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
