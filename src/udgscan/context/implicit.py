"""Implicit context: callee-internal flows, unresolved definitions, and
structural declarations that directional slicing cannot reach.

The usage context keeps its statements' data-slice depths for the drop
order; the definition and declaration contexts are statements alone, which
the drop order ranks by constants.  A use that nothing defines adds no
statement, and an external callee adds none."""

from __future__ import annotations

from ..frontend.model import RETURN_VAR, RepoModel, StatementNode
from ..udg.calls import function_of_entry
from ..udg.graph import CALL, DATA_DEPENDENCY, UnifiedDependencyGraph
from .slicing import ContextSlice, _ordered, data_slice, merge_slices


def usage_context(
    g: UnifiedDependencyGraph, model: RepoModel, c_e: ContextSlice
) -> ContextSlice:
    """Forward data slices seeded at the entry of every in-repo callee
    invoked from the explicit context."""
    callees = g.derived("callees", model)
    pieces: list[ContextSlice] = []
    seen_entries: set[str] = set()
    for sid in c_e.statements:
        entries = callees.get(sid)
        if entries is None:
            entries = callees[sid] = _callees(g, model, sid)
        for entry in entries:
            if entry not in seen_entries:
                seen_entries.add(entry)
                pieces.append(data_slice(g, g.nodes[entry], "forward"))
    return merge_slices(g, pieces)


def _callees(g: UnifiedDependencyGraph, model: RepoModel, sid: str) -> tuple[str, ...]:
    """The entries of the in-repo functions statement `sid` calls, by id."""
    stmt = g.nodes.get(sid)
    if stmt is None or not stmt.calls or stmt.synthetic:
        return ()
    entries = (dst for _, dst, _, _ in g.out_edges(sid, CALL) if dst in g.nodes)
    return tuple(sorted(dst for dst in entries if function_of_entry(model, dst) is not None))


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
    g: UnifiedDependencyGraph, model: RepoModel, base_ids: list[str]
) -> ContextSlice:
    """Recover definitions for variables used but not defined in `base_ids`.

    A use with no incoming data edge is assumed global: its global definition
    seeds a backward slice.  A use with incoming edges is locally reachable
    and seeds a backward slice at the usage statement.  Only the set of
    `base_ids` matters, not its order.
    """
    stmts = [stmt for stmt in map(g.nodes.get, base_ids) if stmt is not None]
    v_def = set().union(*[stmt.defs for stmt in stmts])
    v_def.discard(RETURN_VAR)

    lookups = g.derived("definitions", model)
    ids: set[str] = set()
    for stmt in stmts:
        if stmt.uses <= v_def:
            continue
        for name in stmt.uses - v_def:
            if _resolved(name, v_def):
                continue
            found = lookups.get((stmt.id, name))
            if found is None:
                found = lookups[stmt.id, name] = _definition_of(g, model, stmt.id, name)
            ids.update(found)
    # The definition context excludes the usage statements themselves: they
    # are already part of the input context.
    ids.difference_update(base_ids)
    return ContextSlice(_ordered(g, ids, model.statements))


def _definition_of(g: UnifiedDependencyGraph, model: RepoModel, use_sid: str, name: str) -> list[str]:
    """The statements that define the use of `name` at `use_sid`: the use's
    backward slice when a data edge brings it, else the backward slice of
    the chosen global, else none.  A global that is not a graph node (the
    original graph holds none) contributes its own statement."""
    stmt = g.nodes[use_sid]
    if any(e.variable == name for e in g.in_edges(use_sid, DATA_DEPENDENCY)):
        return data_slice(g, stmt, "backward").statements
    lookup = name[5:] if name.startswith("this.") else name
    candidates = model.global_defs.get(lookup, [])
    if not candidates:
        return []
    chosen = _closest_global(model, stmt, candidates)
    if chosen not in g.nodes:
        return [chosen]
    return data_slice(g, g.nodes[chosen], "backward").statements


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
    statements, functions = model.statements, model.functions
    files: set[str] = set()
    class_names: set[str] = set()
    for stmt in map(statements.get, statement_ids):
        if stmt is None or stmt.synthetic:
            continue
        files.add(stmt.file)
        func = functions.get(stmt.owner)
        class_names.add(func.class_name if func is not None else model.owner_class.get(stmt.id))
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
    return ContextSlice([stmt.id for stmt in sorted(map(statements.__getitem__, ids), key=StatementNode.sort_key)])
