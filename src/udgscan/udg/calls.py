"""Conservative call graph over the repository.

Static and constructor calls, and calls on a new object, resolve to their
exact target; a call on another call's result resolves to none.  Instance calls
connect to the receiver's declared-type method plus every override in its
subtypes (the over-approximation later pruned with oracle help).  Reflection
API invocations connect to a synthetic reflective external node, mirroring
the under-approximation a scalable analyzer produces.
"""

from __future__ import annotations

from ..frontend.model import CallSite, FunctionDecl, RepoModel, StatementNode, TypeHierarchy
from .graph import CALL, UdgEdge, make_external_node

REFLECTION_NAMES = frozenset({"forName", "getMethod", "getDeclaredMethod", "invoke", "newInstance"})
REFLECTION_RECEIVER_TYPES = frozenset({"Class", "Method", "Constructor", "Field"})


def is_reflective_site(site: CallSite) -> bool:
    if site.is_constructor:
        return False
    if site.name not in REFLECTION_NAMES:
        return False
    if site.receiver_type and site.receiver_type in REFLECTION_RECEIVER_TYPES:
        return True
    if site.chain.startswith("Class.") or ".class." in site.chain or "getClass()." in site.chain:
        return True
    # Name-based fallback for chained results, e.g. getClass().getMethod(...)
    return site.receiver is None and site.receiver_type is None


def is_invocation_pattern(site: CallSite) -> bool:
    """Reflective sites that invoke behavior (vs. look it up)."""
    return site.name in ("invoke", "newInstance")


def resolve_call_site(
    model: RepoModel, hierarchy: TypeHierarchy, caller: FunctionDecl, site: CallSite
) -> list[FunctionDecl]:
    """The in-repo targets of a call site.  Type names resolve as written in
    the caller's file."""
    if site.is_constructor:
        cls = model.resolve_class(site.name, caller.file)
        return [] if cls is None else model.find_methods(cls.name, cls.simple_name, site.arity)

    def declared_in(type_name: str) -> tuple[str, list[FunctionDecl]] | None:
        """(class, methods): the methods with the site's name and arity that
        the class declares, else those of its nearest supertype that does."""
        cls = model.resolve_class(type_name, caller.file)
        if cls is not None:
            for cname in [cls.name, *hierarchy.supertypes_of(cls.name)]:
                found = model.find_methods(cname, site.name, site.arity)
                if found:
                    return cls.name, found
        return None

    def dispatch_targets(static_type: str) -> list[FunctionDecl]:
        """The declared or inherited methods, plus each method of a
        transitive subtype with their name, arity and parameter types."""
        declared = declared_in(static_type)
        if declared is None:
            return []
        cls_name, targets = declared
        signatures = [f.param_types for f in targets]
        for sub in hierarchy.subtypes_of(cls_name):
            found = model.find_methods(sub, site.name, site.arity)
            targets += [f for f in found if f.param_types in signatures]
        return targets

    if site.receiver and site.receiver != "this" and site.receiver_type:
        return dispatch_targets(site.receiver_type)

    # A method called on `new T(...)` is the one `T` declares or inherits.
    if site.receiver is None and site.receiver_type:
        declared = declared_in(site.receiver_type)
        return [] if declared is None else declared[1]

    if site.receiver == "this" or (site.receiver is None and "." not in site.chain):
        return dispatch_targets(caller.class_name)

    # A method called on a class literal, `X.class.m(...)`, is a method of
    # `Class`, and one called on a call's result, `X.f().m(...)`, a method of
    # a type the parser does not know: neither is one of `X`.
    if ".class." in site.chain or "()." in site.chain:
        return []

    # Class-qualified call: X.m(...) resolved statically.
    declared = declared_in(site.chain.split(".")[0])
    return [] if declared is None else declared[1]


def build_call_graph(
    model: RepoModel, hierarchy: TypeHierarchy
) -> tuple[list[UdgEdge], dict[str, StatementNode]]:
    """Call edges plus the synthetic external nodes they land on."""
    edges: list[UdgEdge] = []
    externals: dict[str, StatementNode] = {}
    for fid in sorted(model.functions):
        func = model.functions[fid]
        for sid in func.body:
            stmt = model.stmt(sid)
            for site in stmt.calls:
                targets = resolve_call_site(model, hierarchy, func, site)
                if targets:
                    for t in sorted(targets, key=lambda f: f.id):
                        edges.append(UdgEdge(src=sid, dst=t.entry, tau=CALL))
                    continue
                if site.is_constructor and model.resolve_class(site.name, func.file) is not None:
                    continue  # implicit default constructor: nothing to link
                reflective = is_reflective_site(site)
                ext = make_external_node(site.name, site.arity, reflective=reflective)
                externals.setdefault(ext.id, ext)
                edges.append(UdgEdge(src=sid, dst=ext.id, tau=CALL))
    return edges, externals


def call_statements(graph) -> list[StatementNode]:
    """The graph's non-synthetic statements with call sites, in source order.
    Memoized on the graph; callers do not change the list."""
    memo = graph.derived("call_statements")
    if "all" not in memo:
        memo["all"] = sorted(
            (n for n in graph.nodes.values() if n.calls and not n.synthetic),
            key=lambda n: n.sort_key(),
        )
    return memo["all"]


def site_targets(graph, model: RepoModel, stmt: StatementNode) -> dict[int, list[str]]:
    """Map each call site of a statement to its current edge targets.

    Targets are matched back to sites by callee name and arity; external
    nodes match by their synthetic name.  An edge goes to every site it
    matches (`g(a) + g(b)` gives both sites `g`); an edge matching no site
    goes to site 0.  Memoized on the graph; callers do not change the map.
    """
    memo = graph.derived("site_targets", model)
    out = memo.get(stmt.id)
    if out is not None:
        return out
    out = memo[stmt.id] = {i: [] for i in range(len(stmt.calls))}
    for edge in graph.out_edges(stmt.id, CALL):
        dst = edge.dst
        func = None if dst.startswith("external:") else function_of_entry(model, dst)
        matched = False
        for i, site in enumerate(stmt.calls):
            if func is None:
                hit = dst == f"external:{site.name}/{site.arity}"
            else:
                hit = func.arity == site.arity and func.name == site.name
            if hit:
                out[i].append(dst)
                matched = True
        if not matched and stmt.calls:
            out[0].append(dst)
    return out


def function_of_entry(model: RepoModel, entry_id: str) -> FunctionDecl | None:
    stmt = model.statements.get(entry_id)
    if stmt is not None and stmt.kind == "entry" and stmt.owner in model.functions:
        return model.functions[stmt.owner]
    return None
