"""Graph enhancement passes: globals, call-edge refinement, labeled jumps."""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from ..context.slicing import data_slice
from ..errors import DiagnosticSink, OracleParseError
from ..frontend.model import (
    CallSite,
    ClassDecl,
    FunctionDecl,
    GlobalDecl,
    JumpTarget,
    RepoModel,
    StatementNode,
)
from ..pool import RequestPool, issue
from ..udg.calls import call_statements, function_of_entry, is_reflective_invocation, site_targets
from ..udg.ddg import build_ddg, control_flow_edges
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge, UnifiedDependencyGraph, is_external
from .oracle import FOLD_CAP, ConstantFolder, ResolutionOracle, _split_top, extract_json_object, fold_concat
from .prompts import (
    render_polymorphic_prompt,
    render_reflection_class_prompt,
    render_reflection_method_prompt,
    render_statement_block,
)

DATAFLOW_CONTEXT_CAP = 60  # statements nearest the call site kept in prompts


class AuditEntry(NamedTuple):
    op: str  # "add" | "remove"
    tau: str
    src: str
    dst: str
    pass_name: str
    variable: str | None = None

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "tau": self.tau,
            "src": self.src,
            "dst": self.dst,
            "pass": self.pass_name,
            "variable": self.variable,
        }

    def json_line(self) -> str:
        """`json.dumps(self.as_dict(), sort_keys=True)` and a newline, without
        the encoder that each `json.dumps` call builds."""
        variable = "null" if self.variable is None else _json_string(self.variable)
        return (
            f'{{"dst": {_json_string(self.dst)}, "op": {_json_string(self.op)}, '
            f'"pass": {_json_string(self.pass_name)}, "src": {_json_string(self.src)}, '
            f'"tau": {_json_string(self.tau)}, "variable": {variable}}}\n'
        )


def add_audited(g: UnifiedDependencyGraph, audit: list[AuditEntry], pass_name: str, edge: UdgEdge) -> bool:
    """Add `edge` to `g` and, when `g` did not hold it yet, its entry to
    `audit`; True then."""
    if not g.add_edge(edge):
        return False
    audit.append(AuditEntry("add", edge.tau, edge.src, edge.dst, pass_name, edge.variable))
    return True


def remove_audited(
    g: UnifiedDependencyGraph, audit: list[AuditEntry], pass_name: str, edges: list[UdgEdge]
) -> None:
    """Remove `edges` from `g` in one `remove_edges` call, with an entry in
    `audit` for each edge `g` held, in the order of `edges`."""
    for edge in g.remove_edges(edges):
        audit.append(AuditEntry("remove", edge.tau, edge.src, edge.dst, pass_name, edge.variable))


def add_global_nodes(
    g: UnifiedDependencyGraph,
    globals_list: list[GlobalDecl],
    model: RepoModel,
    audit: list[AuditEntry],
) -> None:
    """Add global statements to `g` as nodes, linking definitions among
    global assignments only; no control-flow or call edges, and no edges into
    function bodies (those are recovered as implicit context)."""
    for decl in globals_list:
        node = model.stmt(decl.statement)
        if node.id not in g.nodes:
            g.add_node(node)
    by_var: dict[tuple[str, str], str] = {}
    any_var: dict[str, str] = {}
    for decl in globals_list:
        if decl.variable:
            by_var[(decl.class_name, decl.variable)] = decl.statement
            any_var.setdefault(decl.variable, decl.statement)
    for decl in globals_list:
        if not decl.variable:
            continue
        for v in sorted(decl.rhs_uses):
            src = by_var.get((decl.class_name, v)) or any_var.get(v)
            if src is None or src == decl.statement:
                continue
            add_audited(g, audit, "globals", UdgEdge(src, decl.statement, DATA_DEPENDENCY, v))


def backward_dataflow_context(
    g: UnifiedDependencyGraph,
    stmt: StatementNode,
    variables: set[str],
    cap: int = DATAFLOW_CONTEXT_CAP,
) -> tuple[list[StatementNode], bool]:
    """Transitive backward closure over data edges for the requested
    variables: the backward data slices of the statements whose edges bring
    them in, in source order, truncated oldest-first at `cap` statements."""
    seen: set[str] = set()
    for e in g.in_edges(stmt.id, DATA_DEPENDENCY):
        if e.variable in variables:
            seen.update(data_slice(g, g.nodes[e.src], "backward").statements)
    nodes = [g.nodes[sid] for sid in seen if not g.nodes[sid].synthetic]
    nodes.sort(key=lambda n: n.sort_key())
    truncated = len(nodes) > cap
    if truncated:
        nodes = nodes[-cap:]
    return nodes, truncated


def _hierarchy_text(model: RepoModel) -> str:
    lines = []
    for sub, sup in sorted(model.hierarchy.edges):
        lines.append(f"{sub} extends {sup}")
    for sub, sup in sorted(model.hierarchy.external_edges, key=lambda edge: edge[0]):
        lines.append(f"{sub} extends {sup} (external)")
    return "\n".join(lines)


def _dataflow_block(
    g: UnifiedDependencyGraph, model: RepoModel, stmt: StatementNode, variables: set[str]
) -> str:
    """A prompt's "dataflow context": the backward context of `variables`
    at `stmt`, rendered, with a note when it was truncated."""
    context_nodes, truncated = backward_dataflow_context(g, stmt, variables)
    block = render_statement_block(context_nodes, model)
    if truncated:
        block = "(truncated: oldest definitions omitted)\n" + block
    return block


def _call_groups(g, model: RepoModel, stmt: StatementNode, candidate) -> dict[tuple[str, ...], list[int]]:
    """The call sites of `stmt` grouped by their `site_targets` list, which
    sites of one name and arity share, each group keyed by the edges of
    the list `candidate` accepts, sorted; sites with none are left out."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for idx, targets in site_targets(g, model, stmt).items():
        shared = tuple(sorted(filter(candidate, targets)))
        if shared:
            groups.setdefault(shared, []).append(idx)
    return groups


def _settle(g, diagnostics: DiagnosticSink, audit: list[AuditEntry], pass_name: str, groups: list) -> None:
    """Edit the call edges each (statement, shared edges, targets kept by
    rule, outcomes asked) group names: an outcome keeps the targets it
    names, or every shared edge when it names none, with its warning.  A
    shared edge goes only when nothing keeps it; a kept target not shared
    is added, in id order, after the removals."""
    for stmt, shared, kept, outcomes in groups:
        for outcome in outcomes:
            named, warning = outcome.result()
            if warning:
                diagnostics.add("warning", "enhance", warning, stmt.file, stmt.start_line)
            kept |= named or set(shared)
        remove_audited(g, audit, pass_name, [UdgEdge(stmt.id, t, CALL) for t in shared if t not in kept])
        for target in sorted(kept.difference(shared)):
            add_audited(g, audit, pass_name, UdgEdge(stmt.id, target, CALL))


def enhance_polymorphic_calls(
    g: UnifiedDependencyGraph,
    oracle: ResolutionOracle,
    model: RepoModel,
    diagnostics: DiagnosticSink,
    audit: list[AuditEntry],
    pool: RequestPool | None = None,
) -> None:
    """Remove infeasible dispatch targets from `g` at call sites with >= 2
    in-repo candidates.  Unparseable or unmatched oracle answers keep every
    edge.

    A site is decided by rule, with no prompt built and no request, when
    its receiver is a local variable that every reaching definition sets to
    one `new T(...)` of one repository class `T`: the one candidate `T`
    declares is feasible (see `_allocated_target`).  Every other site is
    asked, so a transcript holds only the sites that were asked.

    Sites calling one callee (`a.m() + b.m()`) share its call edges, which
    `_settle` edits: an edge is removed only when no site's answer keeps
    it.  They are decided together, or all asked; a prompt already asked
    for at the statement is not asked again.  Every prompt is one call on
    `pool` (see `udgscan.pool`), issued before the first outcome is read; an
    edit at one statement changes no other statement's prompt."""
    hierarchy = _hierarchy_text(model)
    groups = []  # (statement, candidates, candidates decided by rule, one outcome per prompt)
    for stmt in call_statements(g):
        for targets, sites in _call_groups(g, model, stmt, lambda t: not is_external(t)).items():
            if len(targets) < 2:
                continue
            decided = {_allocated_target(g, model, stmt, stmt.calls[idx], targets) for idx in sites}
            if None not in decided:
                groups.append((stmt, targets, decided, []))
                continue
            outcomes: dict[str, object] = {}
            for idx in sites:
                prompt, by_signature = _polymorphic_prompt(
                    g, model, stmt, stmt.calls[idx], targets, hierarchy
                )
                if prompt not in outcomes:
                    outcomes[prompt] = issue(
                        pool, _ask_feasible, oracle, stmt, f"{stmt.id}/poly{idx}", prompt, by_signature
                    )
            groups.append((stmt, targets, set(), list(outcomes.values())))
    _settle(g, diagnostics, audit, "polymorphism", groups)


def _allocated_target(
    g: UnifiedDependencyGraph, model: RepoModel, stmt: StatementNode, site: CallSite, targets: tuple[str, ...]
) -> str | None:
    """The one candidate in `targets` that `site` can dispatch to, when it
    calls a method of a local variable (not `this`, a field, a field of the
    variable or an unassigned parameter) and every data edge bringing the
    variable to `stmt` comes from a statement setting it to one
    `new T(...)`, each naming the same repository class `T`, which declares
    exactly one of `targets` itself; None when any of this fails."""
    func = model.functions.get(stmt.owner)
    if func is None or site.receiver not in func.var_types or site.chain != f"{site.receiver}.{site.name}":
        return None
    # A parameter's definition is the synthetic entry node, which allocates nothing.
    written = {g.nodes[e.src].allocates for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable == site.receiver}
    if len(written) != 1 or "" in written:
        return None
    cls = model.resolve_class(written.pop(), stmt.file)
    if cls is None:
        return None
    declared = [t for t in targets if function_of_entry(model, t).class_name == cls.name]
    return declared[0] if len(declared) == 1 else None


def _polymorphic_prompt(
    g: UnifiedDependencyGraph,
    model: RepoModel,
    stmt: StatementNode,
    site: CallSite,
    targets: tuple[str, ...],
    hierarchy: str,
) -> tuple[str, dict[str, str]]:
    """The prompt for one call site, and each name an answer may give for a
    candidate mapped to its entry node."""
    receiver_vars = {site.receiver} if site.receiver and site.receiver != "this" else set(stmt.uses)
    candidates = []
    by_signature: dict[str, str] = {}
    for t in targets:
        func = function_of_entry(model, t)
        sig = func.signature_text()
        candidates.append(sig)
        by_signature[sig] = t
        by_signature[f"{func.class_name.split('.')[-1]}.{func.name}"] = t
        by_signature[f"{func.class_name}.{func.name}"] = t
    prompt = render_polymorphic_prompt(
        _dataflow_block(g, model, stmt, receiver_vars),
        render_statement_block([stmt], model),
        candidates,
        hierarchy,
    )
    return prompt, by_signature


def _ask_feasible(
    oracle: ResolutionOracle, stmt: StatementNode, tag: str, prompt: str, by_signature: dict[str, str]
) -> tuple[set[str], str]:
    """Ask one polymorphic prompt: the candidates the answer names feasible,
    and a warning when it names none (always, on a fault)."""
    try:
        named = extract_json_object(oracle.complete(prompt, tag)).get("feasible_targets")
        if not isinstance(named, list):
            raise OracleParseError("feasible_targets missing or not a list")
    except OracleParseError as exc:
        return set(), f"polymorphism oracle fault at {stmt.id}: {exc}"
    feasible = {by_signature[key] for key in (str(name).strip() for name in named) if key in by_signature}
    return feasible, "" if feasible else f"oracle named no known candidate at {stmt.id}"


def enhance_reflective_calls(
    g: UnifiedDependencyGraph,
    oracle: ResolutionOracle,
    model: RepoModel,
    diagnostics: DiagnosticSink,
    audit: list[AuditEntry],
    pool: RequestPool | None = None,
) -> None:
    """Two-step resolution of the reflective invocation sites in `g`: the
    sites `is_reflective_invocation` accepts that have external targets.
    Each gets a call edge to each method it resolves to.  Sites calling
    one external node (`m.invoke(..) + h.invoke(..)`) share its edge, which
    `_settle` removes only when no site keeps it: a failed answer or a site
    that is not reflective keeps it.

    A site is decided by rule, with no prompt built and no request, when it
    invokes a method looked up by name on one known class and the name
    folds to string constants that each name a method of that class (see
    `_looked_up_methods`).  The undecided sites sharing an edge are asked
    once, as both prompts name the statement, not the site; a transcript
    holds only the sites asked.  Each question chain is one call on `pool`
    (see `udgscan.pool`), all issued before the first outcome is read."""
    class_names = sorted(model.classes)
    groups = []  # (statement, external edges, methods decided by rule, the outcome asked, if any)
    for stmt in call_statements(g):
        reflective = []
        for shared, sites in _call_groups(g, model, stmt, is_external).items():
            found = [idx for idx in sites if is_reflective_invocation(stmt.calls[idx])]
            if found:  # a site that is not reflective keeps the shared edge
                reflective.append((found, shared, set(shared) if len(found) < len(sites) else set()))
        for found, shared, kept in sorted(reflective, key=lambda group: group[0]):  # by first reflective site
            asked = []
            for idx in found:
                decided = _looked_up_methods(g, model, stmt, stmt.calls[idx])
                kept |= decided or set()
                if decided is None and not asked:
                    block = _dataflow_block(g, model, stmt, set(stmt.uses))
                    call_line = render_statement_block([stmt], model)
                    tag = f"{stmt.id}/reflect{idx}"
                    asked.append(issue(pool, _ask_reflective, oracle, model, stmt, tag, block, call_line, class_names))
            groups.append((stmt, shared, kept, asked))
    _settle(g, diagnostics, audit, "reflection", groups)


# The whole value of a reflective lookup: `X.class.getMethod(<args>)` or
# `getClass().getMethod(<args>)` (or `getDeclaredMethod`).
_LOOKUP = re.compile(
    r"(?:(?P<cls>[A-Za-z_$][\w$.]*?)\s*\.\s*class|(?:this\s*\.\s*)?getClass\s*\(\s*\))"
    r"\s*\.\s*get(?:Declared)?Method\s*\((?P<args>.*)\)"
)
_CLASS_LITERAL = re.compile(r"\s*[A-Za-z_$][\w$.]*(?:\s*\[\s*\])*\s*\.\s*class\s*")


def _looked_up_methods(
    g: UnifiedDependencyGraph, model: RepoModel, stmt: StatementNode, site: CallSite
) -> set[str] | None:
    """The entries of the methods `site` can invoke, when it is
    `m.invoke(...)` on a local variable `m` whose one reaching definition
    assigns it `X.class.getMethod(name, P1.class, ...)` of a repository
    class `X`, or `getClass().getMethod(name, P1.class, ...)` in a class
    with no repository subtype, and `name` folds over reaching definitions
    to string constants (see `_reaching_strings`) that each name a method
    the class declares with the class literals' simple types as parameter
    types: every such method of each name.  None when any of this fails."""
    func = model.functions.get(stmt.owner)
    if func is None or site.receiver not in func.var_types or site.chain != f"{site.receiver}.invoke":
        return None
    defs = [g.nodes[e.src] for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable == site.receiver]
    if len(defs) != 1:
        return None
    lookup = defs[0]
    assign = ConstantFolder.ASSIGN.match(lookup.code.strip())
    m = _LOOKUP.fullmatch(assign.group(2).strip()) if assign and assign.group(1) == site.receiver else None
    if m is None:
        return None
    if m.group("cls"):
        cls = model.resolve_class(m.group("cls"), lookup.file)
    else:
        cls = None if model.hierarchy.subtypes_of(func.class_name) else model.classes.get(func.class_name)
    if cls is None:
        return None
    name, *params = _split_top(m.group("args"), ",")
    if not all(map(_CLASS_LITERAL.fullmatch, params)):
        return None
    folded: dict[str, set[str] | None] = {}
    names = fold_concat(name, lambda v: _reaching_strings(g, lookup, v, folded))
    types = [re.sub(r"\s+", "", p).removesuffix(".class").rsplit(".", 1)[-1] for p in params]
    methods = [f for f in _concrete_methods(model, cls) if f.param_types == types]
    named = [{f.entry for f in methods if f.name == name} for name in names or ()]
    return set().union(*named) if named and all(named) else None


def _reaching_strings(
    g: UnifiedDependencyGraph, stmt: StatementNode, var: str, folded: dict[str, set[str] | None]
) -> set[str] | None:
    """The strings `var` can hold at `stmt`: the union, over the data edges
    bringing `var` in, of the strings each definition folds to (see
    `fold_concat`).  None when a definition is not a plain `var = ...`
    without a call (a parameter's is the synthetic entry), when folding
    reaches a definition again (a cycle), or when there are more than
    `FOLD_CAP` strings.  `folded` keeps each definition's strings, None
    while it is being folded.

    The walk keeps its own stack, so a chain of any length folds: a
    definition whose folding meets one not yet folded is folded again
    once that one is."""
    # The definitions being folded, each with its right-hand side, each
    # waiting on the one after it.
    waiting: list[tuple[StatementNode, str]] = []
    while True:
        met: list[tuple[StatementNode, str]] = []
        if waiting:
            d, rhs = waiting[-1]
            strings = fold_concat(rhs, lambda v: _folded_strings(g, d, v, folded, met))
        else:
            strings = _folded_strings(g, stmt, var, folded, met)
        if met:
            d, v = met[0]
            folded[d.id] = None
            assign = ConstantFolder.ASSIGN.match(d.code.strip())
            if assign and assign.group(1) == v and d.defs == {v} and not d.calls:
                waiting.append((d, assign.group(2)))
        elif waiting:
            folded[waiting.pop()[0].id] = strings
        else:
            return strings


def _folded_strings(
    g: UnifiedDependencyGraph,
    stmt: StatementNode,
    var: str,
    folded: dict[str, set[str] | None],
    met: list[tuple[StatementNode, str]],
) -> set[str] | None:
    """`_reaching_strings` of `var` at `stmt` from the definitions `folded`
    holds; the first definition it does not hold yet goes to `met` (and the
    result is None)."""
    defs = [g.nodes[e.src] for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable == var]
    out: set[str] = set()
    for d in defs:
        if d.id not in folded:
            met.append((d, var))
            return None
        if folded[d.id] is None:
            return None
        out |= folded[d.id]
    return out if defs and len(out) <= FOLD_CAP else None


def _concrete_methods(model: RepoModel, cls: ClassDecl) -> list[FunctionDecl]:
    return [model.functions[fid] for fid in cls.methods if not model.functions[fid].is_abstract]


def _ask_reflective(
    oracle: ResolutionOracle,
    model: RepoModel,
    stmt: StatementNode,
    tag: str,
    block: str,
    call_line: str,
    class_names: list[str],
) -> tuple[set[str], str]:
    """Ask which class one reflective site accesses and, once that class
    resolves, which of its methods it invokes: the entries of the methods
    the answer names (`target_methods`, or one `target_method`), each by
    signature or, with all its overloads, by name, and a warning when it
    names none (always, on a fault)."""
    prompt = render_reflection_class_prompt(block, call_line, class_names)
    try:
        answer = extract_json_object(oracle.complete(prompt, f"{tag}/class"))
        cls_name = str(answer.get("target_class", "")).strip()
    except OracleParseError as exc:
        return set(), f"reflection class oracle fault at {stmt.id}: {exc}"
    cls = model.resolve_class(cls_name, stmt.file) if cls_name else None
    if cls is None:
        return set(), f"reflection target class '{cls_name}' not in repository"
    methods = _concrete_methods(model, cls)
    prompt = render_reflection_method_prompt(block, call_line, [f.signature_text() for f in methods])
    try:
        answer = extract_json_object(oracle.complete(prompt, f"{tag}/method"))
        named = answer.get("target_methods", answer.get("target_method", ""))
        names = [str(name).strip() for name in (named if isinstance(named, list) else [named])]
    except OracleParseError as exc:
        return set(), f"reflection method oracle fault at {stmt.id}: {exc}"
    named = {f.entry for f in methods if f.name in names or f.signature_text() in names}
    return named, "" if named else f"reflection target method '{', '.join(names)}' not in {cls.name}"


def reconstruct_labeled_jumps(
    g: UnifiedDependencyGraph,
    targets: list[JumpTarget],
    model: RepoModel,
    audit: list[AuditEntry],
) -> None:
    """Add a control-flow edge to `g` from each labeled jump to its resolved
    successor, then the data edges the new paths bring: reaching definitions
    are solved again over the enhanced control flow of each function that
    gained an edge."""
    owners: set[str] = set()
    for t in sorted(targets, key=lambda t: t.jump):
        if add_audited(g, audit, "control_flow", UdgEdge(t.jump, t.resolved_successor, CONTROL_FLOW)):
            owners.add(model.stmt(t.jump).owner)
    for fid in sorted(owners):
        func = model.functions[fid]
        for edge in build_ddg(func, model, control_flow_edges(g, func)):
            add_audited(g, audit, "control_flow", edge)
