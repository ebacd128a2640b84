"""Graph enhancement passes: globals, call-edge refinement, labeled jumps."""

from __future__ import annotations

import re
from dataclasses import dataclass

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
from ..udg.calls import call_statements, function_of_entry, is_invocation_pattern, site_targets
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge, UnifiedDependencyGraph
from .oracle import FOLD_CAP, ConstantFolder, ResolutionOracle, _split_top, extract_json_object, fold_concat
from .prompts import (
    render_polymorphic_prompt,
    render_reflection_class_prompt,
    render_reflection_method_prompt,
    render_statement_block,
)

DATAFLOW_CONTEXT_CAP = 60  # statements nearest the call site kept in prompts


@dataclass
class AuditEntry:
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


def add_global_nodes(
    g: UnifiedDependencyGraph,
    globals_list: list[GlobalDecl],
    model: RepoModel,
    audit: list[AuditEntry] | None = None,
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
            edge = UdgEdge(src=src, dst=decl.statement, tau=DATA_DEPENDENCY, variable=v)
            if g.add_edge(edge) and audit is not None:
                audit.append(AuditEntry("add", DATA_DEPENDENCY, src, decl.statement, "globals", v))


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


def enhance_polymorphic_calls(
    g: UnifiedDependencyGraph,
    oracle: ResolutionOracle,
    model: RepoModel,
    diagnostics: DiagnosticSink | None = None,
    audit: list[AuditEntry] | None = None,
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

    Sites calling one callee (`a.m() + b.m()`) share its call edges: an edge
    is removed once, and only when no site's answer keeps it.  They are
    decided together, or all asked; a prompt already asked for at the
    statement is not asked again.  Every prompt is one call on `pool` (see
    `udgscan.pool`), issued before the first outcome is read; an edit at one
    statement changes no other statement's prompt."""
    hierarchy = _hierarchy_text(model)
    # (statement, candidates, the candidates decided by rule, one outcome per prompt)
    asked: list[tuple[StatementNode, tuple[str, ...], set[str], list]] = []
    for stmt in call_statements(g):
        per_site = site_targets(g, model, stmt)
        groups: dict[tuple[str, ...], list[int]] = {}
        for idx in range(len(stmt.calls)):
            targets = tuple(sorted(t for t in per_site.get(idx, []) if not t.startswith("external:")))
            if len(targets) >= 2:
                groups.setdefault(targets, []).append(idx)
        for targets, sites in groups.items():
            decided = {_allocated_target(g, model, stmt, stmt.calls[idx], targets) for idx in sites}
            if None not in decided:
                asked.append((stmt, targets, decided, []))
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
            asked.append((stmt, targets, set(), list(outcomes.values())))
    for stmt, targets, kept, outcomes in asked:
        for outcome in outcomes:
            feasible, warning = outcome.result()
            if warning:
                _diag(diagnostics, "warning", warning, stmt)
            kept |= feasible or set(targets)
        for t in sorted(set(targets) - kept):
            if g.remove_edges({(stmt.id, t, CALL, None)}) and audit is not None:
                audit.append(AuditEntry("remove", CALL, stmt.id, t, "polymorphism"))


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
    diagnostics: DiagnosticSink | None = None,
    audit: list[AuditEntry] | None = None,
    pool: RequestPool | None = None,
) -> None:
    """Two-step resolution of the reflective invocation sites in `g`.

    Successful answers replace the reflective external edges with a call
    edge to each resolved method; any failure keeps the external edges.

    A site is decided by rule, with no prompt built and no request, when it
    invokes a method looked up by name on one known class and the name
    folds to string constants that each name a method of that class (see
    `_looked_up_methods`).  Every other site is asked, so a transcript
    holds only the sites that were asked.  Each asked site's questions are
    one call on `pool` (see `udgscan.pool`), all issued before the first
    outcome is read; diagnostics and edits follow in site order.
    """
    class_names = sorted(model.classes)
    # (statement, the external edges an answer replaces, the methods decided
    # by rule, else the outcome of asking) per site
    sites: list[tuple[StatementNode, list[str], list[FunctionDecl] | None, object]] = []
    for stmt in call_statements(g):
        per_site = site_targets(g, model, stmt)
        # Sites sharing a reflective edge get the same prompts: ask once.
        asked: set[tuple[str, ...]] = set()
        for idx, site in enumerate(stmt.calls):
            if not is_invocation_pattern(site):
                continue
            reflective = [
                t
                for t in per_site.get(idx, [])
                if t.startswith("external:") and g.nodes[t].reflective
            ]
            if not reflective or tuple(reflective) in asked:
                continue
            asked.add(tuple(reflective))
            decided = _looked_up_methods(g, model, stmt, site)
            if decided:
                sites.append((stmt, reflective, decided, None))
                continue
            block = _dataflow_block(g, model, stmt, set(stmt.uses))
            call_line = render_statement_block([stmt], model)
            outcome = issue(
                pool, _ask_reflective, oracle, model, stmt, f"{stmt.id}/reflect{idx}", block, call_line, class_names
            )
            sites.append((stmt, reflective, None, outcome))
    for stmt, reflective, decided, outcome in sites:
        resolved = decided or outcome.result()
        if isinstance(resolved, str):
            _diag(diagnostics, "warning", resolved, stmt)
            continue
        for ext in reflective:
            if g.remove_edges({(stmt.id, ext, CALL, None)}) and audit is not None:
                audit.append(AuditEntry("remove", CALL, stmt.id, ext, "reflection"))
        for method in resolved:
            new_edge = UdgEdge(src=stmt.id, dst=method.entry, tau=CALL)
            if g.add_edge(new_edge) and audit is not None:
                audit.append(AuditEntry("add", CALL, stmt.id, method.entry, "reflection"))


# The whole value of a reflective lookup: `X.class.getMethod(<args>)` or
# `getClass().getMethod(<args>)` (or `getDeclaredMethod`).
_LOOKUP = re.compile(
    r"(?:(?P<cls>[A-Za-z_$][\w$.]*?)\s*\.\s*class|(?:this\s*\.\s*)?getClass\s*\(\s*\))"
    r"\s*\.\s*get(?:Declared)?Method\s*\((?P<args>.*)\)"
)
_LOOKUP_CALLS = frozenset({"getClass", "getMethod", "getDeclaredMethod"})


def _looked_up_methods(
    g: UnifiedDependencyGraph, model: RepoModel, stmt: StatementNode, site: CallSite
) -> list[FunctionDecl] | None:
    """The methods `site` can invoke, when it is `m.invoke(...)` on a local
    variable `m` whose one reaching definition assigns it
    `X.class.getMethod(name, ...)` of a repository class `X`, or
    `getClass().getMethod(name, ...)` in a class with no repository
    subtype, and `name` folds over reaching definitions to string constants
    (see `_reaching_strings`) that each name a method the class declares:
    per name, its first method by id, in entry order.  None when any of
    this fails."""
    func = model.functions.get(stmt.owner)
    if func is None or site.receiver not in func.var_types or site.chain != f"{site.receiver}.invoke":
        return None
    defs = [g.nodes[e.src] for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable == site.receiver]
    if len(defs) != 1:
        return None
    lookup = defs[0]
    calls = [c.name for c in lookup.calls]
    if not set(calls) <= _LOOKUP_CALLS or calls.count("getMethod") + calls.count("getDeclaredMethod") != 1:
        return None
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
    folded: dict[str, set[str] | None] = {}
    names = fold_concat(_split_top(m.group("args"), ",")[0], lambda v: _reaching_strings(g, lookup, v, folded))
    methods = _concrete_methods(model, cls)
    named = [[f for f in methods if f.name == name] for name in names or ()]
    if not named or not all(named):
        return None
    return _entry_order(min(matches, key=lambda f: f.id) for matches in named)


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


def _entry_order(methods) -> list[FunctionDecl]:
    """`methods`, each once, ordered by entry node."""
    return sorted({f.id: f for f in methods}.values(), key=lambda f: f.entry)


def _ask_reflective(
    oracle: ResolutionOracle,
    model: RepoModel,
    stmt: StatementNode,
    tag: str,
    block: str,
    call_line: str,
    class_names: list[str],
) -> list[FunctionDecl] | str:
    """Ask which class one reflective site accesses and, once that class
    resolves, which of its methods it invokes: per method name the answer
    gives (`target_methods`, or one `target_method`), its first method by
    id, in entry order, or the warning saying why the site keeps its
    external edges."""
    prompt = render_reflection_class_prompt(block, call_line, class_names)
    try:
        answer = extract_json_object(oracle.complete(prompt, f"{tag}/class"))
        cls_name = str(answer.get("target_class", "")).strip()
    except OracleParseError as exc:
        return f"reflection class oracle fault at {stmt.id}: {exc}"
    cls = model.resolve_class(cls_name, stmt.file) if cls_name else None
    if cls is None:
        return f"reflection target class '{cls_name}' not in repository"
    methods = _concrete_methods(model, cls)
    prompt = render_reflection_method_prompt(block, call_line, [f.signature_text() for f in methods])
    try:
        answer = extract_json_object(oracle.complete(prompt, f"{tag}/method"))
        named = answer.get("target_methods", answer.get("target_method", ""))
        names = [str(name).strip() for name in (named if isinstance(named, list) else [named])]
    except OracleParseError as exc:
        return f"reflection method oracle fault at {stmt.id}: {exc}"
    matches = [[f for f in methods if name in (f.name, f.signature_text())] for name in names]
    if not any(matches):
        return f"reflection target method '{', '.join(names)}' not in {cls.name}"
    return _entry_order(min(found, key=lambda f: f.id) for found in matches if found)


def reconstruct_labeled_jumps(
    g: UnifiedDependencyGraph,
    targets: list[JumpTarget],
    audit: list[AuditEntry] | None = None,
) -> None:
    """Add a control-flow edge to `g` from each labeled jump to its resolved
    successor."""
    for t in sorted(targets, key=lambda t: t.jump):
        edge = UdgEdge(src=t.jump, dst=t.resolved_successor, tau=CONTROL_FLOW)
        if g.add_edge(edge) and audit is not None:
            audit.append(AuditEntry("add", CONTROL_FLOW, t.jump, t.resolved_successor, "control_flow"))


def _diag(diagnostics: DiagnosticSink | None, severity: str, message: str, stmt: StatementNode) -> None:
    if diagnostics is not None:
        diagnostics.add(severity, "enhance", message, stmt.file, stmt.start_line)
