"""Graph enhancement passes: globals, call-edge refinement, labeled jumps."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import ClientTransportError, DiagnosticSink, OracleParseError
from ..frontend.model import (
    CallSite,
    ClassDecl,
    FunctionDecl,
    GlobalDecl,
    JumpTarget,
    RepoModel,
    StatementNode,
)
from ..pool import RequestPool, issue, reserve
from ..udg.calls import call_statements, function_of_entry, is_invocation_pattern, site_targets
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge, UnifiedDependencyGraph
from .oracle import ResolutionOracle, extract_json_object
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
            edge = UdgEdge(
                src=src,
                dst=decl.statement,
                tau=DATA_DEPENDENCY,
                provenance="enhancement_added",
                variable=v,
            )
            if g.add_edge(edge) and audit is not None:
                audit.append(AuditEntry("add", DATA_DEPENDENCY, src, decl.statement, "globals", v))


def backward_dataflow_context(
    g: UnifiedDependencyGraph,
    stmt: StatementNode,
    variables: set[str],
    cap: int = DATAFLOW_CONTEXT_CAP,
) -> tuple[list[StatementNode], bool]:
    """Transitive backward closure over data edges for the requested
    variables; source order, truncated oldest-first at `cap` statements."""
    work = deque(
        e.src for e in g.in_edges(stmt.id, DATA_DEPENDENCY) if e.variable in variables
    )
    seen: set[str] = set()
    while work:
        cur = work.popleft()
        if cur in seen:
            continue
        seen.add(cur)
        for e in g.in_edges(cur, DATA_DEPENDENCY):
            if e.src not in seen:
                work.append(e.src)
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
    for cls in sorted(model.classes.values(), key=lambda c: c.name):
        for sup in cls.supertypes:
            if model.resolve_class(sup, cls.file) is None:
                lines.append(f"{cls.name} extends {sup} (external)")
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


def _ask(oracle: ResolutionOracle, prompt: str, site: str) -> str:
    return oracle.complete(prompt, site)


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

    Sites calling one callee (`a.m() + b.m()`) share its call edges: an edge
    is removed once, and only when no site's answer keeps it.  A prompt
    already asked for at the statement is not asked again.  Every prompt is
    issued on `pool` (see `udgscan.pool`) before the first answer is read;
    an edit at one statement changes no other statement's prompt."""
    hierarchy = _hierarchy_text(model)
    # (statement, candidates, [(answer, names an answer may give)] per prompt)
    asked: list[tuple[StatementNode, tuple[str, ...], list]] = []
    for stmt in call_statements(g):
        per_site = site_targets(g, model, stmt)
        groups: dict[tuple[str, ...], list[int]] = {}
        for idx in range(len(stmt.calls)):
            targets = tuple(sorted(t for t in per_site.get(idx, []) if not t.startswith("external:")))
            if len(targets) >= 2:
                groups.setdefault(targets, []).append(idx)
        for targets, sites in groups.items():
            answers: dict[str, tuple] = {}
            for idx in sites:
                prompt, by_signature = _polymorphic_prompt(
                    g, model, stmt, stmt.calls[idx], targets, hierarchy
                )
                if prompt not in answers:
                    answer = issue(pool, _ask, oracle, prompt, f"{stmt.id}/poly{idx}")
                    answers[prompt] = (answer, by_signature)
            asked.append((stmt, targets, list(answers.values())))
    for stmt, targets, answers in asked:
        kept: set[str] = set()
        for answer, by_signature in answers:
            kept |= _feasible_targets(answer, by_signature, diagnostics, stmt) or set(targets)
        for t in sorted(set(targets) - kept):
            if g.remove_edges({(stmt.id, t, CALL, None)}) and audit is not None:
                audit.append(AuditEntry("remove", CALL, stmt.id, t, "polymorphism"))


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


def _feasible_targets(
    answer,
    by_signature: dict[str, str],
    diagnostics: DiagnosticSink | None,
    stmt: StatementNode,
) -> set[str]:
    """The candidates the oracle's answer names feasible; empty on a fault."""
    try:
        named = extract_json_object(answer.result()).get("feasible_targets")
        if not isinstance(named, list):
            raise OracleParseError("feasible_targets missing or not a list")
    except OracleParseError as exc:
        _diag(diagnostics, "warning", f"polymorphism oracle fault at {stmt.id}: {exc}", stmt)
        return set()
    feasible: set[str] = set()
    for name in named:
        t = by_signature.get(str(name).strip())
        if t:
            feasible.add(t)
    if not feasible:
        _diag(diagnostics, "warning", f"oracle named no known candidate at {stmt.id}", stmt)
    return feasible


@dataclass
class _ReflectiveSite:
    """One reflective invocation site and the state of its two questions."""

    stmt: StatementNode
    idx: int
    reflective: list[str]  # the external edges an answer replaces
    block: str
    call_line: str
    class_answer: object  # future of the class question
    method_oracle: object  # where the method question goes, reserved in issue order
    failure: Exception | None = None  # the class question's transport failure
    fault: str = ""  # why the site keeps its external edges
    cls: ClassDecl | None = None
    methods: list[FunctionDecl] = field(default_factory=list)
    method_answer: object = None


def enhance_reflective_calls(
    g: UnifiedDependencyGraph,
    oracle: ResolutionOracle,
    model: RepoModel,
    diagnostics: DiagnosticSink | None = None,
    audit: list[AuditEntry] | None = None,
    pool: RequestPool | None = None,
) -> None:
    """Two-step resolution of the reflective invocation sites in `g`.

    Successful answers replace the reflective external edge with a call edge
    to the resolved method; any failure keeps the external edge.  Every
    site's class question is issued on `pool` first, then the method
    question of each site whose class resolved; diagnostics and edits
    follow in site order.
    """
    class_names = sorted(model.classes)
    sites: list[_ReflectiveSite] = []
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
            block = _dataflow_block(g, model, stmt, set(stmt.uses))
            call_line = render_statement_block([stmt], model)
            class_answer = issue(
                pool,
                _ask,
                oracle,
                render_reflection_class_prompt(block, call_line, class_names),
                f"{stmt.id}/reflect{idx}/class",
            )
            # The method question follows its class question in a transcript.
            sites.append(
                _ReflectiveSite(stmt, idx, reflective, block, call_line, class_answer, reserve(oracle))
            )

    for rs in sites:
        try:
            answer1 = extract_json_object(rs.class_answer.result())
            cls_name = str(answer1.get("target_class", "")).strip()
        except OracleParseError as exc:
            rs.fault = f"reflection class oracle fault at {rs.stmt.id}: {exc}"
            continue
        except ClientTransportError as exc:
            rs.failure = exc  # raised below, after the earlier sites' diagnostics
            break
        rs.cls = model.resolve_class(cls_name, rs.stmt.file) if cls_name else None
        if rs.cls is None:
            rs.fault = f"reflection target class '{cls_name}' not in repository"
            continue
        rs.methods = [model.functions[fid] for fid in rs.cls.methods if not model.functions[fid].is_abstract]
        rs.method_answer = issue(
            pool,
            _ask,
            rs.method_oracle,
            render_reflection_method_prompt(
                rs.block, rs.call_line, [f.signature_text() for f in rs.methods]
            ),
            f"{rs.stmt.id}/reflect{rs.idx}/method",
        )

    for rs in sites:
        stmt = rs.stmt
        if rs.failure is not None:
            raise rs.failure
        if rs.fault:
            _diag(diagnostics, "warning", rs.fault, stmt)
            continue
        try:
            answer2 = extract_json_object(rs.method_answer.result())
            method_name = str(answer2.get("target_method", "")).strip()
        except OracleParseError as exc:
            _diag(diagnostics, "warning", f"reflection method oracle fault at {stmt.id}: {exc}", stmt)
            continue
        matches = [f for f in rs.methods if f.name == method_name or f.signature_text() == method_name]
        if not matches:
            _diag(
                diagnostics,
                "warning",
                f"reflection target method '{method_name}' not in {rs.cls.name}",
                stmt,
            )
            continue
        resolved = sorted(matches, key=lambda f: f.id)[0]
        for ext in rs.reflective:
            if g.remove_edges({(stmt.id, ext, CALL, None)}) and audit is not None:
                audit.append(AuditEntry("remove", CALL, stmt.id, ext, "reflection"))
        new_edge = UdgEdge(
            src=stmt.id, dst=resolved.entry, tau=CALL, provenance="enhancement_added"
        )
        if g.add_edge(new_edge) and audit is not None:
            audit.append(AuditEntry("add", CALL, stmt.id, resolved.entry, "reflection"))


def reconstruct_labeled_jumps(
    g: UnifiedDependencyGraph,
    targets: list[JumpTarget],
    audit: list[AuditEntry] | None = None,
) -> None:
    """Add a control-flow edge to `g` from each labeled jump to its resolved
    successor."""
    for t in sorted(targets, key=lambda t: t.jump):
        edge = UdgEdge(
            src=t.jump, dst=t.resolved_successor, tau=CONTROL_FLOW, provenance="enhancement_added"
        )
        if g.add_edge(edge) and audit is not None:
            audit.append(AuditEntry("add", CONTROL_FLOW, t.jump, t.resolved_successor, "control_flow"))


def _diag(diagnostics: DiagnosticSink | None, severity: str, message: str, stmt: StatementNode) -> None:
    if diagnostics is not None:
        diagnostics.add(severity, "enhance", message, stmt.file, stmt.start_line)
