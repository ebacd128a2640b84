"""Parameter-to-return dependency summaries via taint-style reachability.

Each function is summarized by a boolean map: does the return value
data-depend on each formal parameter?  Taint seeds at the parameters and
propagates along the enhanced control-flow edges with per-statement transfer
functions.  At a call statement, `flowing_uses` decides which uses reach the
value: callee summaries apply at in-repo call sites, external calls
conservatively pass on every argument.  Data-edge pruning applies the same
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.model import RETURN_VAR, FunctionDecl, RepoModel
from ..udg.calls import function_of_entry, site_targets
from ..udg.graph import CONTROL_FLOW, UnifiedDependencyGraph
from .order import AnalysisSequence

PRIMITIVE_TYPES = frozenset(
    "boolean byte char double float int long short void".split()
)


@dataclass
class FunctionSummary:
    function: str
    phi: dict[str, bool] = field(default_factory=dict)

    def depends(self, param: str) -> bool:
        return self.phi.get(param, False)


@dataclass
class AliasSets:
    """Flow-insensitive per-function partition of reference variables."""

    groups: dict[str, frozenset[str]] = field(default_factory=dict)

    def of(self, var: str) -> frozenset[str]:
        return self.groups.get(var, frozenset((var,)))


def build_alias_sets(func: FunctionDecl, model: RepoModel) -> AliasSets:
    """Union direct reference assignments `a = b`; `new` starts fresh sets."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    def is_reference(var: str) -> bool:
        t = func.var_types.get(var, "")
        return bool(t) and t not in PRIMITIVE_TYPES

    for sid in func.body:
        stmt = model.stmt(sid)
        if stmt.kind not in ("assignment", "declaration"):
            continue
        if stmt.calls or len(stmt.defs) != 1 or len(stmt.uses) != 1:
            continue
        lhs = next(iter(stmt.defs))
        rhs = next(iter(stmt.uses))
        code = (stmt.code or "").rstrip(";").strip()
        if not code.endswith(rhs):
            continue
        if is_reference(lhs) and is_reference(rhs):
            union(lhs, rhs)

    groups: dict[str, set[str]] = {}
    for var in parent:
        groups.setdefault(find(var), set()).add(var)
    out = AliasSets()
    for members in groups.values():
        fs = frozenset(members)
        for m in members:
            out.groups[m] = fs
    return out


def compute_function_summary(
    func: FunctionDecl,
    g: UnifiedDependencyGraph,
    model: RepoModel,
    known: dict[str, FunctionSummary],
    aliases: AliasSets | None = None,
) -> FunctionSummary:
    """Single flow-sensitive pass over one function's control-flow edges."""
    if func.is_abstract or func.id not in model.bodies:
        return FunctionSummary(func.id, {p: True for p in func.params})
    aliases = aliases or build_alias_sets(func, model)
    nodes = [func.entry] + list(func.body) + [func.exit]
    node_set = set(nodes)
    preds = {n: [e.src for e in g.in_edges(n, CONTROL_FLOW) if e.src in node_set] for n in nodes}
    succs = {n: [e.dst for e in g.out_edges(n, CONTROL_FLOW) if e.dst in node_set] for n in nodes}

    empty: dict[str, frozenset[str]] = {}
    out_state: dict[str, dict[str, frozenset[str]]] = {n: dict(empty) for n in nodes}
    seed = {p: frozenset((p,)) for p in func.params}
    out_state[func.entry] = seed

    order = _reverse_postorder(func.entry, succs)
    work = [n for n in order if n != func.entry]
    in_work = set(work)
    while work:
        n = work.pop(0)
        in_work.discard(n)
        current: dict[str, frozenset[str]] = {}
        for p in preds[n]:
            for var, taint in out_state[p].items():
                current[var] = current.get(var, frozenset()) | taint
        new_out = _transfer(model.stmt(n), current, g, model, known, aliases)
        if new_out != out_state[n]:
            out_state[n] = new_out
            for s in succs[n]:
                if s != func.entry and s not in in_work:
                    work.append(s)
                    in_work.add(s)

    # Return statements all flow to exit, so the exit join aggregates every
    # recorded return-variable taint; the per-node union is redundant armor.
    ret_taint: frozenset[str] = frozenset()
    for p in preds[func.exit]:
        ret_taint |= out_state[p].get(RETURN_VAR, frozenset())
    for n in nodes:
        ret_taint |= out_state[n].get(RETURN_VAR, frozenset())
    phi = {p: (p in ret_taint) for p in func.params}
    return FunctionSummary(func.id, phi)


def _reverse_postorder(entry: str, succs: dict[str, list[str]]) -> list[str]:
    seen: set[str] = set()
    post: list[str] = []

    def visit(start: str) -> None:
        stack = [(start, iter(sorted(succs.get(start, ()))))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(succs.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                post.append(node)
                stack.pop()

    visit(entry)
    return list(reversed(post))


def _taint_of(state: dict[str, frozenset[str]], variables) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for v in variables:
        out |= state.get(v, frozenset())
    return out


def flowing_uses(stmt, per_site, model: RepoModel, summaries: dict[str, FunctionSummary]) -> set[str]:
    """The uses of `stmt` that can reach its value, given each call site's
    targets (`per_site`, from `site_targets`) and the callee summaries.

    A use reaches the value when it is a receiver other than `this`; an
    argument of a constructor, or of a site whose targets are empty or
    include an `external:` node; an argument whose parameter reaches the
    return of some in-repo target (its summary marks the parameter, it has
    no summary yet, or no parameter at that index); or a use outside the
    arguments of in-repo-only sites.  Summaries and pruning both read this
    rule.
    """
    flowing: set[str] = set()
    argument_only: set[str] = set()
    for idx, site in enumerate(stmt.calls):
        if site.receiver and site.receiver != "this":
            flowing.add(site.receiver)
        targets = per_site.get(idx, [])
        if site.is_constructor or not targets or any(t.startswith("external:") for t in targets):
            for arg_vars in site.arg_vars:
                flowing |= arg_vars
            continue
        callees = [function_of_entry(model, t) for t in targets]
        for i, arg_vars in enumerate(site.arg_vars):
            argument_only |= arg_vars
            for callee in callees:
                summary = summaries.get(callee.id)
                if i >= len(callee.params) or summary is None or summary.depends(callee.params[i]):
                    flowing |= arg_vars
                    break
    return flowing | (set(stmt.uses) - argument_only)


def _transfer(stmt, state, g, model, known, aliases: AliasSets):
    if stmt.kind in ("condition", "loop_header", "label", "entry", "exit"):
        return dict(state)
    if not stmt.defs:
        return dict(state)

    per_site = site_targets(g, model, stmt) if stmt.calls else {}
    rhs_taint = _taint_of(state, flowing_uses(stmt, per_site, model, known))

    new_state = dict(state)
    for target in sorted(stmt.defs):
        if target == RETURN_VAR:
            new_state[RETURN_VAR] = new_state.get(RETURN_VAR, frozenset()) | rhs_taint
            continue
        new_state[target] = rhs_taint
        for alias in aliases.of(target):
            if alias != target:
                new_state[alias] = new_state.get(alias, frozenset()) | rhs_taint
    return new_state


def fixed_point_scc(
    scc_members: tuple[str, ...],
    g: UnifiedDependencyGraph,
    model: RepoModel,
    known: dict[str, FunctionSummary],
    aliases_by_func: dict[str, AliasSets],
) -> dict[str, FunctionSummary]:
    """Chaotic iteration from all-false summaries until no phi flips."""
    for fid in scc_members:
        func = model.functions[fid]
        known[fid] = FunctionSummary(fid, {p: False for p in func.params})
    changed = True
    while changed:
        changed = False
        for fid in scc_members:
            func = model.functions[fid]
            summary = compute_function_summary(func, g, model, known, aliases_by_func.get(fid))
            if summary.phi != known[fid].phi:
                known[fid] = summary
                changed = True
    return {fid: known[fid] for fid in scc_members}


def compute_all_summaries(
    g: UnifiedDependencyGraph, model: RepoModel, order: AnalysisSequence
) -> dict[str, FunctionSummary]:
    aliases_by_func = {
        fid: build_alias_sets(model.functions[fid], model) for fid in model.functions
    }
    known: dict[str, FunctionSummary] = {}
    for comp in order:
        if comp.recursive:
            fixed_point_scc(comp.members, g, model, known, aliases_by_func)
        else:
            fid = comp.members[0]
            func = model.functions[fid]
            known[fid] = compute_function_summary(func, g, model, known, aliases_by_func.get(fid))
    return known
