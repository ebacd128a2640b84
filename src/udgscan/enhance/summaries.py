"""Parameter-to-return dependency summaries via taint-style reachability.

Each function is summarized by a boolean map: does the return value
data-depend on each formal parameter?  Taint seeds at the parameters, as
the entry's gen, and propagates along the enhanced control-flow edges
through the solver reaching definitions use (`udg.ddg.solve`), with one
transfer rule: a statement that defines nothing passes its state on, and
one that defines something keeps what it does not overwrite and taints its
receivers with what its flowing uses carry.  At a call statement,
`flowing_uses` decides which uses reach the value: callee summaries apply
at in-repo call sites, external calls conservatively pass on every
argument.  Data-edge pruning applies the same rule.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import NamedTuple

from ..frontend.model import RETURN_VAR, FunctionDecl, RepoModel
from ..udg.calls import function_of_entry, site_targets
from ..udg.ddg import control_flow_edges, flow_graph, solve
from ..udg.graph import UnifiedDependencyGraph, is_external
from .order import AnalysisSequence

PRIMITIVE_TYPES = frozenset(
    "boolean byte char double float int long short void".split()
)


class FunctionSummary(NamedTuple):
    function: str
    phi: dict[str, bool]

    def depends(self, param: str) -> bool:
        return self.phi.get(param, False)


class AliasSets(NamedTuple):
    """Flow-insensitive per-function partition of reference variables."""

    groups: dict[str, frozenset[str]]

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
    out: dict[str, frozenset[str]] = {}
    for members in groups.values():
        fs = frozenset(members)
        for m in members:
            out[m] = fs
    return AliasSets(out)


def compute_function_summary(
    func: FunctionDecl,
    g: UnifiedDependencyGraph,
    model: RepoModel,
    known: dict[str, FunctionSummary],
    aliases: AliasSets | None = None,
) -> FunctionSummary:
    """Single flow-sensitive pass over one function's control-flow edges.

    A state is one int holding a mask over the parameters for each variable:
    bit `slot * P + i` is set when parameter i (of P) taints the variable in
    `slot`.  Each statement's transfer facts are computed once per pass."""
    if func.is_abstract or func.id not in model.bodies:
        return FunctionSummary(func.id, {p: True for p in func.params})
    params = list(dict.fromkeys(func.params))
    if not params:
        return FunctionSummary(func.id, {})
    aliases = aliases or build_alias_sets(func, model)
    width = len(params)
    full = (1 << width) - 1
    slots: dict[str, int] = {}

    def shift(var: str) -> int:
        return slots.setdefault(var, len(slots)) * width

    group_bits: dict[frozenset[str], int] = {}  # one bit per member of each alias group

    def receivers(target: str) -> int:
        group = aliases.of(target)
        bits = group_bits.get(group)
        if bits is None:
            bits = group_bits[group] = sum(1 << shift(alias) for alias in group)
        return bits

    nodes = [func.entry, *func.body, func.exit]
    preds, succs = flow_graph(nodes, control_flow_edges(g, func))
    gen = [0] * len(nodes)
    gen[0] = sum(1 << shift(p) + i for i, p in enumerate(params))
    keep = [-1] * len(nodes)
    taint: dict[int, tuple[tuple[int, ...], int, int]] = {}
    for i, n in enumerate(nodes[1:], 1):  # the entry has no predecessor: only its seed
        stmt = model.stmt(n)
        if not stmt.defs:
            continue
        per_site = site_targets(g, model, stmt) if stmt.calls else {}
        uses = tuple(shift(u) for u in flowing_uses(stmt, per_site, model, known))
        overwritten = receives = 0
        for target in stmt.defs:
            if target == RETURN_VAR:
                receives |= 1 << shift(target)
            else:
                overwritten |= full << shift(target)
                receives |= receivers(target)
        keep[i] = ~overwritten
        taint[i] = (uses, full, receives)
    _, out = solve(preds, succs, gen, keep, taint)

    # Each return statement adds to the return variable's taint, so the union
    # of every statement's state holds all of it.
    ret_taint = 0
    if RETURN_VAR in slots:
        for state in out:
            ret_taint |= state
        ret_taint = ret_taint >> slots[RETURN_VAR] * width & full
    bit = {p: i for i, p in enumerate(params)}
    return FunctionSummary(func.id, {p: bool(ret_taint >> bit[p] & 1) for p in func.params})


def flowing_uses(stmt, per_site, model: RepoModel, summaries: Mapping[str, FunctionSummary]) -> set[str]:
    """The uses of `stmt` that can reach its value, given each call site's
    targets (`per_site`, from `site_targets`) and the callee summaries.

    A use reaches the value when it is made outside every argument list
    (`stmt.outside_uses`); when it is a receiver other than `this`; an
    argument of a constructor, or of a site whose targets are empty or
    include an external node; or an argument whose parameter reaches the
    return of some in-repo target (its summary marks the parameter, it has
    no summary yet, or no parameter at that index).  So a resolved `invoke`,
    which has no targets, passes every argument on.  Summaries and pruning
    both read this rule.
    """
    flowing = set(stmt.outside_uses)
    for idx, site in enumerate(stmt.calls):
        if site.receiver and site.receiver != "this":
            flowing.add(site.receiver)
        targets = per_site.get(idx, [])
        if site.is_constructor or not targets or any(map(is_external, targets)):
            for arg_vars in site.arg_vars:
                flowing |= arg_vars
            continue
        callees = [function_of_entry(model, t) for t in targets]
        for i, arg_vars in enumerate(site.arg_vars):
            for callee in callees:
                summary = summaries.get(callee.id)
                if i >= len(callee.params) or summary is None or summary.depends(callee.params[i]):
                    flowing |= arg_vars
                    break
    return flowing


def fixed_point_scc(
    scc_members: tuple[str, ...],
    g: UnifiedDependencyGraph,
    model: RepoModel,
    known: dict[str, FunctionSummary],
) -> dict[str, FunctionSummary]:
    """Chaotic iteration from all-false summaries until no phi flips."""
    aliases = {fid: build_alias_sets(model.functions[fid], model) for fid in scc_members}
    for fid in scc_members:
        func = model.functions[fid]
        known[fid] = FunctionSummary(fid, {p: False for p in func.params})
    changed = True
    while changed:
        changed = False
        for fid in scc_members:
            func = model.functions[fid]
            summary = compute_function_summary(func, g, model, known, aliases[fid])
            if summary.phi != known[fid].phi:
                known[fid] = summary
                changed = True
    return {fid: known[fid] for fid in scc_members}


class SummaryTable(Mapping[str, FunctionSummary]):
    """Every function's summary by function id, in analysis order.

    `compute_all_summaries` solves the functions some call edge targets.
    Any other function's summary is computed the first time it is read and
    then kept.  Such a function's callees are all called, so already solved,
    and the passes after summarising remove only data edges, so it sees the
    control-flow and call edges the eager pass saw and gets the same phi.
    """

    def __init__(
        self,
        g: UnifiedDependencyGraph,
        model: RepoModel,
        order: AnalysisSequence,
        solved: dict[str, FunctionSummary],
    ):
        self._g = g
        self._model = model
        self._ids = order.component_of  # every function, in analysis order
        self._solved = solved

    def __getitem__(self, fid: str) -> FunctionSummary:
        summary = self._solved.get(fid)
        if summary is None:
            if fid not in self._ids:
                raise KeyError(fid)
            func = self._model.functions[fid]
            summary = self._solved[fid] = compute_function_summary(func, self._g, self._model, self._solved)
        return summary

    def __contains__(self, fid: object) -> bool:
        return fid in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


def compute_all_summaries(
    g: UnifiedDependencyGraph, model: RepoModel, order: AnalysisSequence
) -> SummaryTable:
    """Solve, callees first, each component that holds a function some call
    edge targets (every recursive one does); the other functions' summaries
    are computed when first read (see `SummaryTable`)."""
    solved: dict[str, FunctionSummary] = {}
    for comp in order:
        if comp.recursive:
            fixed_point_scc(comp.members, g, model, solved)
        elif comp.members[0] in order.called:
            func = model.functions[comp.members[0]]
            solved[func.id] = compute_function_summary(func, g, model, solved)
    return SummaryTable(g, model, order, solved)
