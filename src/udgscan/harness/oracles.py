"""Brute-force oracles for differential testing.

These deliberately avoid the production algorithms: summaries come from
depth-bounded inlining with exhaustive path enumeration, slices from plain
reachability closures, and SCCs from pairwise reachability.  Test-support
code; not part of the library API.
"""

from __future__ import annotations

from ..errors import BudgetExceeded
from ..frontend import syntax as syn
from ..frontend.model import RETURN_VAR, FunctionDecl, RepoModel
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UnifiedDependencyGraph, is_external

PATH_ENV_CAP = 4096
LOOP_UNROLL = 3


def brute_force_summary_oracle(
    model: RepoModel, func: FunctionDecl, depth_k: int = 4
) -> dict[str, bool]:
    """Parameter-to-return dependence by inlining every in-repo call and
    enumerating all paths.  Non-recursive chains inline fully; recursive
    re-entry is unrolled depth_k times, after which the call contributes no
    dependence (the least-fixed-point reading).  External calls taint with
    all arguments."""
    return _Inliner(model, depth_k).dependence(func, {})


class _Inliner:
    def __init__(self, model: RepoModel, depth_k: int):
        self.model = model
        self.depth_k = depth_k
        self.memo: dict[tuple, dict[str, bool]] = {}

    def dependence(self, func: FunctionDecl, stack: dict[str, int]) -> dict[str, bool]:
        """stack counts how often each function is currently being inlined;
        only the entries above zero matter for memoization."""
        if stack.get(func.id, 0) >= self.depth_k:
            return {p: False for p in func.params}
        key = (func.id, tuple(sorted((f, c) for f, c in stack.items() if c > 0)))
        if key in self.memo:
            return self.memo[key]
        if func.is_abstract or func.id not in self.model.bodies:
            result = {p: True for p in func.params}
            self.memo[key] = result
            return result
        inner = dict(stack)
        inner[func.id] = inner.get(func.id, 0) + 1
        env0 = {p: frozenset((p,)) for p in func.params}
        ret_sets: list[frozenset[str]] = []
        self._run_list(self.model.bodies[func.id], [env0], ret_sets, inner)
        ret: frozenset[str] = frozenset()
        for s in ret_sets:
            ret |= s
        result = {p: (p in ret) for p in func.params}
        self.memo[key] = result
        return result

    def _resolve(self, name: str, arity: int) -> FunctionDecl | None:
        hits = [f for f in self.model.functions.values() if f.name == name and f.arity == arity]
        return hits[0] if len(hits) == 1 else None

    def _eval_stmt(self, sid: str, env: dict, stack: dict[str, int]) -> dict:
        stmt = self.model.stmt(sid)
        # Uses outside every argument list and receivers always reach the value.
        reaching = set(stmt.outside_uses)
        for site in stmt.calls:
            if site.receiver and site.receiver != "this":
                reaching.add(site.receiver)
            callee = None if site.is_constructor else self._resolve(site.name, site.arity)
            phi = self.dependence(callee, stack) if callee is not None else None
            for i, arg_vars in enumerate(site.arg_vars):
                if phi is None or (i < len(callee.params) and phi.get(callee.params[i], False)):
                    reaching |= arg_vars
        taint: frozenset[str] = frozenset()
        for v in reaching:
            taint |= env.get(v, frozenset())
        new_env = dict(env)
        for d in stmt.defs:
            if d == RETURN_VAR:
                continue
            new_env[d] = taint
        new_env["__rhs__"] = taint  # consumed by return handling
        return new_env

    def _run_list(self, stmts, envs, ret_sets, stack):
        for stmt in stmts:
            envs = self._run_stmt(stmt, envs, ret_sets, stack)
            if len(envs) > PATH_ENV_CAP:
                raise BudgetExceeded("path enumeration exceeded the configured cap")
            if not envs:
                break
        return envs

    def _run_stmt(self, stmt, envs, ret_sets, stack):
        if isinstance(stmt, syn.Simple):
            return [
                {k: v for k, v in self._eval_stmt(stmt.node, e, stack).items() if k != "__rhs__"}
                for e in envs
            ]
        if isinstance(stmt, syn.Return):
            for e in envs:
                out = self._eval_stmt(stmt.node, e, stack)
                ret_sets.append(out["__rhs__"])
            return []  # the path terminates
        if isinstance(stmt, syn.Jump):
            return envs  # generator corpus carries no jumps; treat as no-op
        if isinstance(stmt, syn.Block):
            return self._run_list(stmt.stmts, envs, ret_sets, stack)
        if isinstance(stmt, syn.If):
            a = self._run_list(stmt.then, [dict(e) for e in envs], ret_sets, stack)
            b = self._run_list(stmt.orelse, [dict(e) for e in envs], ret_sets, stack)
            return a + b
        if isinstance(stmt, (syn.While, syn.DoWhile, syn.For, syn.ForEach)):
            body = stmt.body
            prologue: list = []
            if isinstance(stmt, syn.For) and stmt.init:
                prologue = [syn.Simple(stmt.init)]
            if isinstance(stmt, syn.ForEach):
                prologue = [syn.Simple(stmt.update)]
            envs = self._run_list(prologue, envs, ret_sets, stack)
            out = [dict(e) for e in envs]
            cur = envs
            iteration = (
                [syn.Simple(stmt.update)]
                if isinstance(stmt, (syn.For, syn.ForEach)) and stmt.update
                else []
            )
            for _ in range(LOOP_UNROLL):
                cur = self._run_list(list(body) + iteration, [dict(e) for e in cur], ret_sets, stack)
                out.extend(dict(e) for e in cur)
                if len(out) > PATH_ENV_CAP:
                    raise BudgetExceeded("loop unrolling exceeded the configured cap")
            return out
        if isinstance(stmt, syn.Switch):
            out = []
            for _, case_stmts in stmt.cases:
                out.extend(self._run_list(case_stmts, [dict(e) for e in envs], ret_sets, stack))
            out.extend(dict(e) for e in envs)
            return out
        if isinstance(stmt, syn.Labeled):
            return self._run_stmt(stmt.inner, envs, ret_sets, stack)
        if isinstance(stmt, syn.Try):
            envs = self._run_list(stmt.body, envs, ret_sets, stack)
            return self._run_list(stmt.finally_, envs, ret_sets, stack)
        return envs


# ----------------------------------------------------------- graph closures


def reachability_closure(
    g: UnifiedDependencyGraph, start: str, taus: tuple[str, ...], forward: bool
) -> set[str]:
    seen = {start}
    work = [start]
    while work:
        cur = work.pop()
        edges = g.out_edges(cur) if forward else g.in_edges(cur)
        for e in edges:
            if e.tau not in taus:
                continue
            nxt = e.dst if forward else e.src
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return seen


def data_slice_oracle(g: UnifiedDependencyGraph, start: str, direction: str) -> set[str]:
    out = {start}
    if direction in ("forward", "both"):
        out |= reachability_closure(g, start, (DATA_DEPENDENCY,), forward=True)
    if direction in ("backward", "both"):
        out |= reachability_closure(g, start, (DATA_DEPENDENCY,), forward=False)
    return out


def control_slice_oracle(g: UnifiedDependencyGraph, start: str, hop_limit: int) -> set[str]:
    """Hop-accounting BFS over control-flow and call edges, both directions."""
    out = {start}
    for forward in (True, False):
        best = {start: 0}
        work = [start]
        while work:
            cur = work.pop(0)
            if is_external(cur):
                continue
            edges = g.out_edges(cur) if forward else g.in_edges(cur)
            for e in edges:
                if e.tau not in (CONTROL_FLOW, CALL):
                    continue
                cost = 1 if e.tau == CALL else 0
                nxt = e.dst if forward else e.src
                nh = best[cur] + cost
                if nh > hop_limit:
                    continue
                if nxt not in best or best[nxt] > nh:
                    best[nxt] = nh
                    work.append(nxt)
        out |= set(best)
    return out


def scc_reachability_oracle(adjacency: dict[str, set[str]]) -> list[frozenset[str]]:
    """SCCs from pairwise reachability closure."""
    nodes = sorted(set(adjacency) | {v for vs in adjacency.values() for v in vs})
    reach: dict[str, set[str]] = {}
    for n in nodes:
        seen = set()
        work = [n]
        while work:
            cur = work.pop()
            for nxt in adjacency.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        reach[n] = seen
    assigned: set[str] = set()
    comps: list[frozenset[str]] = []
    for n in nodes:
        if n in assigned:
            continue
        comp = {n} | {m for m in nodes if m in reach[n] and n in reach[m]}
        assigned |= comp
        comps.append(frozenset(comp))
    return comps


def reaching_def_has_path(
    succs: dict[str, list[str]],
    defs_of: dict[str, set[str]],
    d: str,
    s: str,
    var: str,
) -> bool:
    """Is there a CFG path d -> ... -> s with no intervening redefinition of
    var (endpoints excluded from the kill check)?"""
    work = list(succs.get(d, ()))
    seen = set()
    while work:
        cur = work.pop()
        if cur == s:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        if var in defs_of.get(cur, set()):
            continue  # killed along this path
        work.extend(succs.get(cur, ()))
    return False
