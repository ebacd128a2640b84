"""Strongly connected components of the function call graph and the
bottom-up analysis order (callees before callers)."""

from __future__ import annotations

from typing import NamedTuple

from ..frontend.model import RepoModel
from ..udg.calls import function_of_entry
from ..udg.graph import CALL, UnifiedDependencyGraph


class SccComponent(NamedTuple):
    members: tuple[str, ...]  # function ids, sorted
    recursive: bool  # more than one member, or a member calls itself


class AnalysisSequence:
    __slots__ = ("components", "component_of", "called")

    def __init__(self, called: set[str]) -> None:
        self.components: list[SccComponent] = []
        self.component_of: dict[str, int] = {}
        self.called = called  # functions some call edge targets

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def function_call_graph(g: UnifiedDependencyGraph, model: RepoModel) -> dict[str, set[str]]:
    """caller function id -> in-repo callee function ids."""
    fcg: dict[str, set[str]] = {fid: set() for fid in model.functions}
    for e in g.edges_of(CALL):
        src_stmt = g.nodes.get(e.src)
        if src_stmt is None or src_stmt.owner not in model.functions:
            continue
        callee = function_of_entry(model, e.dst)
        if callee is not None:
            fcg[src_stmt.owner].add(callee.id)
    return fcg


def tarjan_scc(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan; components are emitted callees-first when edges
    point from caller to callee."""
    index_counter = [0]
    indices: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []

    for root in sorted(adjacency):
        if root in indices:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(adjacency.get(root, ())), 0)]
        while work:
            node, succs, pos = work[-1]
            if pos == 0:
                indices[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            while pos < len(succs):
                nxt = succs[pos]
                pos += 1
                if nxt not in indices:
                    work[-1] = (node, succs, pos)
                    work.append((nxt, sorted(adjacency.get(nxt, ())), 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], indices[nxt])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == indices[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(sorted(comp))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def compute_analysis_order(g: UnifiedDependencyGraph, model: RepoModel) -> AnalysisSequence:
    """SCC condensation of the function call graph in reverse topological
    order: every cross-component callee precedes its callers."""
    fcg = function_call_graph(g, model)
    components = tarjan_scc(fcg)
    seq = AnalysisSequence(called=set().union(*fcg.values()))
    for i, members in enumerate(components):
        recursive = len(members) > 1 or members[0] in fcg[members[0]]
        comp = SccComponent(members=tuple(members), recursive=recursive)
        seq.components.append(comp)
        for m in members:
            seq.component_of[m] = i
    return seq
