"""Reaching-definitions data-dependency edges (flow-sensitive, intraprocedural),
and the one dataflow solver the parameter summaries share.

For each use of v at statement s, an edge d -> s is produced for every
definition d of v that reaches s along some control-flow path with no
intervening redefinition.  Definition-use, not definition-definition.

The sets are int bit vectors with one bit per definition site (v, d),
numbered in sorted (v, d) order, so each variable's sites are one run of
bits and reading a set's bits upwards lists them in sorted order.
"""

from __future__ import annotations

from collections import deque

from ..frontend.model import FunctionDecl, RepoModel
from .graph import CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge, UnifiedDependencyGraph


def control_flow_edges(g: UnifiedDependencyGraph, func: FunctionDecl) -> list[UdgEdge]:
    """The control-flow edges of `g` that leave one of `func`'s statements."""
    return [e for n in (func.entry, *func.body, func.exit) for e in g.out_edges(n, CONTROL_FLOW)]


def flow_graph(nodes: list[str], edges: list[UdgEdge]) -> tuple[list[list[int]], list[list[int]]]:
    """Predecessor and successor lists of the `edges` between `nodes`, by position."""
    index = {n: i for i, n in enumerate(nodes)}
    preds: list[list[int]] = [[] for _ in nodes]
    succs: list[list[int]] = [[] for _ in nodes]
    for e in edges:
        src = index.get(e.src)
        dst = index.get(e.dst)
        if src is not None and dst is not None:
            preds[dst].append(src)
            succs[src].append(dst)
    return preds, succs


def solve(
    preds: list[list[int]], succs: list[list[int]], gen: list[int], keep: list[int], taint: dict | None = None
) -> tuple[list[int], list[int]]:
    """Each node's least in- and out-state for out = gen | (in & keep).  A node
    with a `taint` entry (shifts, mask, receives) also gets `receives` times
    the `mask` bits its in-state holds when shifted down by any of `shifts`."""
    out = [0] * len(gen)
    inn = [0] * len(gen)
    queued = [True] * len(gen)
    work = deque(range(len(gen)))
    while work:
        n = work.popleft()
        queued[n] = False
        reaching = 0
        for p in preds[n]:
            reaching |= out[p]
        inn[n] = reaching
        new_out = gen[n] | reaching & keep[n]
        if taint and n in taint:
            shifts, mask, receives = taint[n]
            bits = 0
            for s in shifts:
                bits |= reaching >> s
            new_out |= (bits & mask) * receives
        if new_out != out[n]:
            out[n] = new_out
            for s in succs[n]:
                if not queued[s]:
                    queued[s] = True
                    work.append(s)
    return inn, out


def build_ddg(func: FunctionDecl, model: RepoModel, cfg_edges: list[UdgEdge]) -> list[UdgEdge]:
    nodes = [func.entry, *func.body, func.exit]
    stmts = [model.stmt(n) for n in nodes]
    preds, succs = flow_graph(nodes, cfg_edges)

    sites = sorted((v, n, i) for i, (n, stmt) in enumerate(zip(nodes, stmts)) for v in stmt.defs)
    site_of_bit = [d for _, d, _ in sites]
    var_mask: dict[str, int] = {}
    gen = [0] * len(nodes)
    for bit, (v, _, i) in enumerate(sites):
        var_mask[v] = var_mask.get(v, 0) | 1 << bit
        gen[i] |= 1 << bit
    keep = [~sum(var_mask[v] for v in stmt.defs) for stmt in stmts]
    inn, _ = solve(preds, succs, gen, keep)

    edges: list[UdgEdge] = []
    for n, stmt in enumerate(stmts):
        if not stmt.uses or not inn[n]:
            continue
        for v in sorted(stmt.uses):
            bits = inn[n] & var_mask.get(v, 0)
            while bits:
                low = bits & -bits
                edges.append(UdgEdge(site_of_bit[low.bit_length() - 1], nodes[n], DATA_DEPENDENCY, v))
                bits ^= low
    return edges
