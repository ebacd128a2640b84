"""Reaching-definitions data-dependency edges (flow-sensitive, intraprocedural).

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
from .graph import DATA_DEPENDENCY, UdgEdge


def build_ddg(func: FunctionDecl, model: RepoModel, cfg_edges: list[UdgEdge]) -> list[UdgEdge]:
    nodes = [func.entry, *func.body, func.exit]
    index = {n: i for i, n in enumerate(nodes)}
    stmts = [model.stmt(n) for n in nodes]
    preds: list[list[int]] = [[] for _ in nodes]
    succs: list[list[int]] = [[] for _ in nodes]
    for e in cfg_edges:
        src = index.get(e.src)
        dst = index.get(e.dst)
        if src is not None and dst is not None:
            preds[dst].append(src)
            succs[src].append(dst)

    sites = sorted((v, n) for n, stmt in zip(nodes, stmts) for v in stmt.defs)
    site_of_bit = [d for _, d in sites]
    var_mask: dict[str, int] = {}
    gen = [0] * len(nodes)
    for i, (v, d) in enumerate(sites):
        var_mask[v] = var_mask.get(v, 0) | 1 << i
        gen[index[d]] |= 1 << i
    keep = [~sum(var_mask[v] for v in stmt.defs) for stmt in stmts]

    out = [0] * len(nodes)
    inn = [0] * len(nodes)
    queued = [True] * len(nodes)
    work = deque(range(len(nodes)))
    while work:
        n = work.popleft()
        queued[n] = False
        reaching = 0
        for p in preds[n]:
            reaching |= out[p]
        inn[n] = reaching
        new_out = gen[n] | reaching & keep[n]
        if new_out != out[n]:
            out[n] = new_out
            for s in succs[n]:
                if not queued[s]:
                    queued[s] = True
                    work.append(s)

    edges: list[UdgEdge] = []
    for n, stmt in enumerate(stmts):
        if not stmt.uses or not inn[n]:
            continue
        for v in sorted(stmt.uses):
            bits = inn[n] & var_mask.get(v, 0)
            while bits:
                low = bits & -bits
                edges.append(
                    UdgEdge(src=site_of_bit[low.bit_length() - 1], dst=nodes[n], tau=DATA_DEPENDENCY, variable=v)
                )
                bits ^= low
    return edges
