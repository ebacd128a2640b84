"""Assembly of the original unified dependency graph."""

from __future__ import annotations

from ..frontend.model import RepoModel
from .calls import build_call_graph
from .cfg import build_cfg
from .ddg import build_ddg
from .graph import UnifiedDependencyGraph

def assemble_original_udg(model: RepoModel) -> UnifiedDependencyGraph:
    """Union of per-function CFG/DDG edges and the conservative call graph.

    Every argument's reaching definition already feeds the call-site node via
    a def-use edge; those conservative interprocedural edges are the ones the
    summary pass prunes.  Global statements are not yet nodes.
    """
    g = UnifiedDependencyGraph()
    for fid in sorted(model.functions):
        func = model.functions[fid]
        g.add_node(model.stmt(func.entry))
        for sid in func.body:
            g.add_node(model.stmt(sid))
        g.add_node(model.stmt(func.exit))
        cfg_edges = build_cfg(func, model)
        for e in cfg_edges:
            g.add_edge(e)
        for e in build_ddg(func, model, cfg_edges):
            g.add_edge(e)
    call_edges, externals = build_call_graph(model, model.hierarchy)
    for node in sorted(externals.values(), key=lambda n: n.id):
        g.add_node(node)
    for e in call_edges:
        g.add_edge(e)
    return g
