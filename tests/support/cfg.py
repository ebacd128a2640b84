"""Reachability over a function's control-flow edges."""

from udgscan.frontend.model import FunctionDecl, RepoModel
from udgscan.udg.graph import UdgEdge


def unreachable_nodes(func: FunctionDecl, model: RepoModel, cfg_edges: list[UdgEdge]) -> list[str]:
    """Body nodes not reachable from entry (unreachable-code diagnostics)."""
    succ: dict[str, list[str]] = {}
    for e in cfg_edges:
        succ.setdefault(e.src, []).append(e.dst)
    seen = {func.entry}
    work = [func.entry]
    while work:
        cur = work.pop()
        for nxt in succ.get(cur, []):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return [sid for sid in func.body if sid not in seen]
