"""Unified dependency graph: statement nodes plus typed directed edges."""

from __future__ import annotations

from collections.abc import Iterable, ValuesView
from typing import NamedTuple

from ..frontend.model import StatementNode

CONTROL_FLOW = "control_flow"
DATA_DEPENDENCY = "data_dependency"
CALL = "call"
EDGE_TYPES = (CONTROL_FLOW, DATA_DEPENDENCY, CALL)


class UdgEdge(NamedTuple):
    """An immutable, hashable edge, and its own key: a named tuple is built,
    hashed and compared in C, as the tuple of its fields."""

    src: str
    dst: str
    tau: str
    variable: str | None = None


class UnifiedDependencyGraph:
    """Statement nodes plus edges, each its own key, indexed per
    node.  `edges`, `edges_of`, `out_edges` and `in_edges` list edges in
    insertion order.

    Facts derived from the graph (node ranks, slices and the like) are
    memoized in tables that `derived` hands out; every `add_node`, and every
    `add_edge` or `remove_edges` that changes the edges, empties them all.
    """

    # `__weakref__` lets a test check that a scan's graph, with its memo
    # tables, is freed once its result is.
    __slots__ = ("nodes", "_edges", "_out", "_in", "_derived", "__weakref__")

    def __init__(self, nodes: dict[str, StatementNode] | None = None) -> None:
        self.nodes = {} if nodes is None else nodes
        self._edges: dict[UdgEdge, UdgEdge] = {}
        self._out: dict[str, list[UdgEdge]] = {}
        self._in: dict[str, list[UdgEdge]] = {}
        self._derived: dict[str, tuple[object, dict]] = {}

    @property
    def edges(self) -> ValuesView[UdgEdge]:
        return self._edges.values()

    def add_node(self, node: StatementNode) -> None:
        self.nodes[node.id] = node
        if self._derived:
            self._derived.clear()

    def add_edge(self, edge: UdgEdge) -> bool:
        """Store the edge; False when an equal edge is already present."""
        if edge in self._edges:
            return False
        self._edges[edge] = edge
        self._out.setdefault(edge.src, []).append(edge)
        self._in.setdefault(edge.dst, []).append(edge)
        if self._derived:
            self._derived.clear()
        return True

    def remove_edges(self, edges: Iterable[tuple]) -> list[UdgEdge]:
        """Remove the edges equal to `edges` (edges or plain 4-tuples); the
        stored ones that were present, in the order of `edges`."""
        removed = []
        for key in edges:
            edge = self._edges.pop(key, None)
            if edge is not None:
                self._out[edge.src].remove(edge)
                self._in[edge.dst].remove(edge)
                removed.append(edge)
        if removed:
            self._derived.clear()
        return removed

    def derived(self, name: str, owner: object = None) -> dict:
        """The memo table `name` of facts derived from this graph and, when
        given, from `owner`: asked for with another owner, the table starts
        empty again.  Callers treat what they read from a table as read-only."""
        entry = self._derived.get(name)
        if entry is None or entry[0] is not owner:
            entry = self._derived[name] = (owner, {})
        return entry[1]

    def rank(self) -> dict[str, int]:
        """Each node id's position in `StatementNode.sort_key` order."""
        rank = self.derived("rank")
        if not rank:
            ordered = sorted(self.nodes.values(), key=StatementNode.sort_key)
            rank.update((node.id, i) for i, node in enumerate(ordered))
        return rank

    def out_edges(self, node: str, tau: str | None = None) -> list[UdgEdge]:
        edges = self._out.get(node, ())
        return list(edges) if tau is None else [e for e in edges if e.tau == tau]

    def in_edges(self, node: str, tau: str | None = None) -> list[UdgEdge]:
        edges = self._in.get(node, ())
        return list(edges) if tau is None else [e for e in edges if e.tau == tau]

    def edges_of(self, tau: str) -> list[UdgEdge]:
        return [e for e in self.edges if e.tau == tau]

    def copy(self) -> "UnifiedDependencyGraph":
        """The same nodes and edges, in the same order, with empty memo tables."""
        g = UnifiedDependencyGraph(dict(self.nodes))
        g._edges = dict(self._edges)
        g._out = {node: list(edges) for node, edges in self._out.items()}
        g._in = {node: list(edges) for node, edges in self._in.items()}
        return g

    def has_edge(self, src: str, dst: str, tau: str) -> bool:
        return any(e.dst == dst and e.tau == tau for e in self._out.get(src, ()))

    def sorted_edges(self) -> list[UdgEdge]:
        return sorted(self.edges, key=lambda e: (e.src, e.dst, e.tau, e.variable or ""))

    def dump(self) -> str:
        """Line-oriented text dump with stable ordering."""
        lines = []
        ordered = sorted(
            self.nodes.values(), key=lambda n: (n.file, n.start_line, n.id)
        )
        for n in ordered:
            lines.append(f"NODE {n.id} {n.file}:{n.start_line}-{n.end_line} {n.kind}")
        for e in self.sorted_edges():
            var = f" {e.variable}" if e.variable else ""
            lines.append(f"EDGE {e.src} {e.dst} {e.tau}{var}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graph-description export for visualization tooling."""
        style = {CONTROL_FLOW: "solid", DATA_DEPENDENCY: "dashed", CALL: "bold"}
        out = ["digraph udg {"]
        for n in sorted(self.nodes.values(), key=lambda n: (n.file, n.start_line, n.id)):
            label = f"{n.file}:{n.start_line} {n.kind}".replace('"', "'")
            out.append(f'  "{n.id}" [label="{label}"];')
        for e in self.sorted_edges():
            lab = e.variable or ""
            out.append(f'  "{e.src}" -> "{e.dst}" [style={style[e.tau]}, label="{lab}"];')
        out.append("}")
        return "\n".join(out) + "\n"


def external_id(name: str, arity: int) -> str:
    return f"external:{name}/{arity}"


def is_external(node_id: str) -> bool:
    return node_id.startswith("external:")


def make_external_node(name: str, arity: int) -> StatementNode:
    """The synthetic callee node `external_id(name, arity)` of the calls not resolved in-repo."""
    return StatementNode(
        id=external_id(name, arity),
        file="<external>",
        start_line=0,
        end_line=0,
        kind="entry",
        text=f"{name}/{arity}",
        owner="external",
        synthetic=True,
    )

