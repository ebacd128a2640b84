"""Intra-procedural control-flow construction over structured statements.

Unlabeled jumps, loops, switches with fallthrough, and try/finally normal
flow are wired directly.  Labeled break/continue deliberately receive no
outgoing edges here; the enhancement stage reconstructs them.  Where such an
edge lands is what this builder's own wiring would have used:
`resolve_label_targets` runs the same builder and reads each labeled jump's
target from the label it names.
"""

from __future__ import annotations

from ..errors import DiagnosticSink
from ..frontend import syntax as syn
from ..frontend.model import FunctionDecl, JumpTarget, RepoModel
from .graph import CONTROL_FLOW, UdgEdge


def build_cfg(func: FunctionDecl, model: RepoModel) -> list[UdgEdge]:
    builder = _CfgBuilder(func)
    head = builder.wire_list(model.bodies.get(func.id, []), func.exit, None, None)
    builder.edge(func.entry, head)
    return [UdgEdge(src, dst, CONTROL_FLOW) for src, dst in dict.fromkeys(builder.edges)]


def resolve_label_targets(model: RepoModel, diagnostics: DiagnosticSink) -> list[JumpTarget]:
    """Resolve every labeled break/continue to its reconstruction successor.

    A labeled break lands where the labeled statement's own successor is; a
    labeled continue lands on the labeled loop's next-iteration point (the
    update of for/for-each, the condition of while/do-while).  Targets and
    the errors of jumps that resolve to nothing come in `func.body` order.
    """
    targets: list[JumpTarget] = []
    for fid in sorted(model.functions):
        func = model.functions[fid]
        body = model.bodies.get(fid)
        if not body:
            continue
        builder = _CfgBuilder(func)
        builder.wire_list(body, func.exit, None, None)
        if not builder.jumps:
            continue
        for sid in func.body:
            found = builder.jumps.get(sid)
            if isinstance(found, JumpTarget):
                targets.append(found)
            elif found is not None:
                node = model.stmt(sid)
                diagnostics.add("error", "frontend", found, node.file, node.start_line)
    return targets


def _next_iteration(stmt, succ: str) -> str | None:
    """Where a continue of loop `stmt` lands, or None when it is no loop."""
    if isinstance(stmt, (syn.While, syn.DoWhile)):
        return stmt.cond
    if isinstance(stmt, syn.For):
        return stmt.update or stmt.cond or syn.head_of_list(stmt.body) or succ
    if isinstance(stmt, syn.ForEach):
        return stmt.update
    return None


class _CfgBuilder:
    def __init__(self, func: FunctionDecl):
        self.func = func
        self.edges: list[tuple[str, str]] = []
        # label -> (break target, continue target or None) of the enclosing
        # statements it labels
        self.labels: dict[str, tuple[str, str | None]] = {}
        # labeled jump id -> its target, or the error saying why it has none
        self.jumps: dict[str, JumpTarget | str] = {}

    def edge(self, src: str, dst: str) -> None:
        self.edges.append((src, dst))

    def jump_to_label(self, stmt: syn.Jump) -> None:
        bound = self.labels.get(stmt.label)
        if bound is None:
            self.jumps[stmt.node] = f"label {stmt.label} has no enclosing construct"
        elif stmt.kind == "break":
            self.jumps[stmt.node] = JumpTarget(jump=stmt.node, resolved_successor=bound[0])
        elif bound[1] is None:
            self.jumps[stmt.node] = f"continue {stmt.label} does not target an iteration construct"
        else:
            self.jumps[stmt.node] = JumpTarget(jump=stmt.node, resolved_successor=bound[1])

    def wire_list(self, stmts: list, succ: str, brk: str | None, cnt: str | None) -> str:
        """Wire a statement list; returns its entry node (succ when empty)."""
        head = succ
        for stmt in reversed(stmts):
            head = self.wire(stmt, head, brk, cnt)
        return head

    def wire(self, stmt, succ: str, brk: str | None, cnt: str | None) -> str:
        if isinstance(stmt, syn.Simple):
            self.edge(stmt.node, succ)
            return stmt.node
        if isinstance(stmt, syn.Return):
            self.edge(stmt.node, self.func.exit)
            return stmt.node
        if isinstance(stmt, syn.Jump):
            if stmt.label:
                self.jump_to_label(stmt)  # left broken; reconstructed during enhancement
            elif stmt.kind == "break" and brk is not None:
                self.edge(stmt.node, brk)
            elif stmt.kind == "continue" and cnt is not None:
                self.edge(stmt.node, cnt)
            elif stmt.kind == "throw":
                self.edge(stmt.node, self.func.exit)
            return stmt.node
        if isinstance(stmt, syn.Block):
            return self.wire_list(stmt.stmts, succ, brk, cnt)
        if isinstance(stmt, syn.If):
            h_then = self.wire_list(stmt.then, succ, brk, cnt)
            h_else = self.wire_list(stmt.orelse, succ, brk, cnt)
            self.edge(stmt.cond, h_then)
            self.edge(stmt.cond, h_else)
            return stmt.cond
        if isinstance(stmt, syn.While):
            h_body = self.wire_list(stmt.body, stmt.cond, succ, stmt.cond)
            self.edge(stmt.cond, h_body)
            self.edge(stmt.cond, succ)
            return stmt.cond
        if isinstance(stmt, syn.DoWhile):
            h_body = self.wire_list(stmt.body, stmt.cond, succ, stmt.cond)
            self.edge(stmt.cond, h_body)
            self.edge(stmt.cond, succ)
            return h_body
        if isinstance(stmt, syn.For):
            next_iter = _next_iteration(stmt, succ)
            h_body = self.wire_list(stmt.body, next_iter, succ, next_iter)
            if stmt.update:
                self.edge(stmt.update, stmt.cond or h_body)
            if stmt.cond:
                self.edge(stmt.cond, h_body)
                self.edge(stmt.cond, succ)
            loop_entry = stmt.cond or h_body
            if stmt.init:
                self.edge(stmt.init, loop_entry)
                return stmt.init
            return loop_entry
        if isinstance(stmt, syn.ForEach):
            h_body = self.wire_list(stmt.body, stmt.header, succ, stmt.update)
            self.edge(stmt.header, stmt.update)
            self.edge(stmt.update, h_body)
            self.edge(stmt.header, succ)
            return stmt.header
        if isinstance(stmt, syn.Switch):
            has_default = any(is_default for is_default, _ in stmt.cases)
            next_head = succ
            heads: list[str] = []
            for _, case_stmts in reversed(stmt.cases):
                next_head = self.wire_list(case_stmts, next_head, succ, cnt)
                heads.append(next_head)
            for h in reversed(heads):
                self.edge(stmt.selector, h)
            if not has_default:
                self.edge(stmt.selector, succ)
            return stmt.selector
        if isinstance(stmt, syn.Labeled):
            outer = self.labels
            self.labels = {**outer, stmt.label: (succ, _next_iteration(stmt.inner, succ))}
            h_inner = self.wire(stmt.inner, succ, brk, cnt) if stmt.inner else succ
            self.labels = outer
            self.edge(stmt.label_node, h_inner)
            return stmt.label_node
        if isinstance(stmt, syn.Try):
            h_fin = self.wire_list(stmt.finally_, succ, brk, cnt) if stmt.finally_ else succ
            h_body = self.wire_list(stmt.body, h_fin, brk, cnt)
            for catch_stmts in stmt.catches:
                # Parsed but not reachable: exceptional edges are not modeled.
                self.wire_list(catch_stmts, h_fin, brk, cnt)
            return h_body
        raise TypeError(f"unknown statement form: {type(stmt).__name__}")
