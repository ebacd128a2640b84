"""Holistic context assembly and rendering.

The rendered block is what the reasoning stage sees: per-file, line-numbered
statements in ascending order.  Gaps made only of blank, comment, or
brace-only lines are rendered verbatim (keeping snippets syntactically
coherent); gaps containing real code are elided with `...`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..frontend.model import RepoModel
from ..udg.graph import UnifiedDependencyGraph
from .implicit import declaration_context, definition_context, usage_context
from .sinks import SensitiveInvocation
from .slicing import DEFAULT_HOP_LIMIT, ContextSlice, control_slice, data_slice, merge_slices

DEFAULT_TOKEN_BUDGET = 16000
TRIVIA_GAP_MAX = 8  # longest all-trivia gap rendered instead of elided

Tokenizer = Callable[[str], int]


def whitespace_tokenizer(text: str) -> int:
    return len(text.split())


@dataclass
class HolisticContext:
    invocation: SensitiveInvocation
    data: ContextSlice
    control: ContextSlice
    explicit: ContextSlice
    usage: ContextSlice
    definition: ContextSlice
    declaration: ContextSlice
    implicit: ContextSlice
    all: list[str] = field(default_factory=list)
    rendered: str = ""
    rendered_lines: dict[str, list[int]] = field(default_factory=dict)
    boundary_notes: list[str] = field(default_factory=list)
    dropped: int = 0

    def all_line_set(self, model: RepoModel) -> set[int]:
        lines: set[int] = set()
        for sid in self.all:
            stmt = model.statements.get(sid)
            if stmt is not None and not stmt.synthetic:
                lines.update(stmt.span_lines())
        return lines


def render_context(
    statement_ids: list[str], model: RepoModel
) -> tuple[str, dict[str, list[int]]]:
    by_file: dict[str, set[int]] = {}
    for sid in statement_ids:
        stmt = model.statements.get(sid)
        if stmt is None or stmt.synthetic:
            continue
        by_file.setdefault(stmt.file, set()).update(stmt.span_lines())
    blocks: list[str] = []
    included: dict[str, list[int]] = {}
    for path in sorted(by_file):
        source = model.file_by_path(path)
        if source is None:
            continue
        trivia = source.trivia
        lines = sorted(by_file[path])
        keep = set(lines)
        for a, b in zip(lines, lines[1:]):
            gap = range(a + 1, b)
            if 0 < len(gap) <= TRIVIA_GAP_MAX and all(
                n - 1 < len(trivia) and trivia[n - 1] for n in gap
            ):
                keep.update(gap)
        final = sorted(keep)
        included[path] = final
        out = [f"// file: {path}"]
        prev = None
        for n in final:
            if prev is not None and n > prev + 1:
                out.append("...")
            text = source.lines[n - 1] if n - 1 < len(source.lines) else ""
            out.append(f"{n}| {text}")
            prev = n
        blocks.append("\n".join(out))
    return "\n\n".join(blocks), included


def holistic_context(
    g: UnifiedDependencyGraph,
    model: RepoModel,
    inv: SensitiveInvocation,
    hop_limit: int = DEFAULT_HOP_LIMIT,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    tokenizer: Tokenizer | None = None,
) -> HolisticContext:
    """Explicit slices plus one round of usage, definition, and declaration
    resolution, ordered, rendered, and capped to the token budget."""
    tokenizer = tokenizer or whitespace_tokenizer
    sink = g.nodes[inv.statement]
    d_slice = data_slice(g, sink, "both")
    c_slice = control_slice(g, sink, hop_limit)
    explicit = merge_slices("explicit", g, [d_slice, c_slice])
    usage = usage_context(g, model, explicit)
    base = merge_slices("base", g, [explicit, usage])
    definition = definition_context(g, model, base)
    decl_input = list(
        dict.fromkeys(explicit.statements + usage.statements + definition.statements)
    )
    declaration = declaration_context(decl_input, model)
    implicit = merge_slices("implicit", g, [usage, definition, declaration])
    union = merge_slices("holistic", g, [explicit, implicit])
    all_ids = union.statements

    distances: dict[str, int] = {}
    for sid in explicit.statements:
        distances[sid] = explicit.depths.get(sid, 1)
    for sid in usage.statements:
        distances[sid] = min(distances.get(sid, 99), 10 + usage.depths.get(sid, 0))
    for sid in definition.statements:
        distances[sid] = min(distances.get(sid, 99), 12)
    for sid in declaration.statements:
        distances[sid] = min(distances.get(sid, 99), 0)
    protected = {inv.statement}
    protected.update(
        sid for sid in declaration.statements if model.statements[sid].file == sink.file
    )
    protected.update(sid for sid in all_ids if distances.get(sid, 99) <= 1)

    dropped = 0
    kept = list(all_ids)
    rendered, rendered_lines = render_context(kept, model)
    if tokenizer(rendered) > token_budget:
        # Farthest first, ties broken by the later source position: the order
        # never changes while statements are dropped, so it is computed once.
        drop_order = sorted(
            (sid for sid in all_ids if sid not in protected),
            key=lambda sid: (distances.get(sid, 99), g.nodes[sid].sort_key()),
            reverse=True,
        )
        for victim in drop_order:
            kept.remove(victim)
            dropped += 1
            rendered, rendered_lines = render_context(kept, model)
            if tokenizer(rendered) <= token_budget:
                break

    notes = list(
        dict.fromkeys(
            explicit.boundary_notes
            + usage.boundary_notes
            + definition.boundary_notes
            + declaration.boundary_notes
        )
    )
    if dropped:
        notes.append(f"token budget exceeded: dropped {dropped} statements")
    return HolisticContext(
        invocation=inv,
        data=d_slice,
        control=c_slice,
        explicit=explicit,
        usage=usage,
        definition=definition,
        declaration=declaration,
        implicit=implicit,
        all=kept,
        rendered=rendered,
        rendered_lines=rendered_lines,
        boundary_notes=notes,
        dropped=dropped,
    )
