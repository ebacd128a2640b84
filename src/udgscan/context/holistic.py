"""Holistic context assembly and rendering.

The rendered block is what the reasoning stage sees: per-file, line-numbered
statements in ascending order.  Gaps made only of blank, comment, or
brace-only lines are rendered verbatim (keeping snippets syntactically
coherent); gaps containing real code are elided with `...`.

A context over the token budget loses statements one at a time.  Its one
rendering is edited in place: a drop rebuilds only the gap before each line
it uncovers, and a drop that uncovers no line leaves the text as it was.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from ..frontend.model import RepoModel, SourceFile, StatementNode
from ..udg.graph import UnifiedDependencyGraph
from .implicit import declaration_context, definition_context, usage_context
from .sinks import SensitiveInvocation
from .slicing import DEFAULT_HOP_LIMIT, ContextSlice, control_slice, data_slice, merge_slices

DEFAULT_TOKEN_BUDGET = 16000
TRIVIA_GAP_MAX = 8  # longest all-trivia gap rendered instead of elided
_NO_GAP = range(0)

# Counts the tokens of a whole rendered context.  It may be any deterministic
# function of the text, not even monotone in it: the budget loop only skips
# counting a text equal to the one it counted last.
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


class _Block:
    """One file's part of a rendered context, edited in place as statements
    are dropped.

    `count` holds how many kept statements cover each line, `lines` the
    covered lines in order.  `segments[i]` is the numbered line `lines[i]`
    plus the gap up to the next covered line: the gap's lines verbatim when
    they are at most `TRIVIA_GAP_MAX` trivia lines (they are `gaps[i]`),
    else `...`.
    """

    def __init__(self, path: str, source: SourceFile, statements: list[StatementNode]):
        self.header = f"// file: {path}"
        self.source = source
        self.count = Counter(chain.from_iterable(stmt.span_lines() for stmt in statements))
        self.lines = sorted(self.count)
        self.segments: list[str] = []
        self.gaps: list[range] = []
        for a, b in zip(self.lines, [*self.lines[1:], 0]):
            segment, gap = self._segment(a, b)
            self.segments.append(segment)
            self.gaps.append(gap)
        self._join()

    def _segment(self, a: int, b: int) -> tuple[str, range]:
        """The segment of covered line `a` and its verbatim gap lines, when
        `b` is the next covered line (0 for none)."""
        numbered = self.source.numbered
        if b <= a + 1:
            return numbered[a - 1], _NO_GAP
        if b - a - 1 <= TRIVIA_GAP_MAX and all(self.source.trivia[a : b - 1]):
            return "\n".join(numbered[a - 1 : b - 1]), range(a + 1, b)
        return numbered[a - 1] + "\n...", _NO_GAP

    def _join(self) -> None:
        self.text = "\n".join([self.header, *self.segments])

    def uncover(self, span: range) -> bool:
        """Drop one kept statement covering `span`; True when the text changed."""
        count = self.count
        gone = []
        for n in span:
            if count[n] > 1:
                count[n] -= 1
            else:
                del count[n]
                gone.append(n)
        if not gone:
            return False
        lines = self.lines
        for n in gone:
            i = bisect_left(lines, n)
            del lines[i], self.segments[i], self.gaps[i]
        for i in {bisect_left(lines, n) for n in gone} - {0}:
            after = lines[i] if i < len(lines) else 0
            self.segments[i - 1], self.gaps[i - 1] = self._segment(lines[i - 1], after)
        self._join()
        return True

    def included(self) -> list[int]:
        return [n for a, gap in zip(self.lines, self.gaps) for n in (a, *gap)]


class _Rendering:
    """The rendered text of a list of kept statements: one block per file,
    in path order."""

    def __init__(self, statement_ids: list[str], model: RepoModel):
        self.model = model
        by_file: dict[str, list[StatementNode]] = {}
        for sid in statement_ids:
            stmt = model.statements.get(sid)
            if stmt is not None and not stmt.synthetic:
                by_file.setdefault(stmt.file, []).append(stmt)
        self.blocks: dict[str, _Block] = {}
        for path in sorted(by_file):
            source = model.file_by_path(path)
            if source is not None:
                self.blocks[path] = _Block(path, source, by_file[path])
        self._join()

    def _join(self) -> None:
        self.text = "\n\n".join([block.text for block in self.blocks.values()])

    def drop(self, sid: str) -> bool:
        """Drop one kept statement; True when the text changed."""
        stmt = self.model.statements.get(sid)
        block = self.blocks.get(stmt.file) if stmt is not None and not stmt.synthetic else None
        if block is None or not block.uncover(stmt.span_lines()):
            return False
        if not block.lines:
            del self.blocks[stmt.file]
        self._join()
        return True

    def included(self) -> dict[str, list[int]]:
        return {path: block.included() for path, block in self.blocks.items()}


def render_context(statement_ids: list[str], model: RepoModel) -> _Rendering:
    """The rendering of `statement_ids`: its `.text` and, per file, the lines
    it shows (`.included()`)."""
    return _Rendering(statement_ids, model)


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
    rendering = render_context(kept, model)
    if tokenizer(rendering.text) > token_budget:
        # Farthest first, ties broken by the later source position: the order
        # never changes while statements are dropped, so it is computed once.
        rank = g.rank()
        drop_order = sorted(
            (sid for sid in all_ids if sid not in protected),
            key=lambda sid: (distances.get(sid, 99), rank[sid]),
            reverse=True,
        )
        # A drop that uncovers no line leaves the text, and so its token
        # count, as it was: the tokenizer runs only on a changed text.
        for victim in drop_order:
            dropped += 1
            if rendering.drop(victim) and tokenizer(rendering.text) <= token_budget:
                break
        gone = set(drop_order[:dropped])
        kept = [sid for sid in kept if sid not in gone]

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
        rendered=rendering.text,
        rendered_lines=rendering.included(),
        boundary_notes=notes,
        dropped=dropped,
    )
