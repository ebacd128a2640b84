"""Holistic context assembly and rendering.

One call builds the contexts of every sensitive invocation of a scan, one
layer at a time: the data slices of all invocations, then all control
slices, the explicit merges, the usage, definition and declaration
contexts; only then is each context ordered, rendered and fitted to the
token budget in turn.  Each layer runs over the same graph, its memo
tables and the code that reads them while they are hot, and computes what
one invocation at a time would.

The rendered block is what the reasoning stage sees: per-file, line-numbered
statements in ascending order.  Gaps made only of blank, comment, or
brace-only lines are rendered verbatim (keeping snippets syntactically
coherent); gaps containing real code are elided with `...`.

The token budget counts whitespace-separated words.  A context over it
loses statements one at a time, farthest first: an explicit statement is
as far as its depth, a usage statement 10 more than its depth, a
definition statement 12 and a declaration 0.  Its one rendering is edited
in place: a drop rebuilds only the gap before each line it uncovers, and a
drop that uncovers no line leaves the rendering as it was.  The rendering
keeps its word count as it is edited, per segment, block and whole;
blocks and segments are joined only by newlines, so the count always
equals the words of the text, which is joined only when it is read.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain

from ..frontend.model import RepoModel, SourceFile, StatementNode
from ..record import Record
from ..udg.graph import UnifiedDependencyGraph
from .implicit import declaration_context, definition_context, usage_context
from .sinks import SensitiveInvocation
from .slicing import DEFAULT_HOP_LIMIT, ContextSlice, _ordered, control_slice, data_slice, merge_slices

DEFAULT_TOKEN_BUDGET = 16000
TRIVIA_GAP_MAX = 8  # longest all-trivia gap rendered instead of elided
_NO_GAP = range(0)


def whitespace_tokenizer(text: str) -> int:
    """The tokens of a text as the budget counts them: its words."""
    return len(text.split())


class HolisticContext(Record):
    """One invocation's context slices, and the statements `_fit` keeps of
    them under the token budget and their rendering."""

    __slots__ = (
        "invocation",
        "data",
        "control",
        "explicit",
        "usage",
        "definition",
        "declaration",
        "all",
        "rendered",
        "rendered_lines",
        "dropped",
    )

    def __init__(
        self,
        invocation: SensitiveInvocation,
        data: ContextSlice,
        control: ContextSlice,
        explicit: ContextSlice,
        usage: ContextSlice,
        definition: ContextSlice,
        declaration: ContextSlice,
    ) -> None:
        self.invocation = invocation
        self.data = data  # both directions from the sink
        self.control = control  # hop-limited, from the sink
        self.explicit = explicit  # data and control merged
        self.usage = usage
        self.definition = definition
        self.declaration = declaration
        self.all: list[str] = []  # kept statements, in sort-key order
        self.rendered = ""
        self.rendered_lines: dict[str, list[int]] = {}  # per file, the lines shown
        self.dropped = 0  # statements the token budget dropped


class _Block:
    """One file's part of a rendered context, edited in place as statements
    are dropped.

    `count` holds how many kept statements cover each line, `lines` the
    covered lines in order.  Segment i of the text is the numbered line
    `lines[i]` plus the gap up to the next covered line: the gap's lines
    verbatim when they are at most `TRIVIA_GAP_MAX` trivia lines (they are
    `gaps[i]`), else `...`.  `segment_words[i]` counts the words of segment
    i, and `words` those of the whole text, header included.
    """

    def __init__(self, path: str, source: SourceFile, statements: list[StatementNode]):
        self.header = f"// file: {path}"
        self.source = source
        self.count = Counter(chain.from_iterable(stmt.span_lines() for stmt in statements))
        self.lines = sorted(self.count)
        # Each segment starts as its numbered line alone; one followed by a
        # gap then takes the gap's lines or `...`.
        words = source.words
        self.gaps: list[range] = [_NO_GAP] * len(self.lines)
        self.segment_words: list[int] = [words[a - 1] for a in self.lines]
        for i, (a, b) in enumerate(zip(self.lines, self.lines[1:])):
            if b > a + 1:
                self.gaps[i], self.segment_words[i] = self._segment(a, b)
        self.words = len(self.header.split()) + sum(self.segment_words)

    def _segment(self, a: int, b: int) -> tuple[range, int]:
        """The verbatim gap lines of covered line `a`'s segment and the
        segment's words, when `b` is the next covered line (0 for none)."""
        words = self.source.words
        if b <= a + 1:
            return _NO_GAP, words[a - 1]
        if b - a - 1 <= TRIVIA_GAP_MAX and all(self.source.trivia[a : b - 1]):
            return range(a + 1, b), sum(words[a - 1 : b - 1])
        return _NO_GAP, words[a - 1] + 1

    @property
    def text(self) -> str:
        numbered = self.source.numbered
        out = [self.header]
        for a, b, gap in zip(self.lines, [*self.lines[1:], 0], self.gaps):
            out.append(numbered[a - 1])
            if gap:
                out += numbered[a : b - 1]
            elif b > a + 1:
                out.append("...")
        return "\n".join(out)

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
        lines, segment_words = self.lines, self.segment_words
        for n in gone:
            i = bisect_left(lines, n)
            self.words -= segment_words[i]
            del lines[i], self.gaps[i], segment_words[i]
        for i in {bisect_left(lines, n) for n in gone} - {0}:
            after = lines[i] if i < len(lines) else 0
            self.words -= segment_words[i - 1]
            self.gaps[i - 1], segment_words[i - 1] = self._segment(lines[i - 1], after)
            self.words += segment_words[i - 1]
        return True

    def included(self) -> list[int]:
        return [n for a, gap in zip(self.lines, self.gaps) for n in (a, *gap)]


class _Rendering:
    """The rendered text of a list of kept statements: one block per file,
    in path order.  `words` counts the words of the text."""

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
        self.words = sum(block.words for block in self.blocks.values())

    @property
    def text(self) -> str:
        return "\n\n".join([block.text for block in self.blocks.values()])

    def drop(self, sid: str) -> bool:
        """Drop one kept statement; True when the text changed."""
        stmt = self.model.statements.get(sid)
        block = self.blocks.get(stmt.file) if stmt is not None and not stmt.synthetic else None
        if block is None:
            return False
        before = block.words
        if not block.uncover(stmt.span_lines()):
            return False
        if block.lines:
            self.words += block.words - before
        else:
            # An emptied block takes its header with it.
            del self.blocks[stmt.file]
            self.words -= before
        return True

    def included(self) -> dict[str, list[int]]:
        return {path: block.included() for path, block in self.blocks.items()}


def render_context(statement_ids: list[str], model: RepoModel) -> _Rendering:
    """The rendering of `statement_ids`: its `.text`, the text's `.words`
    and, per file, the lines it shows (`.included()`)."""
    return _Rendering(statement_ids, model)


def holistic_context(
    g: UnifiedDependencyGraph,
    model: RepoModel,
    invocations: list[SensitiveInvocation],
    hop_limit: int = DEFAULT_HOP_LIMIT,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> list[HolisticContext]:
    """The context of each invocation, in input order: explicit slices plus
    one round of usage, definition, and declaration resolution, ordered,
    rendered, and capped to the token budget.

    Each layer runs over every invocation before the next one starts; the
    last step orders, renders and fits one context at a time."""
    sinks = [g.nodes[inv.statement] for inv in invocations]
    data = [data_slice(g, sink, "both") for sink in sinks]
    control = [control_slice(g, sink, hop_limit) for sink in sinks]
    explicit = [merge_slices(g, [d, c]) for d, c in zip(data, control)]
    usage = [usage_context(g, model, e) for e in explicit]
    # Neither the definition nor the declaration context depends on the
    # order of its input; the definition context excludes its input.
    bases = [list(dict.fromkeys(e.statements + u.statements)) for e, u in zip(explicit, usage)]
    definition = [definition_context(g, model, b) for b in bases]
    declaration = [declaration_context(b + d.statements, model) for b, d in zip(bases, definition)]
    return [
        _fit(g, model, HolisticContext(*layers), token_budget)
        for layers in zip(invocations, data, control, explicit, usage, definition, declaration)
    ]


def _fit(g: UnifiedDependencyGraph, model: RepoModel, ctx: HolisticContext, token_budget: int) -> HolisticContext:
    """Fill in `ctx`'s kept statements and rendering from its slices,
    dropping statements farthest first while the rendering is over the
    token budget."""
    inv = ctx.invocation
    explicit, usage, definition, declaration = ctx.explicit, ctx.usage, ctx.definition, ctx.declaration
    all_ids = _ordered(
        g,
        {*explicit.statements, *usage.statements, *definition.statements, *declaration.statements},
        model.statements,
    )

    distances = dict(explicit.depths)
    for sid, d in usage.depths.items():
        distances[sid] = min(distances.get(sid, 99), 10 + d)
    for sid in definition.statements:
        distances[sid] = min(distances.get(sid, 99), 12)
    distances.update(dict.fromkeys(declaration.statements, 0))
    sink_file = g.nodes[inv.statement].file
    protected = {inv.statement}
    protected.update(
        sid for sid in declaration.statements if model.statements[sid].file == sink_file
    )
    protected.update(sid for sid in all_ids if distances[sid] <= 1)

    dropped = 0
    kept = list(all_ids)
    rendering = render_context(kept, model)
    if rendering.words > token_budget:
        # Farthest first, ties broken by the later position in `all_ids` (a
        # stable sort of its reverse): the order never changes while
        # statements are dropped, so it is computed once.
        drop_order = sorted(
            (sid for sid in reversed(all_ids) if sid not in protected),
            key=distances.__getitem__,
            reverse=True,
        )
        # A drop that uncovers no line leaves the word count as it was.
        for victim in drop_order:
            dropped += 1
            if rendering.drop(victim) and rendering.words <= token_budget:
                break
        gone = set(drop_order[:dropped])
        kept = [sid for sid in kept if sid not in gone]

    ctx.all = kept
    ctx.rendered = rendering.text
    ctx.rendered_lines = rendering.included()
    ctx.dropped = dropped
    return ctx
