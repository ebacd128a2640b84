"""Holistic context assembly and rendering.

One call builds the contexts of every sensitive invocation of a scan, one
layer at a time: the data slices of all invocations, then all control
slices, the explicit merges, the usage, definition and declaration
contexts; only then is each context ordered, rendered and fitted to the
token budget in turn.  Each layer runs over the same graph, its memo
tables and the code that reads them while they are hot, and computes what
one invocation at a time would.

The rendered block is what the reasoning stage sees: per-file, line-numbered
statements in ascending order.  Gaps of at most `TRIVIA_GAP_MAX` (in
`frontend.model`) blank, comment, or brace-only lines are rendered verbatim
(keeping snippets syntactically coherent); other gaps are elided with
`...`.  A file's line tables, built the first time it is rendered, make
each segment a few index operations: its numbered lines, the running word
count over them (`SourceFile.word_sums`) and, per line, how many trivia
lines follow it (`SourceFile.trivia_after`).

The token budget counts whitespace-separated words.  A context over it
loses statements one at a time, farthest first, ties broken by the later
position: an explicit statement is as far as its depth, a usage statement
10 more than its data depth (the lesser of the two when it is both), a
definition statement 12 and a declaration 0, with no cap on any depth.
Statements at most 1 away, the sink and the declarations among them, are
never dropped.  The one rendering is edited in place: a drop rebuilds only
the gap before each line it uncovers, and a drop that uncovers no line
leaves the rendering as it was.  The rendering keeps its word count as it
is edited, per segment, block and whole; blocks and segments are joined
only by newlines, so the count always equals the words of the text.  The
text and the lines it shows are built once, when the context is done, in
one pass over each block's lines (`_Rendering.shown`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from ..frontend.model import RepoModel, SourceFile
from ..udg.graph import UnifiedDependencyGraph
from .implicit import declaration_context, definition_context, usage_context
from .sinks import SensitiveInvocation
from .slicing import DEFAULT_HOP_LIMIT, ContextSlice, _ordered, control_slice, data_slice, merge_slices

DEFAULT_TOKEN_BUDGET = 16000


def whitespace_tokenizer(text: str) -> int:
    """The tokens of a text as the budget counts them: its words."""
    return len(text.split())


class HolisticContext(NamedTuple):
    """One invocation's context slices, and the statements `_fit` keeps of
    them under the token budget and their rendering."""

    invocation: SensitiveInvocation
    data: ContextSlice  # both directions from the sink
    control: ContextSlice  # hop-limited, from the sink
    explicit: ContextSlice  # data and control merged
    usage: ContextSlice
    definition: ContextSlice
    declaration: ContextSlice
    all: list[str]  # kept statements, in sort-key order
    rendered: str
    rendered_lines: dict[str, list[int]]  # per file, the lines shown
    dropped: int  # statements the token budget dropped


class _Block:
    """One file's part of a rendered context, edited in place as statements
    are dropped.

    `count` holds how many kept statements cover each line, `lines` the
    covered lines in order.  Segment i of the text is the numbered line
    `lines[i]` plus the gap up to the next covered line: the gap's lines
    verbatim when they are at most `TRIVIA_GAP_MAX` trivia lines, else
    `...`.  `segment_words[i]` counts the words of segment i, and `words`
    those of the whole text, header included.
    """

    def __init__(self, path: str, source: SourceFile, count: dict[int, int]):
        self.header = f"// file: {path}"
        self.source = source
        self.count = count
        self.lines = lines = sorted(count)
        sums, after = source.word_sums, source.trivia_after
        # `_segment` of each covered line but the last, inline.
        self.segment_words = [
            sums[b - 1] - sums[a - 1] if b - a - 1 <= after[a] else sums[a] - sums[a - 1] + 1
            for a, b in zip(lines, lines[1:])
        ]
        self.segment_words.append(sums[lines[-1]] - sums[lines[-1] - 1])
        self.words = len(self.header.split()) + sum(self.segment_words)

    def _segment(self, a: int, b: int) -> int:
        """The words of covered line `a`'s segment when `b` is the next
        covered line (0 for none)."""
        sums = self.source.word_sums
        if b and b - a - 1 <= self.source.trivia_after[a]:
            return sums[b - 1] - sums[a - 1]
        return sums[a] - sums[a - 1] + (b > 0)

    def shown(self) -> tuple[str, list[int]]:
        """The block's text and the lines it shows.  The shown lines fall
        in runs of consecutive lines, which a gap not shown verbatim ends:
        the text joins the runs with `...`."""
        lines, after, numbered = self.lines, self.source.trivia_after, self.source.numbered
        runs: list[str] = []
        shown: list[int] = []
        first = lines[0]
        for a, b in zip(lines, lines[1:]):
            if b - a - 1 > after[a]:
                runs.append("\n".join(numbered[first - 1 : a]))
                shown += range(first, a + 1)
                first = b
        runs.append("\n".join(numbered[first - 1 : lines[-1]]))
        shown += range(first, lines[-1] + 1)
        return f"{self.header}\n" + "\n...\n".join(runs), shown

    def uncover(self, first: int, last: int) -> bool:
        """Drop one kept statement covering lines `first` to `last`; True
        when the text changed."""
        count = self.count
        gone = []
        for n in range(first, last + 1):
            if count[n] > 1:
                count[n] -= 1
            else:
                del count[n]
                gone.append(n)
        if not gone:
            return False
        # From the last line up, so that the segment before each removed
        # line is rebuilt with the next line that stays.
        lines, segment_words = self.lines, self.segment_words
        words = self.words
        for n in reversed(gone):
            i = bisect_left(lines, n)
            words -= segment_words[i]
            del lines[i], segment_words[i]
            if i:
                words -= segment_words[i - 1]
                segment_words[i - 1] = self._segment(lines[i - 1], lines[i] if i < len(lines) else 0)
                words += segment_words[i - 1]
        self.words = words
        return True


class _Rendering:
    """The rendered text of a list of kept statements: one block per file,
    in path order.  `words` counts the words of the text."""

    def __init__(self, statement_ids: list[str], model: RepoModel):
        self.model = model
        counts: dict[str, dict[int, int]] = {}
        path = None
        for stmt in map(model.statements.get, statement_ids):
            if stmt is None or stmt.synthetic:
                continue
            if stmt.file != path:
                path = stmt.file
                count = counts.setdefault(path, {})
            n = stmt.start_line
            count[n] = count.get(n, 0) + 1
            while n < stmt.end_line:
                n += 1
                count[n] = count.get(n, 0) + 1
        self.blocks: dict[str, _Block] = {}
        for path in sorted(counts):
            source = model.file_by_path(path)
            if source is not None:
                self.blocks[path] = _Block(path, source, counts[path])
        self.words = sum(block.words for block in self.blocks.values())

    def drop(self, sid: str) -> bool:
        """Drop one kept statement; True when the text changed."""
        stmt = self.model.statements.get(sid)
        block = self.blocks.get(stmt.file) if stmt is not None and not stmt.synthetic else None
        if block is None:
            return False
        before = block.words
        if not block.uncover(stmt.start_line, stmt.end_line):
            return False
        if block.lines:
            self.words += block.words - before
        else:
            # An emptied block takes its header with it.
            del self.blocks[stmt.file]
            self.words -= before
        return True

    def shown(self) -> tuple[str, dict[str, list[int]]]:
        """The text and, per file, the lines it shows."""
        shown = {path: block.shown() for path, block in self.blocks.items()}
        return "\n\n".join([text for text, _ in shown.values()]), {path: lines for path, (_, lines) in shown.items()}


def render_context(statement_ids: list[str], model: RepoModel) -> _Rendering:
    """The rendering of `statement_ids`: its `.words` and its text and,
    per file, the lines the text shows (`.shown()`)."""
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
        _fit(g, model, layers, token_budget)
        for layers in zip(invocations, data, control, explicit, usage, definition, declaration)
    ]


def _fit(g: UnifiedDependencyGraph, model: RepoModel, layers: tuple, token_budget: int) -> HolisticContext:
    """The context of an invocation and its slices, `layers`: the
    statements kept of the slices and their rendering, dropping statements
    farthest first while the rendering is over the token budget."""
    _, _, _, explicit, usage, definition, declaration = layers
    # Each slice is in order already: sorting their concatenation merges runs.
    all_ids = _ordered(
        g,
        dict.fromkeys(explicit.statements + usage.statements + definition.statements + declaration.statements),
        model.statements,
    )
    dropped = 0
    kept = all_ids
    rendering = render_context(all_ids, model)
    if rendering.words > token_budget:
        # The definition context excludes the explicit and usage ones.
        distances = dict.fromkeys(definition.statements, 12)
        distances.update(explicit.depths)
        for sid, d in usage.depths.items():
            d += 10
            if distances.get(sid, d) >= d:
                distances[sid] = d
        distances.update(dict.fromkeys(declaration.statements, 0))
        # Farthest first, ties broken by the later position in `all_ids` (a
        # stable sort of its reverse): the order never changes while
        # statements are dropped, so it is computed once.  It ends with the
        # statements at most 1 away, the sink and the declarations among
        # them, which are never dropped.
        drop_order = sorted(reversed(all_ids), key=distances.__getitem__, reverse=True)
        # A drop that uncovers no line leaves the word count as it was.
        for victim in drop_order:
            if distances[victim] <= 1:
                break
            dropped += 1
            if rendering.drop(victim) and rendering.words <= token_budget:
                break
        gone = set(drop_order[:dropped])
        kept = [sid for sid in all_ids if sid not in gone]

    return HolisticContext(*layers, kept, *rendering.shown(), dropped)
