"""The context stage's per-scan shared work checked against the per-call
computations it replaces: the token-budget drop order, the rendering edited
in place as statements drop, the parser-set trivia map, the per-file
declaration index and the knowledge-base pre-filter."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, enhance, parse_and_build, write_repo

from udgscan.context.holistic import (
    TRIVIA_GAP_MAX,
    _Rendering,
    holistic_context,
    render_context,
    whitespace_tokenizer,
)
from udgscan.context.implicit import declaration_context
from udgscan.context.sinks import SensitiveInvocation
from udgscan.context.slicing import merge_slices
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.harness.generate import random_summary_program
from udgscan.knowledge import load_starter_kb, suffix_match

FIXTURE_NAMES = sorted(os.listdir(FIXTURES))


def enhanced(repo):
    model, g, diags = parse_and_build(repo)
    return model, enhance(model, g, MockResolutionOracle(), diags).graph


# ------------------------------------------------------------- budget loop


def text_and_lines(statement_ids, model):
    rendering = render_context(statement_ids, model)
    return rendering.text, rendering.included()


def rebuild_and_max_budget(g, model, ctx, token_budget):
    """The budget loop as it was before the drop order was computed once:
    after every drop it rebuilds the candidates and takes the farthest, and
    counts the words of the whole text."""
    inv = ctx.invocation
    sink = g.nodes[inv.statement]
    slices = [ctx.explicit, ctx.usage, ctx.definition, ctx.declaration]
    all_ids = merge_slices(g, slices).statements
    distances = {}
    for sid in ctx.explicit.statements:
        distances[sid] = ctx.explicit.depths.get(sid, 1)
    for sid in ctx.usage.statements:
        distances[sid] = min(distances.get(sid, 99), 10 + ctx.usage.depths.get(sid, 0))
    for sid in ctx.definition.statements:
        distances[sid] = min(distances.get(sid, 99), 12)
    for sid in ctx.declaration.statements:
        distances[sid] = min(distances.get(sid, 99), 0)
    protected = {inv.statement}
    protected.update(
        sid for sid in ctx.declaration.statements if model.statements[sid].file == sink.file
    )
    protected.update(sid for sid in all_ids if distances.get(sid, 99) <= 1)

    dropped = 0
    kept = list(all_ids)
    rendered, rendered_lines = text_and_lines(kept, model)
    while whitespace_tokenizer(rendered) > token_budget:
        candidates = [sid for sid in kept if sid not in protected]
        if not candidates:
            break
        victim = max(
            candidates,
            key=lambda sid: (distances.get(sid, 99), g.nodes[sid].sort_key()),
        )
        kept.remove(victim)
        dropped += 1
        rendered, rendered_lines = text_and_lines(kept, model)
    return kept, dropped, rendered, rendered_lines


def summary_repo(tmp_path, seed):
    """Two generated classes in two files, with package and import lines."""
    files = {}
    for i in range(2):
        body = random_summary_program(seed * 10 + i).replace("class Gen", f"class Gen{i}")
        files[f"p/Gen{i}.java"] = "package p;\n\nimport java.util.List;\n// generated\n" + body
    return write_repo(tmp_path, files)


@pytest.mark.parametrize("seed", range(4))
def test_sorted_drop_order_matches_rebuild_and_max(tmp_path, seed):
    model, g = enhanced(summary_repo(tmp_path, seed))
    calls = sorted(
        (s for s in model.statements.values() if s.calls and not s.synthetic),
        key=lambda s: s.sort_key(),
    )
    criteria = calls[:: max(1, len(calls) // 4)][:4]
    assert criteria
    dropped_somewhere = False
    for stmt in criteria:
        inv = SensitiveInvocation(statement=stmt.id, api="f")
        full = whitespace_tokenizer(holistic_context(g, model, [inv])[0].rendered)
        for budget in sorted({full * 3 // 4, full // 2, full // 4, 0}):
            ctx = holistic_context(g, model, [inv], token_budget=budget)[0]
            want = rebuild_and_max_budget(g, model, ctx, budget)
            got = (ctx.all, ctx.dropped, ctx.rendered, ctx.rendered_lines)
            assert got == want, f"{stmt.id} budget {budget}"
            dropped_somewhere |= ctx.dropped > 0
    assert dropped_somewhere


def reference_render(statement_ids, model):
    """Rendering from scratch as it was before the rendering was edited in
    place: covered lines, then the short all-trivia gaps between them."""
    by_file = {}
    for sid in statement_ids:
        stmt = model.statements.get(sid)
        if stmt is not None and not stmt.synthetic:
            by_file.setdefault(stmt.file, set()).update(stmt.span_lines())
    blocks, included = [], {}
    for path in sorted(by_file):
        source = model.file_by_path(path)
        if source is None:
            continue
        lines = sorted(by_file[path])
        keep = set(lines)
        for a, b in zip(lines, lines[1:]):
            gap = range(a + 1, b)
            if 0 < len(gap) <= TRIVIA_GAP_MAX and all(source.trivia[n - 1] for n in gap):
                keep.update(gap)
        included[path] = sorted(keep)
        out = [f"// file: {path}"]
        prev = None
        for n in included[path]:
            if prev is not None and n > prev + 1:
                out.append("...")
            out.append(f"{n}| {source.lines[n - 1]}")
            prev = n
        blocks.append("\n".join(out))
    return "\n\n".join(blocks), included


def gap_kinds(rendering):
    """Per file, per covered line: "" when the next covered line follows
    it, "last" for the last covered line, else "verbatim" or "elided"."""
    out = {}
    for path, block in rendering.blocks.items():
        kinds = {}
        for a, b, gap in zip(block.lines, [*block.lines[1:], 0], block.gaps):
            kinds[a] = "last" if not b else "" if b == a + 1 else "verbatim" if gap else "elided"
        out[path] = kinds
    return out


def drop_cases(before, after, changed):
    """What one drop did to the rendering, given `gap_kinds` before and after."""
    cases = set() if changed else {"no line uncovered"}
    for path, kinds in before.items():
        now = after.get(path)
        if now is None:
            cases.add("file block emptied")
            continue
        if any(kind == "verbatim" and now.get(a) == "elided" for a, kind in kinds.items()):
            cases.add("verbatim gap elided")
        if any(kind in ("verbatim", "elided") and now.get(a) == "last" for a, kind in kinds.items()):
            cases.add("gap before the last line removed")
    return cases


DROP_CASES = {"no line uncovered", "file block emptied", "verbatim gap elided", "gap before the last line removed"}


# Two statements on a line, and trivia gaps of exactly TRIVIA_GAP_MAX lines
# and of one line more.
SHARED_LINES = (
    "package p;\n\nclass Shared {\n    int f(int a) {\n        int b = a + 1; int c = b * 2;\n"
    + "        //\n" * TRIVIA_GAP_MAX
    + "        if (c > 3) { c = c - 1; }\n"
    + "        //\n" * (TRIVIA_GAP_MAX + 1)
    + "        return c;\n    }\n}\n"
)


SPACED_DIR = "sub dir"


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["generated 0", "generated 1", "generated 2", "spaced directory"])
def test_in_place_drops_match_rendering_from_scratch(tmp_path, name):
    """Every drop, in any order, leaves the text and lines that rendering
    the kept statements from scratch gives, now and as it was, and a running
    word count equal to the words of that text.  The generated repositories,
    with `SHARED_LINES` added, make every kind of edit in `DROP_CASES`; the
    spaced directory gives a file header of four words."""
    generated = name.startswith("generated")
    if generated:
        root = summary_repo(tmp_path, int(name.split()[1]))
        with open(os.path.join(root, "p", "Shared.java"), "w", encoding="utf-8") as fh:
            fh.write(SHARED_LINES)
    elif name == "spaced directory":
        root = write_repo(tmp_path, {f"{SPACED_DIR}/Shared.java": SHARED_LINES})
    else:
        root = os.path.join(FIXTURES, name)
    model, _, _ = parse_and_build(root)
    ids = sorted(sid for sid, stmt in model.statements.items() if not stmt.synthetic)
    seen = set()

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.permutations(ids))
    def drop_in_order(order):
        kept = list(ids)
        rendering = _Rendering(kept, model)
        assert (rendering.text, rendering.included()) == text_and_lines(kept, model)
        assert rendering.words == whitespace_tokenizer(rendering.text)
        for victim in order:
            kept.remove(victim)
            before, words_before = gap_kinds(rendering), rendering.words
            changed = rendering.drop(victim)
            got = (rendering.text, rendering.included())
            assert got == text_and_lines(kept, model) == reference_render(kept, model), victim
            assert rendering.words == whitespace_tokenizer(rendering.text), victim
            # A drop only widens gaps, and a wider gap is never rendered
            # verbatim where a narrower one was elided: the count never rises.
            assert rendering.words <= words_before, victim
            seen.update(drop_cases(before, gap_kinds(rendering), changed))
        assert rendering.text == "" and rendering.words == 0

    drop_in_order()
    if generated:
        assert seen == DROP_CASES
    if name == "spaced directory":
        block = _Rendering(ids, model).blocks[f"{SPACED_DIR}/Shared.java"]
        assert len(block.header.split()) == 4


# ------------------------------------------------------------------ caches


def trivial_line_map(source):
    """Per-line triviality (blank / comment-only / brace-punctuation-only),
    tracking multi-line block comments: the text scan the parser-set trivia
    replaced. It does not know string literals."""
    out: list[bool] = []
    in_block = False
    for line in source.lines:
        rest = line
        code_chars: list[str] = []
        while rest:
            if in_block:
                idx = rest.find("*/")
                if idx < 0:
                    rest = ""
                else:
                    in_block = False
                    rest = rest[idx + 2 :]
            else:
                li = rest.find("//")
                bi = rest.find("/*")
                if bi >= 0 and (li < 0 or bi < li):
                    code_chars.append(rest[:bi])
                    in_block = True
                    rest = rest[bi + 2 :]
                elif li >= 0:
                    code_chars.append(rest[:li])
                    rest = ""
                else:
                    code_chars.append(rest)
                    rest = ""
        code = "".join(code_chars).strip()
        out.append(code == "" or all(c in "{}();," for c in code))
    return out


def generated_repo(tmp_path):
    files = {}
    for seed in range(6):
        body = random_summary_program(seed).replace("class Gen", f"class Gen{seed}")
        files[f"p/Gen{seed}.java"] = "package p;\n\n/* generated\n * by seed */\n" + body
    return write_repo(tmp_path, files)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["generated"])
def test_cached_trivia_equals_trivial_line_map(tmp_path, name):
    root = generated_repo(tmp_path) if name == "generated" else os.path.join(FIXTURES, name)
    model, _, _ = parse_and_build(root)
    assert model.files
    for source in model.files:
        assert len(source.trivia) == len(source.lines)
        assert source.trivia == trivial_line_map(source)
        assert model.file_by_path(source.path) is source


def one_file_model(tmp_path, text):
    model, _, diags = parse_and_build(write_repo(tmp_path, {"A.java": text}))
    assert not diags.has_errors()
    return model, model.file_by_path("A.java")


def test_comment_marker_inside_a_string_is_not_a_comment(tmp_path):
    text = (
        "class A {\n"
        "    int f(int a) {\n"
        '        String g = "src/*.java";\n'
        "        int b = a + 1;\n"
        "        int c = b + 2;\n"
        "        return a;\n"
        "    }\n"
        "}\n"
    )
    model, source = one_file_model(tmp_path, text)
    assert source.trivia == [False] * 6 + [True] * 3
    ends = [s.id for s in model.statements.values() if s.start_line in (3, 6)]
    rendered, included = text_and_lines(ends, model)
    assert included == {"A.java": [3, 6]}
    assert "...\n6|" in rendered


def test_spaced_brace_punctuation_line_is_trivia(tmp_path):
    text = (
        "class A {\n"
        "    int f(int a,\n"
        "          int b\n"
        "    ) {\n"
        "        return a;\n"
        "    }\n"
        "}\n"
    )
    _, source = one_file_model(tmp_path, text)
    assert source.trivia == [False, False, False, True, False, True, True, True]


def brute_force_declarations(statement_ids, model):
    """Package and import statements of the contributing files, found by
    scanning every statement of the model."""
    files = set()
    for sid in statement_ids:
        stmt = model.statements.get(sid)
        if stmt is not None and not stmt.synthetic and stmt.file != "<external>":
            files.add(stmt.file)
    return {
        s.id
        for s in model.statements.values()
        if s.file in files and s.kind in ("package_decl", "import_decl")
    }


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_declaration_index_matches_brute_force(name):
    model, g = enhanced(os.path.join(FIXTURES, name))
    inputs = [[sid] for sid in sorted(g.nodes)]
    inputs += [func.body for func in model.functions.values()]
    inputs.append(sorted(g.nodes))
    for ids in inputs:
        got = declaration_context(ids, model).statements
        classes = {sid for sid in got if model.statements[sid].kind == "class_decl"}
        assert set(got) - classes == brute_force_declarations(ids, model)


def test_declaration_index_skips_a_rolled_back_file(tmp_path):
    body = "class {0} {{\n    void m() {{\n        {1}\n    }}\n}}\n"
    files = {
        "A.java": "package p;\nimport java.util.List;\n" + body.format("A", "int x = 1;"),
        # The lambda is outside the subset: B.java is parsed, then rolled back.
        "B.java": "package p;\nimport java.io.File;\n" + body.format("B", "Runnable r = () -> go();"),
    }
    model, _, diags = parse_and_build(write_repo(tmp_path, files))
    assert diags.has_errors()
    assert [f.path for f in model.files] == ["A.java"]
    assert model.file_by_path("B.java") is None
    decl_ids = model.file_by_path("A.java").declarations
    assert [model.statements[sid].kind for sid in decl_ids] == ["package_decl", "import_decl"]
    assert all(sid in model.statements for sid in decl_ids)


def unfiltered_match_call(kb, candidates, arity):
    return [
        entry
        for entry in kb.entries
        if (entry.arity is None or entry.arity == arity)
        and any(suffix_match(entry.api, cand) for cand in candidates)
    ]


def test_kb_prefilter_matches_unfiltered_on_fixture_call_sites():
    kb = load_starter_kb()
    checked = hits = 0
    for name in FIXTURE_NAMES:
        model, _, _ = parse_and_build(os.path.join(FIXTURES, name))
        for stmt in model.statements.values():
            for site in stmt.calls:
                for candidates in (site.qualified_candidates(), [site.name], ["println", site.chain, "exec"]):
                    for arity in (site.arity, site.arity + 1):
                        want = unfiltered_match_call(kb, candidates, arity)
                        assert kb.match_call(candidates, arity) == want
                        checked += 1
                        hits += bool(want)
    assert checked and hits
