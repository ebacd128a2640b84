"""The in-place expression walker (`frontend.parser._Expr`) against the
closure-per-call extractor it replaced, kept here as the reference: every
statement but those named with the reason they differ gets the same uses,
calls (in order, with every field), kind, defs and code, and every file
the same diagnostics."""

import os
import random
from unittest import mock

import pytest

from conftest import FIXTURES

from udgscan.errors import DiagnosticSink, SubsetViolation
from udgscan.frontend import parser
from udgscan.frontend.lexer import PRIMITIVES, Token, tokenize
from udgscan.frontend.model import CallSite, RepoModel
from udgscan.frontend.parser import MAX_NESTING, parse_source
from udgscan.harness.generate import random_summary_program

# ------------------------------------------------------------- reference


def reference_type_args_close(toks: list[Token], i: int) -> int:
    """Index of the token closing the type arguments opening at toks[i],
    where `>>` and `>>>` close two and three levels; len(toks) when none does."""
    depth = 0
    for j in range(i, len(toks)):
        depth += {"<": 1, ">": -1, ">>": -2, ">>>": -3}.get(toks[j].text, 0)
        if depth <= 0:
            return j
    return len(toks)


def reference_extract_expression(
    tokens: list[Token],
    var_types: dict[str, str],
    path: str,
    field_names: dict[str, str] | None = None,
    depth: int = 0,
) -> tuple[set[str], list[CallSite]]:
    known = {**field_names, **var_types} if field_names else var_types
    uses: set[str] = set()
    calls: list[CallSite] = []

    def walk(toks: list[Token]) -> None:
        i = 0
        while i < len(toks):
            t = toks[i]
            if t.text == "->" or t.text == "::":
                raise SubsetViolation(path, t.line, "lambdas and method references are outside the subset")
            if t.text == "new":
                i = handle_new(toks, i)
                continue
            if t.kind == "ident" or t.text == "this":
                i = handle_chain(toks, i)
                continue
            if t.text == "(" and _looks_like_cast(toks, i, known):
                j = i + 1
                while j < len(toks) and toks[j].text != ")":
                    j += 1
                i = j + 1
                continue
            i += 1

    def handle_new(toks: list[Token], i: int) -> int:
        j = i + 1
        type_parts = []
        while j < len(toks) and (toks[j].kind == "ident" or toks[j].text == "."):
            if toks[j].kind == "ident":
                type_parts.append(toks[j].text)
            j += 1
        if j < len(toks) and toks[j].text == "<":
            j = reference_type_args_close(toks, j) + 1
        if j < len(toks) and toks[j].text == "(":
            args, end = reference_split_args(toks, j, path)
            arg_sets = walk_args(args, toks[j])
            simple = type_parts[-1] if type_parts else "?"
            chain = f"new {'.'.join(type_parts)}"
            calls.append(
                CallSite(
                    chain=chain,
                    name=simple,
                    arity=len(args),
                    arg_vars=arg_sets,
                    is_constructor=True,
                )
            )
            if type_parts:
                # Deviation from the parser the reference came with: a call
                # on the new object is recorded with the object's type.
                return chained_calls(toks, end + 1, f"{chain}()", None, ".".join(type_parts))
            return end + 1
        if j < len(toks) and toks[j].text == "[":
            return j
        return j

    def handle_chain(toks: list[Token], i: int) -> int:
        segs = [toks[i].text]
        j = i + 1
        while j + 1 < len(toks) and toks[j].text == "." and (
            toks[j + 1].kind == "ident" or toks[j + 1].text in ("class", "this")
        ):
            nxt = toks[j + 1]
            if nxt.text == "class":
                if not (j + 3 < len(toks) and toks[j + 2].text == "." and toks[j + 3].kind == "ident"):
                    return j + 2
                segs[-1] += ".class"
                j += 2
                continue
            segs.append(nxt.text)
            j += 2
            if j < len(toks) and toks[j].text == "(":
                break
        if j < len(toks) and toks[j].text == "(":
            return handle_call(toks, i, segs, j)
        register_access(segs)
        return j

    def handle_call(toks: list[Token], start: int, segs: list[str], paren: int) -> int:
        base = segs[0]
        name = segs[-1]
        receiver = None
        receiver_type = None
        if len(segs) > 1:
            if base in known:
                receiver = base
                receiver_type = known[base]
                uses.add(base)
            elif base == "this":
                receiver = "this"
                if len(segs) > 2:
                    uses.add(f"this.{segs[1]}")
        args, end = reference_split_args(toks, paren, path)
        arg_sets = walk_args(args, toks[paren])
        chain = ".".join(segs)
        site = CallSite(
            chain=chain,
            name=name,
            arity=len(args),
            receiver=receiver,
            receiver_type=receiver_type,
            arg_vars=arg_sets,
        )
        calls.append(site)
        return chained_calls(toks, end + 1, f"{chain}()", None, None)

    def chained_calls(toks: list[Token], j: int, base: str, receiver, receiver_type) -> int:
        """The calls chained on `base`, the first with the given receiver."""
        while j + 2 < len(toks) and toks[j].text == "." and toks[j + 1].kind == "ident" and toks[j + 2].text == "(":
            cname = toks[j + 1].text
            args2, end2 = reference_split_args(toks, j + 2, path)
            arg_sets2 = walk_args(args2, toks[j + 2])
            chain = f"{base}.{cname}"
            calls.append(
                CallSite(
                    chain=chain,
                    name=cname,
                    arity=len(args2),
                    receiver=receiver,
                    receiver_type=receiver_type,
                    arg_vars=arg_sets2,
                )
            )
            base, receiver, receiver_type = f"{chain}()", None, None
            j = end2 + 1
        return j

    def walk_args(args: list[list[Token]], paren: Token) -> list[set[str]]:
        if args and depth == MAX_NESTING:
            raise SubsetViolation(path, paren.line, f"nesting deeper than {MAX_NESTING}")
        arg_sets = []
        for a in args:
            u, c = reference_extract_expression(a, known, path, depth=depth + 1)
            arg_sets.append(u)
            uses.update(u)
            calls.extend(c)
        return arg_sets

    def register_access(segs: list[str]) -> None:
        base = segs[0]
        if base == "this":
            if len(segs) > 1:
                uses.add(f"this.{segs[1]}")
            return
        if base in known:
            uses.add(base)

    def _looks_like_cast(toks: list[Token], i: int, known_vars: dict[str, str]) -> bool:
        if i + 2 >= len(toks):
            return False
        j = i + 1
        if toks[j].kind == "keyword" and toks[j].text in PRIMITIVES:
            j += 1
        elif toks[j].kind == "ident" and toks[j].text not in known_vars:
            j += 1
            while j + 1 < len(toks) and toks[j].text == "." and toks[j + 1].kind == "ident":
                j += 2
        else:
            return False
        while j + 1 < len(toks) and toks[j].text == "[" and toks[j + 1].text == "]":
            j += 2
        if j >= len(toks) or toks[j].text != ")":
            return False
        k = j + 1
        if k >= len(toks):
            return False
        nxt = toks[k]
        return nxt.kind in ("ident", "string", "char", "number") or nxt.text in ("this", "new", "(")

    walk(tokens)
    return uses, calls


def reference_top_level(tokens: list[Token], start: int, end: int):
    """Yield (index, token) for each token of tokens[start:end] at depth 0,
    where (, [ and { open and ), ] and } close a group from `start` on.  A
    bracket counts at the depth before it, so the closer of a group that
    opened before `start` is yielded."""
    depth = 0
    for i in range(start, end):
        t = tokens[i]
        if depth == 0:
            yield i, t
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1


def reference_split_args(tokens: list[Token], paren: int, path: str) -> tuple[list[list[Token]], int]:
    assert tokens[paren].text == "("
    args: list[list[Token]] = []
    start = paren + 1
    for i, t in reference_top_level(tokens, start, len(tokens)):
        if t.text == ",":
            args.append(tokens[start:i])
            start = i + 1
        elif t.text in ")]":
            if i > start:
                args.append(tokens[start:i])
            return args, i
    raise SubsetViolation(path, tokens[paren].line, "unbalanced argument list")


def reference_walk(self, start, end):
    """`_Expr.walk` by the reference, on a copy of the range.  It cannot
    tell uses outside the arguments apart, so it records them all as inside."""
    uses, calls = reference_extract_expression(
        self.toks[start:end], self.var_types, self.path, field_names=self.fields, depth=self.depth
    )
    self.inside |= uses
    self.calls.extend(calls)
    return self


# ---------------------------------------------------------------- checks


def parse(files: dict[str, str]):
    """Every statement's facts and every diagnostic of parsing `files`."""
    model, diags = RepoModel(root=""), DiagnosticSink()
    for path, text in files.items():
        parse_source(path, text, model, diags)
    statements = {
        sid: (s.kind, s.start_line, s.end_line, s.defs, s.uses, s.code, s.calls)
        for sid, s in model.statements.items()
    }
    scopes = {fid: f.var_types for fid, f in model.functions.items()}
    fields = [(g.statement, g.variable, g.rhs_uses) for g in model.globals]
    return model, (statements, scopes, fields, diags.as_dicts())


def check(files: dict[str, str], differ: tuple[str, ...] = ()):
    """Asserts the walker's facts equal the reference's on `files`, except
    for the statements whose code `differ` names, which must differ; and
    that each statement's uses outside the arguments are uses, covering
    every use that no argument list holds.  Returns the model and the
    diagnostics."""
    model, got = parse(files)
    with mock.patch.object(parser._Expr, "walk", reference_walk):
        _, expected = parse(files)
    assert got[0].keys() == expected[0].keys() and got[1:] == expected[1:]
    assert {facts[5] for sid, facts in got[0].items() if facts != expected[0][sid]} == set(differ)
    for s in model.statements.values():
        in_args = set().union(*(arg for site in s.calls for arg in site.arg_vars))
        assert s.uses - in_args <= s.outside_uses <= s.uses, s.id
    return model, got[-1]


def _fixture_files(name):
    root = os.path.join(FIXTURES, name)
    files = {}
    for dirpath, _, filenames in os.walk(root):
        for fn in sorted(filenames):
            if fn.endswith(".java"):
                path = os.path.join(dirpath, fn)
                with open(path, encoding="utf-8") as fh:
                    files[os.path.relpath(path, root)] = fh.read()
    return dict(sorted(files.items()))


FIXTURE_NAMES = ["dispatch", "el_template_validation", "pruning", "reflective_dispatch"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures(name):
    model, _ = check(_fixture_files(name))
    assert any(s.calls for s in model.statements.values())


@pytest.mark.parametrize("block", range(3))
def test_random_summary_programs(block):
    """Seeds 0-299, a hundred per case."""
    for seed in range(block * 100, block * 100 + 100):
        check({"Gen.java": random_summary_program(seed)})


def _mutants(text, path, rng, count):
    """`count` variants of `text`, each with one token deleted, duplicated
    or swapped with another."""
    tokens = tokenize(text, path)
    for _ in range(count):
        a, b = sorted(rng.sample(range(len(tokens)), 2))
        ta, tb = tokens[a], tokens[b]
        op = rng.choice(("delete", "duplicate", "swap"))
        if op == "delete":
            yield text[: ta.start] + text[ta.end :]
        elif op == "duplicate":
            yield text[: ta.end] + " " + ta.text + text[ta.end :]
        else:
            yield text[: ta.start] + tb.text + text[ta.end : tb.start] + ta.text + text[tb.end :]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_token_mutated_fixtures(name):
    files = _fixture_files(name)
    rng = random.Random(name)
    for path, text in files.items():
        for variant in _mutants(text, path, rng, 150):
            check({path: variant})


HAND = """package p;
import java.util.List;
class Box<T> {
    T v;
    Box(T v) { this.v = v; }
    Box<T> wrap(T x) { return this; }
    T get() { return v; }
}
class Main {
    int f;
    Box<String> b;
    String s = String.valueOf(f) + f, s2 = new Box<String>(s).get();
    static int g(int a) { return a; }
    static int h(int a, int b) { return b; }
    Object run(String v, Main a, int x, int y, int[] arr, Object raw) {
        Object o = new Box<Box<Box<String>>>(v);
        Object p = a.b(x).c(y);
        String t = (String) raw;
        int n = (int) x + (int) (y);
        long w = (long) g(x);
        Object q = (java.lang.Object) raw;
        this.f.m(x);
        this.b.wrap(v).wrap(t).get();
        Class<?> k = String.class;
        Class<?> kk = Main.class.getClass();
        int[] fresh = new int[x + g(y)];
        int[][] grid = new int[x][y];
        String[] names = new String[] { v, t };
        Object pair = List.of(new java.util.HashMap<String, String>(), x);
        arr[g(x)] = h(x, y);
        arr[x] += y;
        a.f = h(y, x) + x;
        x++;
        --arr[y];
        int z = x + g(x);
        int zz = g(h(x, g(y)), ) + h(, x);
        f = f + g(f);
        int f = 3;
        int u = f + g(f);
        String b = v;
        Object bb = b.trim();
        for (int i = 0, j = g(x); i < h(x, y); i++, j = g(j)) { x = x + i; }
        for (String e : names) { t = t + e; }
        for (int m : arr) x += m;
        if (g(x) > 0 && a.f > h(y, x)) { return new Main().run(v, a, x, y, arr, raw); }
        while (x < g(y)) x = g(x);
        do { y = h(y, x); } while (y > g(x));
        switch (h(x, y)) { case 1: x = 2; break; default: y = 3; }
        try { raw = List.of(x, y); } catch (RuntimeException ex) { raw = ex.getMessage(); } finally { x = 0; }
        Main.g(x).toString();
        new Main().f = x;
        p = (Object) (x + y);
        String z2 = v.substring(g(x)).trim().substring(0, y);
        throw new RuntimeException(v + g(x));
    }
    int m(int z) { return z; }
    Object b(int x) { return this; }
}
"""


# The statements whose facts differ from the reference's, by their code.
# The reference splits an argument list at every top-level comma, also
# those in the type arguments of a `new`; the walker splits it as
# declarators are, so the `new` is one argument.
GENERIC_NEW = "Object pair = List.of(new java.util.HashMap<String, String>(), x)"
MEMBER_LINE = HAND[: HAND.index("    int m(int z)")].count("\n") + 1  # where a variant's member starts


def _nested(depth: int) -> str:
    """A method whose one statement holds `depth` nested argument lists."""
    return "int n(int x) {\n    int y =\n" + "g(\n" * depth + "x" + ")" * depth + ";\n    return y;\n}\n"


LAMBDA = "lambdas and method references are outside the subset"


def _with_member(member: str) -> str:
    return HAND.replace("    int m(int z)", member + "    int m(int z)")


def test_hand_written_file():
    model, diagnostics = check({"p/Main.java": HAND}, differ=(GENERIC_NEW,))
    assert diagnostics == []
    stmts = {s.code: s for s in model.statements.values()}
    assert [(c.chain, c.arity, c.arg_vars) for c in stmts[GENERIC_NEW].calls] == [
        ("new java.util.HashMap", 0, []),
        ("List.of", 2, [set(), {"x"}]),
    ]
    box = stmts["Object o = new Box<Box<Box<String>>>(v)"]
    assert [(c.chain, c.arity, c.arg_vars) for c in box.calls] == [("new Box", 1, [{"v"}])]
    chained = stmts["Object p = a.b(x).c(y)"]
    assert [(c.chain, c.receiver, c.arg_vars) for c in chained.calls] == [
        ("a.b", "a", [{"x"}]),
        ("a.b().c", None, [{"y"}]),
    ]
    nested = stmts["int zz = g(h(x, g(y)), ) + h(, x)"]
    assert [(c.name, c.arity) for c in nested.calls] == [("g", 1), ("h", 2), ("g", 1), ("h", 2)]
    assert (nested.outside_uses, stmts["int z = x + g(x)"].outside_uses) == (set(), {"x"})
    assert stmts["this.f.m(x);"].uses == {"this.f", "x"}
    assert stmts["Class<?> k = String.class"].uses == set()
    # A class literal stays the base of a call chain on it.
    assert [(c.chain, c.receiver) for c in stmts["Class<?> kk = Main.class.getClass()"].calls] == [
        ("Main.class.getClass", None)
    ]
    # The local `b`, a String, shadows the field `b`, a Box.
    assert stmts["Object bb = b.trim()"].calls[0].receiver_type == "String"
    # Expected deviations from the parser the reference came with, which
    # walked a dotted target from its second token: the field `f` was a use
    # and `a` was not, and `new Main()` was a call of a method `Main`.
    assert stmts["a.f = h(y, x) + x;"].uses == {"a", "x", "y"}
    assert [(c.chain, c.is_constructor) for c in stmts["new Main().f = x;"].calls] == [("new Main", True)]
    # Also expected: a call on a new object is recorded with the object's
    # type; the parser the reference came with recorded `run` as a call in
    # the caller's class.  These two statements are the ones it changes.
    fresh = stmts["return new Main().run(v, a, x, y, arr, raw);"]
    assert [(c.chain, c.receiver, c.receiver_type) for c in fresh.calls] == [
        ("new Main", None, None),
        ("new Main().run", None, "Main"),
    ]
    generic = stmts["String s = String.valueOf(f) + f, s2 = new Box<String>(s).get();"]
    assert [(c.chain, c.receiver_type) for c in generic.calls][-1] == ("new Box().get", "Box")


@pytest.mark.parametrize(
    "member, message, line",
    [
        (_nested(MAX_NESTING - 1), None, None),
        (_nested(MAX_NESTING), f"nesting deeper than {MAX_NESTING}", MEMBER_LINE + 1 + MAX_NESTING),
        ("int n(int x) {\n    return g(x, h(x -> x));\n}\n", LAMBDA, MEMBER_LINE + 1),
        ("static int bad = g(x};\n", "unclosed '('", MEMBER_LINE),
        ("static Object bad = g(x -> x};\n", "unclosed '('", MEMBER_LINE),
        ("int n(Main a) {\n    return a.b(List::of);\n}\n", LAMBDA, MEMBER_LINE + 1),
    ],
    ids=["at-the-cap", "past-the-cap", "lambda", "unbalanced", "unbalanced-before-lambda", "method-reference"],
)
def test_hand_written_variants(member, message, line):
    _, diagnostics = check({"p/Main.java": _with_member(member)}, differ=(GENERIC_NEW,) if message is None else ())
    found = [(d["message"], d["line"]) for d in diagnostics]
    assert found == ([] if message is None else [(f"subset violation: {message}", line)])
