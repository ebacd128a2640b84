"""The bit-vector reaching definitions (`udg.ddg.build_ddg`) and the
parameter-mask summaries (`enhance.summaries.compute_function_summary`)
against the set-based versions they replaced, kept here as references:
equal edge lists in equal order, and equal summaries."""

import os
import random
from unittest import mock

import pytest

from conftest import FIXTURES, enhance
from support import shapes

from udgscan.enhance import pipeline
from udgscan.enhance import summaries as summaries_module
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.enhance.summaries import (
    AliasSets,
    FunctionSummary,
    build_alias_sets,
    compute_all_summaries,
    compute_function_summary,
    flowing_uses,
)
from udgscan.errors import DiagnosticSink
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.frontend.lexer import tokenize
from udgscan.frontend.model import RETURN_VAR, RepoModel
from udgscan.frontend.parser import parse_source
from udgscan.harness.generate import random_summary_program
from udgscan.harness.oracles import brute_force_summary_oracle
from udgscan.udg.build import assemble_original_udg
from udgscan.udg.calls import function_of_entry
from udgscan.udg.cfg import build_cfg
from udgscan.udg.ddg import build_ddg
from udgscan.udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge

# ------------------------------------------------------------- references


def reference_build_ddg(func, model, cfg_edges):
    nodes = [func.entry] + list(func.body) + [func.exit]
    node_set = set(nodes)
    preds = {n: [] for n in nodes}
    succs = {n: [] for n in nodes}
    for e in cfg_edges:
        if e.src in node_set and e.dst in node_set:
            preds[e.dst].append(e.src)
            succs[e.src].append(e.dst)
    gen = {n: {(v, n) for v in model.stmt(n).defs} for n in nodes}
    defs_of = {n: set(model.stmt(n).defs) for n in nodes}
    out = {n: set() for n in nodes}
    inn = {n: set() for n in nodes}
    work = list(nodes)
    while work:
        n = work.pop(0)
        in_set = set()
        for p in preds[n]:
            in_set |= out[p]
        inn[n] = in_set
        new_out = gen[n] | {(v, d) for (v, d) in in_set if v not in defs_of[n]}
        if new_out != out[n]:
            out[n] = new_out
            for s in succs[n]:
                if s not in work:
                    work.append(s)
    edges = []
    for n in nodes:
        stmt = model.stmt(n)
        for v in sorted(stmt.uses):
            for var, d in sorted(inn[n]):
                if var == v:
                    edges.append(UdgEdge(src=d, dst=n, tau=DATA_DEPENDENCY, variable=v))
    return edges


def reference_site_targets(graph, model, stmt):
    out = {i: [] for i in range(len(stmt.calls))}
    for edge in graph.out_edges(stmt.id, CALL):
        dst = edge.dst
        func = None if dst.startswith("external:") else function_of_entry(model, dst)
        for i, site in enumerate(stmt.calls):
            if func is None:
                hit = dst == f"external:{site.name}/{site.arity}"
            else:
                hit = func.arity == site.arity and func.name == site.name
            if hit:
                out[i].append(dst)
    return out


def reference_summary(func, g, model, known, aliases=None):
    if func.is_abstract or func.id not in model.bodies:
        return FunctionSummary(func.id, {p: True for p in func.params})
    aliases = aliases or build_alias_sets(func, model)
    nodes = [func.entry] + list(func.body) + [func.exit]
    node_set = set(nodes)
    preds = {n: [e.src for e in g.in_edges(n, CONTROL_FLOW) if e.src in node_set] for n in nodes}
    succs = {n: [e.dst for e in g.out_edges(n, CONTROL_FLOW) if e.dst in node_set] for n in nodes}
    out_state = {n: {} for n in nodes}
    out_state[func.entry] = {p: frozenset((p,)) for p in func.params}
    work = [n for n in _reverse_postorder(func.entry, succs) if n != func.entry]
    in_work = set(work)
    while work:
        n = work.pop(0)
        in_work.discard(n)
        current = {}
        for p in preds[n]:
            for var, taint in out_state[p].items():
                current[var] = current.get(var, frozenset()) | taint
        new_out = _transfer(model.stmt(n), current, g, model, known, aliases)
        if new_out != out_state[n]:
            out_state[n] = new_out
            for s in succs[n]:
                if s != func.entry and s not in in_work:
                    work.append(s)
                    in_work.add(s)
    ret_taint = frozenset()
    for n in nodes:
        ret_taint |= out_state[n].get(RETURN_VAR, frozenset())
    return FunctionSummary(func.id, {p: (p in ret_taint) for p in func.params})


def _reverse_postorder(entry, succs):
    seen = {entry}
    post = []
    stack = [(entry, iter(sorted(succs.get(entry, ()))))]
    while stack:
        node, it = stack[-1]
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(sorted(succs.get(nxt, ())))))
                break
        else:
            post.append(node)
            stack.pop()
    return list(reversed(post))


def _transfer(stmt, state, g, model, known, aliases: AliasSets):
    if stmt.kind in ("condition", "loop_header", "label", "entry", "exit") or not stmt.defs:
        return dict(state)
    per_site = reference_site_targets(g, model, stmt) if stmt.calls else {}
    rhs_taint = frozenset()
    for v in flowing_uses(stmt, per_site, model, known):
        rhs_taint |= state.get(v, frozenset())
    new_state = dict(state)
    for target in sorted(stmt.defs):
        if target == RETURN_VAR:
            new_state[RETURN_VAR] = new_state.get(RETURN_VAR, frozenset()) | rhs_taint
            continue
        new_state[target] = rhs_taint
        for alias in aliases.of(target):
            if alias != target:
                new_state[alias] = new_state.get(alias, frozenset()) | rhs_taint
    return new_state


# ---------------------------------------------------------------- checks


def _model(files: dict[str, str]):
    """The parsed model of `files`, or None when any file is skipped or the
    classes inherit in a cycle (the hierarchy leaves an edge out)."""
    model, diags = RepoModel(root=""), DiagnosticSink()
    for path, text in files.items():
        if not parse_source(path, text, model, diags):
            return None
    build_type_hierarchy(model, diags)
    return None if diags.has_errors() else model


def _enhanced_for_summaries(model):
    """The enhanced graph and analysis order the summary pass runs on, and
    the summaries the pipeline computed."""
    captured = {}

    def capture(g, model, order):
        captured["at_summaries"] = (g.copy(), order)
        return compute_all_summaries(g, model, order)

    with mock.patch.object(pipeline, "compute_all_summaries", capture):
        enh = enhance(model, assemble_original_udg(model), MockResolutionOracle(), DiagnosticSink())
    return (*captured["at_summaries"], enh.summaries)


def check_dataflow(model, oracle: bool = False) -> int:
    """Asserts both kernels equal their references on `model`; with
    `oracle`, the summaries must also equal the brute-force oracle.
    Returns the number of functions checked."""
    for fid in sorted(model.functions):
        func = model.functions[fid]
        cfg_edges = build_cfg(func, model)
        assert build_ddg(func, model, cfg_edges) == reference_build_ddg(func, model, cfg_edges), fid

    g, order, summaries = _enhanced_for_summaries(model)
    with mock.patch.object(summaries_module, "compute_function_summary", reference_summary):
        expected = compute_all_summaries(g.copy(), model, order)
    assert {f: s.phi for f, s in summaries.items()} == {f: s.phi for f, s in expected.items()}
    for known in ({}, summaries):
        for fid, func in model.functions.items():
            got = compute_function_summary(func, g, model, dict(known))
            assert got == reference_summary(func, g, model, dict(known)), fid
    if oracle:
        for fid, func in model.functions.items():
            assert summaries[fid].phi == brute_force_summary_oracle(model, func), func.name
    return len(model.functions)


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
    assert check_dataflow(_model(_fixture_files(name))) > 0


@pytest.mark.parametrize(
    "shape",
    [shapes.alias_group, shapes.conditional_redefinitions, shapes.extends_chain, shapes.override_chain],
    ids=lambda shape: shape.__name__,
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_shapes(shape, n):
    """Alias groups put several receiving bits in one summary state, and
    conditional redefinitions give the reaching definitions dense sets."""
    assert check_dataflow(_model(shape(n))) > 0


CONDITION_DEF = """package p;
class F {
    int f(int a) {
        int x = 0;
        if ((x = a) > 0) {
        }
        return x;
    }
}
"""


def test_a_condition_that_defines_transfers_in_both_problems():
    """The reaching definitions and the summaries honour any statement's
    defs: here a condition's, set by hand because the parser gives a
    condition none."""
    model = _model({"p/F.java": CONDITION_DEF})
    func = next(iter(model.functions.values()))
    cond, ret = (next(n for n in func.body if model.stmt(n).kind == kind) for kind in ("condition", "return"))
    model.statements[cond] = model.stmt(cond)._replace(defs={"x"})
    edges = build_ddg(func, model, build_cfg(func, model))
    assert [e.src for e in edges if e.dst == ret] == [cond]
    g = assemble_original_udg(model)
    assert compute_function_summary(func, g, model, {}).phi == {"a": True}


@pytest.mark.parametrize("block", range(6))
def test_random_summary_programs(block):
    """Seeds 0-299, fifty per case; these programs have no loops."""
    for seed in range(block * 50, block * 50 + 50):
        model = _model({"p/Gen.java": "package p;\n" + random_summary_program(seed)})
        check_dataflow(model, oracle=True)


LOOPS = """package p;
class Loops {
    static int mix(int a, int b) {
        int s = 0;
        int t = b;
        outer: for (int i = 0; i < a; i = i + 1) {
            inner: while (t > 0) {
                t = t - 1;
                if (t == 3) {
                    continue outer;
                }
                if (t == 5) {
                    break outer;
                }
                s = s + t;
                if (s > 100) {
                    break inner;
                }
            }
            do {
                s = s + i;
                if (s > 7) {
                    continue;
                }
                t = a;
            } while (s < 50);
        }
        return s;
    }
    static int pick(int k, int x, int y) {
        int r = 0;
        switch (k) {
            case 1:
                r = x;
            case 2:
                r = r + y;
                break;
            default:
                r = 9;
        }
        try {
            r = mix(r, x);
        } catch (RuntimeException e) {
            r = y;
        } finally {
            x = r;
        }
        return x;
    }
    static int spin(int n, int m) {
        int acc = m;
        while (n > 0) {
            n = n - 1;
            if (n == 2) {
                break;
            }
            acc = spin(n, acc);
        }
        return acc;
    }
    static int ping(int n, int z) {
        if (n > 0) {
            return pong(n - 1, z);
        }
        return n;
    }
    static int pong(int n, int z) {
        int q = ping(n, 4);
        return q;
    }
    static int seven(int n) {
        if (n > 0) {
            return seven(n - 1);
        }
        return 7;
    }
    static String alias(String a, String b, int k) {
        String c = a;
        String d = c;
        for (int i = 0; i < k; i = i + 1) {
            d = b;
        }
        return c;
    }
    static int reset(int a, int b) {
        int x = b;
        if (a > 0) {
            x = a;
        }
        x = a + 1;
        return x;
    }
    static int none() {
        int u = 1;
        while (u < 10) {
            u = u + u;
        }
        return u;
    }
}
"""


def test_loops_jumps_switch_and_try():
    model = _model({"p/Loops.java": LOOPS})
    assert check_dataflow(model) == 9
    g, _, summaries = _enhanced_for_summaries(model)
    phi = {model.functions[fid].name: s.phi for fid, s in summaries.items()}
    assert phi["pick"] == {"k": False, "x": True, "y": True}
    assert phi["ping"] == {"n": True, "z": False} and phi["pong"] == {"n": True, "z": False}
    assert phi["seven"] == {"n": False}
    assert phi["alias"] == {"a": True, "b": True, "k": False}
    assert phi["reset"] == {"a": True, "b": False}
    assert phi["none"] == {}
    for name in ("ping", "pong", "seven", "reset"):
        func = next(f for f in model.functions.values() if f.name == name)
        assert phi[name] == brute_force_summary_oracle(model, func), name


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
    checked = 0
    for path, text in files.items():
        for variant in _mutants(text, path, rng, 80):
            model = _model({**files, path: variant})
            if model is not None and model.functions:
                check_dataflow(model)
                checked += 1
    assert checked >= 15
