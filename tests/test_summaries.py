import time

import pytest

from conftest import parse_and_build, write_repo

from udgscan.enhance.order import compute_analysis_order
from udgscan.enhance.passes import reconstruct_labeled_jumps
from udgscan.enhance.prune import prune_data_edges
from udgscan.enhance.summaries import build_alias_sets, compute_all_summaries
from udgscan.errors import DiagnosticSink
from udgscan.harness.generate import random_summary_program, summary_corpus
from udgscan.harness.oracles import brute_force_summary_oracle
from udgscan.udg.calls import site_targets
from udgscan.udg.cfg import resolve_label_targets
from udgscan.udg.graph import DATA_DEPENDENCY


def summarize(root_or_repo, tmp_path=None, files=None):
    root = root_or_repo if files is None else write_repo(tmp_path, files)
    model, g, _ = parse_and_build(root)
    reconstruct_labeled_jumps(g, resolve_label_targets(model, DiagnosticSink()), model, [])
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    return model, g, summaries


def phi_by_name(model, summaries):
    out = {}
    for fid, summary in summaries.items():
        out[model.functions[fid].name] = summary.phi
    return out


def test_identity_function(tmp_path):
    src = """package p;
class S {
    static int id(int x) {
        return x;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    assert phi_by_name(model, summaries)["id"] == {"x": True}


def test_two_params_one_used(tmp_path):
    src = """package p;
class S {
    static int k(int x, int y) {
        int t = x;
        return t * 2;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    assert phi_by_name(model, summaries)["k"] == {"x": True, "y": False}


def test_callee_summary_applied(tmp_path):
    src = """package p;
class S {
    static int g(int y) {
        return 5;
    }
    static int f(int x, int y) {
        int r = g(y) + x;
        return r;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    phis = phi_by_name(model, summaries)
    assert phis["g"] == {"y": False}
    assert phis["f"] == {"x": True, "y": False}


def test_external_call_taints_all_args(tmp_path):
    src = """package p;
class S {
    static int f(int x, int y) {
        int r = Helper.mix(x, y);
        return r;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    assert phi_by_name(model, summaries)["f"] == {"x": True, "y": True}


def test_based_recursion_fixed_point(tmp_path):
    src = """package p;
class S {
    static int f(int x) {
        if (x > 0) {
            return g(x - 1);
        }
        return x;
    }
    static int g(int y) {
        return f(y);
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    phis = phi_by_name(model, summaries)
    assert phis["f"] == {"x": True}
    assert phis["g"] == {"y": True}


def test_constant_returning_recursion(tmp_path):
    # Factorial-style shape whose result never depends on the parameter.
    src = """package p;
class S {
    static int f(int n) {
        if (n > 0) {
            return f(n - 1);
        }
        return 7;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    assert phi_by_name(model, summaries)["f"] == {"n": False}


def test_alias_set_broadcast(tmp_path):
    src = """package p;
class S {
    static String f(String x, String y) {
        String a = y;
        String b = a;
        b = x;
        return a;
    }
}
"""
    model, g, summaries = summarize(None, tmp_path, {"S.java": src})
    func = next(iter(model.functions.values()))
    aliases = build_alias_sets(func, model)
    assert aliases.of("a") == aliases.of("b")
    # The aliased write through b reaches a's taint set.
    assert phi_by_name(model, summaries)["f"]["x"] is True


def test_summary_keys_equal_params(tmp_path):
    src = """package p;
class S {
    static int f(int a, int b, int c) {
        return b;
    }
}
"""
    model, _, summaries = summarize(None, tmp_path, {"S.java": src})
    phi = phi_by_name(model, summaries)["f"]
    assert set(phi) == {"a", "b", "c"}


def test_reconstructed_jump_feeds_taint(tmp_path):
    # Without the reconstructed labeled-continue edge, the tainted write is
    # disconnected from the loop header and the summary would drop x.
    src = """package p;
class S {
    static int f(int x, int n) {
        int acc = 0;
        outer: while (n > 0) {
            n = n - 1;
            if (n == 1) {
                acc = x;
                continue outer;
            }
        }
        return acc;
    }
}
"""
    model, g, summaries = summarize(None, tmp_path, {"S.java": src})
    assert phi_by_name(model, summaries)["f"] == {"x": True, "n": False}


@pytest.mark.parametrize("program_index", range(12))
def test_pipeline_matches_oracle_sample(tmp_path, program_index):
    programs = summary_corpus(count=12)
    src = programs[program_index]
    model, g, summaries = summarize(None, tmp_path, {"Gen.java": src})
    for fid, func in model.functions.items():
        oracle_phi = brute_force_summary_oracle(model, func, depth_k=4)
        assert summaries[fid].phi == oracle_phi, f"{func.name}: {summaries[fid].phi} != {oracle_phi}"


def test_mixed_uses_match_the_oracle():
    """Programs whose calls also use an argument outside the call, `a + f(a)`:
    the pipeline's summaries equal the brute-force oracle's on seeds 0-99."""
    from udgscan.frontend.model import RepoModel
    from udgscan.frontend.parser import parse_source
    from udgscan.udg.build import assemble_original_udg

    mixed = 0
    for seed in range(100):
        model = RepoModel(root="")
        assert parse_source("Gen.java", random_summary_program(seed, mixed_uses=True), model, DiagnosticSink())
        g = assemble_original_udg(model)
        summaries = compute_all_summaries(g, model, compute_analysis_order(g, model))
        for fid, func in model.functions.items():
            assert summaries[fid].phi == brute_force_summary_oracle(model, func), (seed, func.name)
        for stmt in model.statements.values():
            mixed += any(stmt.outside_uses & arg for site in stmt.calls for arg in site.arg_vars)
    assert mixed >= 100


def test_multi_declarators_match_the_oracle():
    """Programs whose declarations declare two variables, `int v = e1, w =
    e2;` and `int v, w;` with an assignment to each: the pipeline's
    summaries equal the brute-force oracle's on seeds 0-59."""
    from udgscan.frontend.model import RepoModel
    from udgscan.frontend.parser import parse_source
    from udgscan.udg.build import assemble_original_udg

    shapes = {"split": 0, "joined": 0}
    for seed in range(60):
        model = RepoModel(root="")
        text = random_summary_program(seed, multi_declarators=True)
        assert parse_source("Gen.java", text, model, DiagnosticSink())
        g = assemble_original_udg(model)
        summaries = compute_all_summaries(g, model, compute_analysis_order(g, model))
        for fid, func in model.functions.items():
            assert summaries[fid].phi == brute_force_summary_oracle(model, func), (seed, func.name)
        for stmt in model.statements.values():
            if len(stmt.defs) == 2:
                shapes["joined" if "=" in stmt.code else "split"] += 1
    assert min(shapes.values()) >= 50


def test_recursion_depth_stability(tmp_path):
    programs = summary_corpus(count=5)
    for src in programs[:5]:
        root = write_repo(tmp_path, {"Gen.java": src})
        model, g, _ = parse_and_build(root)
        for func in model.functions.values():
            answers = {
                k: tuple(sorted(brute_force_summary_oracle(model, func, depth_k=k).items()))
                for k in (2, 3, 4)
            }
            assert answers[2] == answers[3] == answers[4]
        for f in (root + "/Gen.java",):
            import os

            os.remove(f)


# ---------------------------------------------------------------- pruning


def test_prune_keeps_and_removes(pruning_repo):
    model, g, _ = parse_and_build(pruning_repo)
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    call_stmt = next(
        s for s in model.statements.values() if any(c.name == "keepFirst" for c in s.calls)
    )
    before = {e.variable for e in g.in_edges(call_stmt.id, DATA_DEPENDENCY)}
    assert before == {"a", "b"}
    prune_data_edges(g, summaries, model, [])
    after = {e.variable for e in g.in_edges(call_stmt.id, DATA_DEPENDENCY)}
    assert after == {"a"}  # keepFirst ignores its second parameter
    # b's other use (the return) keeps its own edge.
    ret = next(
        s
        for s in model.statements.values()
        if s.kind == "return" and "r + b" in s.text
    )
    assert {e.variable for e in g.in_edges(ret.id, DATA_DEPENDENCY)} == {"r", "b"}


def test_all_identity_callees_zero_removals(pruning_repo):
    model, g, _ = parse_and_build(pruning_repo)
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    clean_calls = [
        s for s in model.statements.values() if any(c.name == "identity" for c in s.calls)
    ]
    assert clean_calls
    before = {s.id: set(g.in_edges(s.id, DATA_DEPENDENCY)) for s in clean_calls}
    prune_data_edges(g, summaries, model, [])
    for stmt in clean_calls:
        assert set(g.in_edges(stmt.id, DATA_DEPENDENCY)) == before[stmt.id]


def test_removals_strictly_positive_with_audit(pruning_repo):
    from udgscan.enhance.passes import AuditEntry

    model, g, _ = parse_and_build(pruning_repo)
    order = compute_analysis_order(g, model)
    summaries = compute_all_summaries(g, model, order)
    audit: list[AuditEntry] = []
    before = set(g.edges)
    prune_data_edges(g, summaries, model, audit=audit)
    removed = [a for a in audit if a.op == "remove" and a.tau == DATA_DEPENDENCY]
    assert len(removed) > 0
    # Bit-exact replay: every removed edge maps to a false summary bit, every
    # kept interprocedural arg edge to a true one.
    after = set(g.edges)
    assert before - after == {(a.src, a.dst, a.tau, a.variable) for a in removed}
    assert len(before) - len(after) == len(removed)


def test_corpus_runtime_budget(tmp_path):
    start = time.monotonic()
    programs = summary_corpus(count=10)
    for i, src in enumerate(programs):
        root = write_repo(tmp_path / f"p{i}" if hasattr(tmp_path, "__truediv__") else tmp_path, {"Gen.java": src})
        model, g, _ = parse_and_build(root)
        order = compute_analysis_order(g, model)
        summaries = compute_all_summaries(g, model, order)
        for fid, func in model.functions.items():
            assert summaries[fid].phi == brute_force_summary_oracle(model, func)
    assert time.monotonic() - start < 30


def test_one_callee_called_twice_prunes_both_argument_edges(tmp_path):
    src = """package p;
class A {
    static int g(int v) {
        return 1;
    }
    static int s() {
        int a = 2;
        int b = 3;
        int x = g(a) + g(b);
        return x;
    }
}
"""
    model, g, summaries = summarize(None, tmp_path, {"A.java": src})
    stmt = next(s for s in model.statements.values() if s.start_line == 9)
    callee = next(f for f in model.functions.values() if f.name == "g")
    assert summaries[callee.id].phi == {"v": False}
    assert site_targets(g, model, stmt) == {0: [callee.entry], 1: [callee.entry]}
    assert {e.variable for e in g.in_edges(stmt.id, DATA_DEPENDENCY)} == {"a", "b"}
    audit = []
    prune_data_edges(g, summaries, model, audit=audit)
    assert {e.variable for e in g.in_edges(stmt.id, DATA_DEPENDENCY)} == set()
    assert sorted(a.variable for a in audit) == ["a", "b"]


RECEIVER_AND_ARGUMENT = """package p;
class B {
    int v;
    int m(B p) {
        return this.v;
    }
    static int g(B x) {
        int y = x.m(x);
        return y;
    }
    static int h(B z) {
        int w = g(z);
        return w;
    }
}
"""


def test_receiver_passed_as_argument_reaches_the_value(tmp_path):
    """`x.m(x)`: `m`'s parameter does not reach its return, but its receiver
    `x` does, so `g` depends on `x` and the `z` edge into `w = g(z)` stays."""
    import json

    from udgscan.harness.scan import ScanConfig, scan

    root = write_repo(tmp_path, {"B.java": RECEIVER_AND_ARGUMENT})
    model, g, summaries = summarize(root)
    phis = phi_by_name(model, summaries)
    assert phis["m"] == {"p": False}
    assert phis["g"] == {"x": True}
    func_g = next(f for f in model.functions.values() if f.name == "g")
    assert brute_force_summary_oracle(model, func_g) == {"x": True}

    call = next(s for s in model.statements.values() if s.start_line == 12)
    prune_data_edges(g, summaries, model, [])
    assert {e.variable for e in g.in_edges(call.id, DATA_DEPENDENCY)} == {"z"}

    out = tmp_path / "out"
    scan(ScanConfig(repo=root, out_dir=str(out)))
    with open(out / "audit.jsonl", encoding="utf-8") as fh:
        removals = [json.loads(line) for line in fh]
    assert not [a for a in removals if a["op"] == "remove" and a["dst"] == call.id]


MIXED_USE = (
    "package p; class A { static int f(int a) { return 1; } "
    "static int g(int x) { int y = x + f(x); return y; } }\n"
)


def test_use_inside_and_outside_call_arguments_reaches_the_value(tmp_path):
    """`x + f(x)`: `f`'s parameter does not reach its return, but the `x`
    outside the arguments does, so `g` depends on `x` and no edge is pruned."""
    from udgscan.harness.scan import ScanConfig, scan

    root = write_repo(tmp_path, {"p/A.java": MIXED_USE})
    model, g, summaries = summarize(root)
    stmt = next(s for s in model.statements.values() if s.code.startswith("int y"))
    assert (stmt.uses, stmt.outside_uses, stmt.calls[0].arg_vars) == ({"x"}, {"x"}, [{"x"}])
    phis = phi_by_name(model, summaries)
    assert (phis["f"], phis["g"]) == ({"a": False}, {"x": True})
    func_g = next(f for f in model.functions.values() if f.name == "g")
    assert brute_force_summary_oracle(model, func_g) == {"x": True}

    audit = []
    prune_data_edges(g, summaries, model, audit=audit)
    assert audit == []
    assert {e.variable for e in g.in_edges(stmt.id, DATA_DEPENDENCY)} == {"x"}
    assert scan(ScanConfig(repo=root)).report["stats"]["enhancement"] == {}
