"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines.
"""

import json
import time

from conftest import enhance, parse_and_build, write_repo
from test_labeled_jumps import CASES as JUMP_CASES
from support.slicing import explicit_context, lines_of

from udgscan.context.holistic import holistic_context
from udgscan.context.sinks import find_sensitive_invocations
from udgscan.context.slicing import control_slice, data_slice
from udgscan.context.implicit import declaration_context, definition_context, usage_context
from udgscan.enhance.oracle import MockResolutionOracle
from udgscan.enhance.order import compute_analysis_order, tarjan_scc
from udgscan.enhance.passes import enhance_polymorphic_calls, enhance_reflective_calls
from udgscan.enhance.summaries import compute_all_summaries
from udgscan.errors import DiagnosticSink, OracleParseError
from udgscan.frontend.parser import parse_repository
from udgscan.harness.generate import random_call_graph, random_udg, summary_corpus
from udgscan.harness.oracles import (
    brute_force_summary_oracle,
    control_slice_oracle,
    data_slice_oracle,
    scc_reachability_oracle,
)
from udgscan.harness.rename import adversarial_rename
from udgscan.harness.metrics import compute_pairwise
from udgscan.harness.scan import ScanConfig, scan
from udgscan.knowledge import load_starter_kb
from udgscan.reasoning.clients import MockInferenceClient
from udgscan.transcript import Recorder, Replay
from udgscan.udg.calls import function_of_entry, is_reflective_invocation
from udgscan.udg.cfg import resolve_label_targets
from udgscan.udg.graph import CALL, DATA_DEPENDENCY, is_external


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _enhanced(repo, audit=None):
    model, g, diags = parse_and_build(repo)
    result = enhance(model, g, MockResolutionOracle(), diags, audit)
    return model, g, result


def test_criterion_1_context_golden(el_repo):
    start = time.monotonic()
    model, _, result = _enhanced(el_repo)
    g_e = result.graph
    kb = load_starter_kb()
    inv = find_sensitive_invocations(g_e, model, kb)[0]
    sink = g_e.nodes[inv.statement]

    c_e = explicit_context(g_e, sink)
    assert lines_of(g_e.nodes, c_e.statements) == {8, 9, 10, 11}
    c_use = usage_context(g_e, model, c_e)
    assert lines_of(g_e.nodes, c_use.statements) == set(range(26, 32))
    c_def = definition_context(g_e, model, c_e.statements + c_use.statements)
    assert lines_of(g_e.nodes, c_def.statements) == {4} | set(range(18, 25))
    c_decl = declaration_context(c_e.statements + c_use.statements + c_def.statements, model)
    assert lines_of(model.statements, c_decl.statements) == {1, 17, 33}
    ctx = holistic_context(g_e, model, [inv])[0]
    assert set(ctx.rendered_lines["TemplateValidator.java"]) == set(range(1, 5)) | set(range(8, 34))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"explicit/use/def/decl/holistic line sets exact on the sanitizer fixture ({elapsed:.2f}s)")


def test_criterion_2_reflective_edge_via_transcript(reflect_repo, tmp_path):
    start = time.monotonic()
    # Record a transcript from the deterministic mock, then replay it.
    model0, g0, _ = parse_and_build(reflect_repo)
    recorder = Recorder(MockResolutionOracle(), "site")
    enhance(model0, g0, recorder, DiagnosticSink())
    transcript = tmp_path / "resolution.jsonl"
    transcript.write_text("".join(recorder.lines()), encoding="utf-8")

    model, g_o, diags = parse_and_build(reflect_repo)
    display = next(f for f in model.functions.values() if f.name == "display")
    display_search = next(f for f in model.functions.values() if f.name == "displaySearch")
    invoke_stmt = next(
        s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls)
    )
    assert invoke_stmt.owner == display.id
    # Without enhancement the edge does not exist.
    assert not g_o.has_edge(invoke_stmt.id, display_search.entry, CALL)
    result = enhance(model, g_o, Replay(str(transcript), "site"), diags)
    assert result.graph.has_edge(invoke_stmt.id, display_search.entry, CALL)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"reflective invocation resolves to displaySearch through a scripted transcript ({elapsed:.2f}s)")


def test_criterion_3_majority_vote_clears_sanitized_sink(el_repo):
    votes = json.dumps({"explanation": "escape() neutralizes the template", "is_vulnerable": False})
    config = ScanConfig(repo=el_repo, oracle_mode="mock", n_rounds=3)
    result = scan(config, inference_client=MockInferenceClient(script=[votes, votes, votes]))
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.cwe == "CWE-74"
    assert finding.verdict == "not_vulnerable"
    assert finding.confidence == 1.0
    report(3, "three false votes aggregate to a non-vulnerable verdict at confidence 1.0")


# Pairwise columns of the effectiveness/ablation table (test set and whole
# dataset), plus a negative-score robustness row.
PAIRWISE_ROWS = [
    (0.25, 0.20), (0.16, 0.12), (0.20, 0.15), (0.24, 0.07), (0.09, 0.02),
    (0.04, 0.01), (0.07, 0.02), (0.30, 0.25), (0.25, 0.03), (0.23, 0.04),
    (0.08, 0.02), (0.13, 0.03), (0.58, 0.00), (0.59, 0.01), (0.44, 0.02),
    (0.30, 0.03), (0.35, 0.01), (0.36, 0.01), (0.38, 0.01), (0.26, 0.02),
    (0.28, 0.02), (0.30, 0.02), (0.53, 0.02), (0.55, 0.02),
    (0.10, 0.48),  # adversarial robustness row: p_c < p_r, score -0.38
]


def test_criterion_4_pairwise_identity():
    for p_c, p_r in PAIRWISE_ROWS:
        n_c = round(p_c * 100)
        n_r = round(p_r * 100)
        pairs = [(1, 0)] * n_c + [(0, 1)] * n_r + [(1, 1)] * (100 - n_c - n_r)
        got_c, got_r, got_s = compute_pairwise(pairs)
        assert abs(got_c - p_c) < 1e-9
        assert abs(got_r - p_r) < 1e-9
        assert abs(got_s - (p_c - p_r)) < 1e-9
    neg = compute_pairwise([(0, 1)] * 48 + [(1, 0)] * 10 + [(1, 1)] * 42)
    assert neg[2] < 0
    report(4, f"VP-S = P-C - P-R holds to 1e-9 on {len(PAIRWISE_ROWS)} synthesized rows incl. a negative score")


def test_criterion_5_labeled_jump_corpus(tmp_path):
    assert len(JUMP_CASES) == 20
    successes = 0
    for i, (name, source, expect) in enumerate(JUMP_CASES):
        root = write_repo(tmp_path / name if hasattr(tmp_path, "__truediv__") else tmp_path, {"Case.java": source})
        model = parse_repository(root, DiagnosticSink())
        targets = resolve_label_targets(model, DiagnosticSink())
        assert len(targets) == 1
        target = targets[0]
        func = next(iter(model.functions.values()))
        if expect[0] == "exit":
            assert target.resolved_successor == func.exit
        else:
            succ = model.stmt(target.resolved_successor)
            assert (succ.start_line, succ.kind) == (expect[1], expect[2])
        successes += 1
    assert successes == 20
    report(5, "20/20 labeled-jump successors match the hand-derived targets")


def test_criterion_6_summary_oracle_equivalence(tmp_path):
    start = time.monotonic()
    programs = summary_corpus(count=50)
    assert len(programs) >= 50
    recursive_count = 5  # the dedicated recursion templates lead the corpus
    checked = 0
    for i, src in enumerate(programs):
        root = write_repo(tmp_path / f"prog{i}", {"Gen.java": src})
        model, g, _ = parse_and_build(root)
        assert len(model.functions) <= 20
        order = compute_analysis_order(g, model)
        summaries = compute_all_summaries(g, model, order)
        for fid, func in model.functions.items():
            oracle_phi = brute_force_summary_oracle(model, func, depth_k=4)
            assert summaries[fid].phi == oracle_phi, f"program {i} {func.name}"
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"{checked} summaries across {len(programs)} programs (>= {recursive_count} recursive) match the inlining oracle ({elapsed:.1f}s)")


def test_criterion_7_slice_closure_equivalence():
    graphs = 0
    for seed in range(100):
        g = random_udg(seed, max_nodes=200)
        node_ids = sorted(g.nodes)
        starts = {node_ids[0], node_ids[len(node_ids) // 2], node_ids[-1]}
        for start in starts:
            for direction in ("forward", "backward", "both"):
                mine = set(data_slice(g, g.nodes[start], direction).statements)
                assert mine == data_slice_oracle(g, start, direction)
            for limit in (0, 2, 3):
                mine = set(control_slice(g, g.nodes[start], limit).statements)
                assert mine == control_slice_oracle(g, start, limit)
        graphs += 1
    assert graphs == 100
    report(7, "data/control slices equal brute-force closures on 100 random graphs")


def test_criterion_8_scc_order_soundness():
    for seed in range(100):
        adjacency = random_call_graph(seed)
        components = tarjan_scc(adjacency)
        mine = {frozenset(c) for c in components}
        oracle = set(scc_reachability_oracle(adjacency))
        assert mine == oracle
        comp_index = {}
        for i, comp in enumerate(components):
            for member in comp:
                comp_index[member] = i
        for caller, callees in adjacency.items():
            for callee in callees:
                if comp_index[caller] != comp_index[callee]:
                    assert comp_index[callee] < comp_index[caller]
    report(8, "SCC partitions match the reachability oracle and respect bottom-up order on 100 graphs")


def test_criterion_9_pruning_audit(pruning_repo):
    audit = []
    model, g_o, result = _enhanced(pruning_repo, audit)
    g_e = result.graph
    summaries = result.summaries
    removed = [(a.src, a.dst, a.variable) for a in audit if a.op == "remove" and a.tau == DATA_DEPENDENCY]
    assert len(removed) > 0  # removal-dominant on fixtures with ignored parameters
    enhanced_keys = set(g_e.edges)
    # Bit-exact replay: walk every in-repo call site and recompute keep/remove.
    for stmt in model.statements.values():
        if not stmt.calls or stmt.synthetic:
            continue
        for site in stmt.calls:
            for e in g_o.out_edges(stmt.id, CALL):
                callee = function_of_entry(model, e.dst)
                if callee is None or callee.name != site.name or callee.arity != site.arity:
                    continue
                phi = summaries[callee.id].phi
                for i, arg_vars in enumerate(site.arg_vars):
                    if i >= len(callee.params):
                        continue
                    expected_keep = phi[callee.params[i]]
                    for var in arg_vars:
                        others = set(stmt.uses) - {var}
                        appearances = [
                            j for j, av in enumerate(site.arg_vars) if var in av
                        ]
                        if len(appearances) > 1 or var in others - set().union(*site.arg_vars):
                            continue  # var plays another role in the statement
                        present = any(
                            key
                            for key in enhanced_keys
                            if key[1] == stmt.id and key[2] == DATA_DEPENDENCY and key[3] == var
                        )
                        other_roles = var in (set(stmt.uses) - set().union(*site.arg_vars)) or (
                            site.receiver == var
                        )
                        if expected_keep or other_roles:
                            assert present, f"{var} at {stmt.id} should be kept"
                        else:
                            assert not present, f"{var} at {stmt.id} should be pruned"
    for src, dst, var in removed:
        assert (src, dst, DATA_DEPENDENCY, var) not in enhanced_keys
    report(9, f"{len(removed)} pruned edges all map to false summary bits; kept edges to true bits")


def test_criterion_10_rename_isomorphism(tmp_path, el_repo, dispatch_repo, pruning_repo):
    for idx, repo in enumerate((el_repo, dispatch_repo, pruning_repo)):
        out_dir = tmp_path / f"renamed{idx}"
        diags = DiagnosticSink()
        mapping = adversarial_rename(repo, "vulnerable", str(out_dir), diags)
        model_a, _, result_a = _enhanced(repo)
        model_b, _, result_b = _enhanced(str(out_dir))
        g_a, g_b = result_a.graph, result_b.graph

        def node_keys(g):
            return sorted(
                (n.file, n.start_line, n.end_line, n.kind)
                for n in g.nodes.values()
                if not is_external(n.id)
            )

        assert node_keys(g_a) == node_keys(g_b)
        mapped_edges = {
            (e.src, e.dst, e.tau, mapping.get(e.variable, e.variable))
            for e in g_a.edges
            if not is_external(e.dst) and not is_external(e.src)
        }
        plain_edges = {
            (e.src, e.dst, e.tau, e.variable)
            for e in g_b.edges
            if not is_external(e.dst) and not is_external(e.src)
        }
        assert mapped_edges == plain_edges

        # Holistic contexts correspond statement-for-statement (line sets are
        # unchanged by the rename).
        kb = load_starter_kb()
        sinks_a = find_sensitive_invocations(g_a, model_a, kb)
        sinks_b = find_sensitive_invocations(g_b, model_b, kb)
        assert len(sinks_a) == len(sinks_b)
        for inv_a, inv_b in zip(sinks_a, sinks_b):
            ctx_a = holistic_context(g_a, model_a, [inv_a])[0]
            ctx_b = holistic_context(g_b, model_b, [inv_b])[0]
            assert ctx_a.rendered_lines == ctx_b.rendered_lines
            assert len(ctx_a.all) == len(ctx_b.all)
    report(10, "renamed repos yield 1:1-corresponding graphs and contexts on three fixtures")


def test_criterion_11_determinism(el_repo, tmp_path):
    transcripts = tmp_path / "transcripts"
    seed_cfg = ScanConfig(
        repo=el_repo, oracle_mode="mock", transcript_dir=str(transcripts),
        out_dir=str(tmp_path / "seed"), dump_context=True,
    )
    scan(seed_cfg)
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        cfg = ScanConfig(
            repo=el_repo, oracle_mode="replay", transcript_dir=str(transcripts),
            out_dir=str(out), dump_context=True,
        )
        result = scan(cfg)
        assert result.exit_code == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]
    report(11, "replayed scans produce byte-identical reports")


class _FaultyOracle:
    def __init__(self, mode):
        self.mode = mode

    def complete(self, prompt, site=""):
        if self.mode == "garbage":
            return "no structured answer here"
        if self.mode == "wrong_schema":
            return json.dumps({"verdict": "sure"})
        if self.mode == "empty_list":
            return json.dumps({"feasible_targets": []})
        if self.mode == "unknown_names":
            if "polymorphic" in prompt:
                return json.dumps({"feasible_targets": ["Ghost.phantom(int)"]})
            if "which class is accessed" in prompt:
                return json.dumps({"target_class": "GhostClass"})
            return json.dumps({"target_method": "phantomMethod"})
        if self.mode == "raises":
            raise OracleParseError("injected failure")
        raise AssertionError(self.mode)


FAULT_MODES = ["garbage", "wrong_schema", "empty_list", "unknown_names", "raises"]


def test_criterion_12_fail_conservative(dispatch_repo, reflect_repo):
    model_d, g_d, _ = parse_and_build(dispatch_repo)
    enhance_polymorphic_calls(g_d, MockResolutionOracle(), model_d, DiagnosticSink(), [])
    correct_call_edges = set(g_d.edges_of(CALL))
    for mode in FAULT_MODES:
        model, g, diags = parse_and_build(dispatch_repo)
        enhance_polymorphic_calls(g, _FaultyOracle(mode), model, diags, [])
        faulty_edges = set(g.edges_of(CALL))
        assert faulty_edges >= correct_call_edges, mode

    model_r, g_r, _ = parse_and_build(reflect_repo)
    invoke_stmt = next(
        s for s in model_r.statements.values() if any(c.name == "invoke" for c in s.calls)
    )
    for mode in FAULT_MODES:
        model, g, diags = parse_and_build(reflect_repo)
        inv_stmt = next(
            s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls)
        )
        enhance_reflective_calls(g, _FaultyOracle(mode), model, diags, [])
        remaining = g.out_edges(inv_stmt.id, CALL)
        assert remaining, f"{mode}: reflective edge silently dropped"
        site = next(c for c in inv_stmt.calls if c.name == "invoke")
        assert is_reflective_invocation(site), mode
        assert f"external:invoke/{site.arity}" in {e.dst for e in remaining}, mode
    report(12, f"{len(FAULT_MODES)}-mode fault matrix: polymorphic supersets hold, reflective edges degrade to external")
