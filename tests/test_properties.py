"""Cross-cutting invariants not tied to a single operation."""

import json

from conftest import parse_and_build, write_repo

from udgscan.enhance.summaries import FunctionSummary, build_alias_sets, compute_function_summary
from udgscan.harness.oracles import reaching_def_has_path
from udgscan.harness.scan import EXIT_ORACLE, ScanConfig, scan
from udgscan.reasoning.clients import MockInferenceClient
from udgscan.udg.cfg import build_cfg
from udgscan.udg.graph import DATA_DEPENDENCY


def test_summary_monotonicity_across_iterations(tmp_path):
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
    root = write_repo(tmp_path, {"S.java": src})
    model, g, _ = parse_and_build(root)
    members = sorted(model.functions)
    known = {
        fid: FunctionSummary(fid, {p: False for p in model.functions[fid].params})
        for fid in members
    }
    aliases = {fid: build_alias_sets(model.functions[fid], model) for fid in members}
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        for fid in members:
            before = dict(known[fid].phi)
            after = compute_function_summary(model.functions[fid], g, model, known, aliases[fid])
            for param, value in after.phi.items():
                # Monotone: bits only flip false -> true.
                assert not (before[param] and not value)
            if after.phi != before:
                known[fid] = after
                changed = True
        assert iterations < 10
    assert iterations <= 3  # converges quickly on a two-function cycle
    assert all(all(s.phi.values()) for s in known.values())


def test_every_data_edge_is_def_use_with_clean_path(el_repo, pruning_repo, reflect_repo):
    for repo in (el_repo, pruning_repo, reflect_repo):
        model, g, _ = parse_and_build(repo)
        for func in model.functions.values():
            nodes = [func.entry] + func.body + [func.exit]
            node_set = set(nodes)
            cfg = build_cfg(func, model)
            succs = {n: [] for n in nodes}
            for e in cfg:
                succs[e.src].append(e.dst)
            defs_of = {n: set(model.stmt(n).defs) for n in nodes}
            for e in g.edges_of(DATA_DEPENDENCY):
                if e.src in node_set and e.dst in node_set:
                    assert e.variable in model.stmt(e.src).defs
                    assert e.variable in model.stmt(e.dst).uses
                    assert reaching_def_has_path(succs, defs_of, e.src, e.dst, e.variable)


def test_graph_dump_format(el_repo):
    model, g, _ = parse_and_build(el_repo)
    lines = g.dump().splitlines()
    node_lines = [l for l in lines if l.startswith("NODE ")]
    edge_lines = [l for l in lines if l.startswith("EDGE ")]
    assert node_lines and edge_lines
    # NODE <id> <file>:<start>-<end> <kind>
    parts = node_lines[0].split()
    assert len(parts) == 4 and ":" in parts[2] and "-" in parts[2]
    # Stable ordering: sorted by (file, start_line, id); edges lexicographic.
    assert node_lines == sorted(
        node_lines,
        key=lambda l: (
            l.split()[2].split(":")[0],
            int(l.split()[2].split(":")[1].split("-")[0]),
            l.split()[1],
        ),
    )
    assert edge_lines == sorted(edge_lines)


def test_scan_exit_code_oracle_class(el_repo):
    # Every round unparseable -> undetermined finding -> oracle-fatal class.
    config = ScanConfig(repo=el_repo, oracle_mode="mock", n_rounds=3)
    client = MockInferenceClient(script=["prose", "prose", "prose"])
    result = scan(config, inference_client=client)
    assert result.findings[0].verdict == "undetermined"
    assert result.exit_code == EXIT_ORACLE


def test_report_json_is_sorted_and_stable(el_repo, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        scan(ScanConfig(repo=el_repo, oracle_mode="mock", out_dir=str(out)))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["stats"]["invocations"] == 1
