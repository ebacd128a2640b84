"""The context stage's per-graph memo tables: a context does not depend on
which contexts were built before it, memoized slices and contexts agree
with the reachability oracles and with the uncached code, any change to the
graph drops what was memoized, and the memo dies with its graph."""

import gc
import json
import os
import random
import weakref

import pytest

from conftest import FIXTURES, write_repo
from support import shapes

from udgscan.context.holistic import holistic_context
from udgscan.context.implicit import _closest_global, _resolved, definition_context, usage_context
from udgscan.context.slicing import ContextSlice, _ordered, control_slice, data_slice, merge_slices
from udgscan.frontend.model import RETURN_VAR, StatementNode
from udgscan.udg.calls import function_of_entry
from udgscan.harness.generate import random_summary_program, random_udg
from udgscan.harness.oracles import control_slice_oracle, data_slice_oracle
from udgscan.harness.scan import ScanConfig, scan
from udgscan.udg.graph import (
    CALL,
    CONTROL_FLOW,
    DATA_DEPENDENCY,
    UdgEdge,
    UnifiedDependencyGraph,
    is_external,
    make_external_node,
)

FIXTURE_NAMES = sorted(os.listdir(FIXTURES))
SLICES = ("data", "control", "explicit", "usage", "definition", "declaration")
TIGHT_BUDGET = 40


def _summary_repo(tmp_path, seed):
    """One generated class, with user sinks on its first two methods."""
    root = write_repo(tmp_path, {"p/Gen.java": "package p;\n" + random_summary_program(seed)})
    sinks = tmp_path / "sinks.json"
    sinks.write_text(
        json.dumps({"sinks": [{"function": f"Gen.f{i}", "cwe_id": "CWE-94"} for i in (0, 1)]}),
        encoding="utf-8",
    )
    return root, str(sinks)


def _snapshot(ctx):
    out = {
        name: (sl.statements, sl.depths)
        for name in SLICES
        for sl in [getattr(ctx, name)]
    }
    out.update(
        all=ctx.all,
        rendered=ctx.rendered,
        rendered_lines=ctx.rendered_lines,
        dropped=ctx.dropped,
    )
    return out


def _assert_order_free(result, config):
    """Every context of the scan equals the one built on a fresh copy of the
    graph, with the invocations taken in reverse order."""
    fresh = result.graph.copy()
    for ctx in reversed(list(result.contexts.values())):
        [again] = holistic_context(
            fresh,
            result.model,
            [ctx.invocation],
            hop_limit=config.hop_limit,
            token_budget=config.token_budget,
        )
        assert _snapshot(again) == _snapshot(ctx), ctx.invocation.id
    return sum(ctx.dropped for ctx in result.contexts.values())


@pytest.mark.parametrize("budget", [None, TIGHT_BUDGET])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_contexts_do_not_depend_on_invocation_order(name, budget):
    config = ScanConfig(repo=os.path.join(FIXTURES, name), oracle_mode="mock")
    if budget is not None:
        config.token_budget = budget
    _assert_order_free(scan(config), config)


@pytest.mark.parametrize("budget", [None, TIGHT_BUDGET])
def test_generated_contexts_do_not_depend_on_invocation_order(tmp_path, budget):
    contexts = dropped = 0
    for seed in range(50):
        root, sinks = _summary_repo(tmp_path / str(seed), seed)
        config = ScanConfig(repo=root, oracle_mode="mock", sink_path=sinks)
        if budget is not None:
            config.token_budget = budget
        result = scan(config)
        contexts += len(result.contexts)
        dropped += _assert_order_free(result, config)
    assert contexts > 50
    # The tight budget drops statements, so the drop order is compared too.
    assert (dropped > 0) == (budget is not None)


def _assert_layered_is_one_at_a_time(result, config, rng):
    """The contexts one call builds layer by layer over every invocation of
    the scan, on a fresh copy of the graph, equal those of one call per
    invocation, in shuffled order, on another fresh copy.  Returns the
    statements dropped."""
    invocations = [ctx.invocation for ctx in result.contexts.values()]
    budgets = dict(hop_limit=config.hop_limit, token_budget=config.token_budget)
    layered = holistic_context(result.graph.copy(), result.model, invocations, **budgets)
    assert [ctx.invocation for ctx in layered] == invocations
    fresh = result.graph.copy()
    for i in rng.sample(range(len(invocations)), len(invocations)):
        [single] = holistic_context(fresh, result.model, [invocations[i]], **budgets)
        assert _snapshot(single) == _snapshot(layered[i]), invocations[i].id
    return sum(ctx.dropped for ctx in layered)


@pytest.mark.parametrize("budget", [None, TIGHT_BUDGET])
def test_layer_order_builds_what_one_invocation_at_a_time_does(tmp_path, budget):
    rng = random.Random(0)
    contexts = dropped = 0
    configs = [ScanConfig(repo=os.path.join(FIXTURES, name)) for name in FIXTURE_NAMES]
    for seed in range(50):
        root, sinks = _summary_repo(tmp_path / str(seed), seed)
        configs.append(ScanConfig(repo=root, sink_path=sinks))
    for config in configs:
        if budget is not None:
            config.token_budget = budget
        result = scan(config)
        contexts += len(result.contexts)
        dropped += _assert_layered_is_one_at_a_time(result, config, rng)
    assert contexts > 50
    assert (dropped > 0) == (budget is not None)


def test_scan_slices_equal_the_oracles():
    for name in FIXTURE_NAMES:
        result = scan(ScanConfig(repo=os.path.join(FIXTURES, name), oracle_mode="mock"))
        g = result.graph
        for ctx in result.contexts.values():
            sid = ctx.invocation.statement
            assert ctx.data is data_slice(g, g.nodes[sid], "both")
            assert set(ctx.data.statements) == data_slice_oracle(g, sid, "both")
            assert set(ctx.control.statements) == control_slice_oracle(g, sid, 3)


def _context_and_sink():
    result = scan(ScanConfig(repo=os.path.join(FIXTURES, "el_template_validation"), oracle_mode="mock"))
    ctx = next(iter(result.contexts.values()))
    return result, ctx, result.graph.nodes[ctx.invocation.statement]


def test_adding_and_removing_an_edge_changes_the_next_slice():
    result, ctx, sink = _context_and_sink()
    g = result.graph
    outside = sorted(sid for sid in g.nodes if sid not in ctx.control.statements and not is_external(sid))
    far = outside[0]

    edge = UdgEdge(far, sink.id, DATA_DEPENDENCY, variable="planted")
    assert g.add_edge(edge)
    backward = data_slice(g, sink, "backward")
    assert far in backward.statements and backward.depths[far] == 1
    assert set(data_slice(g, sink, "both").statements) == data_slice_oracle(g, sink.id, "both")
    assert far in holistic_context(g, result.model, [ctx.invocation])[0].explicit.statements
    assert g.remove_edges({edge}) == [edge]
    assert far not in data_slice(g, sink, "backward").statements
    assert data_slice(g, sink, "both").statements == ctx.data.statements

    edge = UdgEdge(sink.id, far, CONTROL_FLOW)
    assert g.add_edge(edge)
    assert far in control_slice(g, sink).statements
    assert set(control_slice(g, sink).statements) == control_slice_oracle(g, sink.id, 3)
    g.remove_edges({edge})
    assert control_slice(g, sink).statements == ctx.control.statements
    assert holistic_context(g, result.model, [ctx.invocation])[0].all == ctx.all


def test_an_edge_is_its_own_key():
    """`add_edge` refuses an equal edge built again, and `remove_edges`
    takes edges and plain 4-tuples alike, returning the stored edges; each
    removal drops the memo."""
    result, ctx, sink = _context_and_sink()
    g = result.graph
    outside = sorted(sid for sid in g.nodes if sid not in ctx.data.statements and not is_external(sid))
    far, other = outside[0], outside[1]
    edge = UdgEdge(far, sink.id, DATA_DEPENDENCY, "planted")
    assert g.add_edge(edge)
    assert not g.add_edge(UdgEdge(far, sink.id, DATA_DEPENDENCY, variable="planted"))
    assert list(g.edges).count(edge) == 1 and g.in_edges(sink.id).count(edge) == 1
    second = UdgEdge(other, sink.id, DATA_DEPENDENCY, "planted")
    assert g.add_edge(second)
    sl = data_slice(g, sink, "backward")
    removed = g.remove_edges([(far, sink.id, DATA_DEPENDENCY, "planted"), UdgEdge(*second)])
    assert removed == [edge, second] and removed[0] is edge and removed[1] is second
    assert type(removed[0]) is UdgEdge
    assert data_slice(g, sink, "backward") is not sl
    assert far not in data_slice(g, sink, "backward").statements
    assert g.remove_edges([tuple(edge), second]) == []


def test_only_a_change_drops_the_memo():
    result, ctx, sink = _context_and_sink()
    g = result.graph
    sl = data_slice(g, sink, "both")
    present = next(iter(g.edges))
    assert not g.add_edge(present)  # already stored: nothing changed
    assert g.remove_edges({("no", "such", DATA_DEPENDENCY, None)}) == []
    assert data_slice(g, sink, "both") is sl
    g.add_node(sink)
    assert data_slice(g, sink, "both") is not sl


def test_an_id_outside_the_graph_sorts_by_its_statement():
    """A statement the graph does not hold, as a global statement is not in
    the original graph, takes its place by its own file and line."""
    g = random_udg(3, max_nodes=20)
    first = min(g.nodes.values(), key=StatementNode.sort_key)
    last = max(g.nodes.values(), key=StatementNode.sort_key)
    outside = {
        "aa": StatementNode("aa", last.file, last.end_line + 1, last.end_line + 1, "global_def", "", "global"),
        "zz": StatementNode("zz", first.file, 0, 0, "global_def", "", "global"),
    }
    ordered = _ordered(g, [*outside, *g.nodes], outside)
    assert ordered == ["zz", *_ref_ordered(g, g.nodes), "aa"]
    assert ordered == _ref_ordered(g, [*g.nodes, *outside], outside)


def test_the_memo_dies_with_its_graph():
    result = scan(ScanConfig(repo=os.path.join(FIXTURES, "el_template_validation"), oracle_mode="mock"))
    assert result.contexts
    graph = weakref.ref(result.graph)
    del result
    gc.collect()
    assert graph() is None


# ------------------------------------------- the uncached code, as a judge
#
# Copies of the slicing and implicit-context code before it was memoized:
# every call recomputes everything from the graph.


def _ref_ordered(g, ids, statements=None):
    return sorted(ids, key=lambda sid: (g.nodes[sid] if sid in g.nodes else statements[sid]).sort_key())


def ref_data_slice(g, s, direction="both"):
    depths = {s.id: 0}
    for mode in ["forward", "backward"] if direction == "both" else [direction]:
        local = {s.id: 0}
        work = [(s.id, 0)]
        while work:
            cur, d = work.pop(0)
            edges = g.out_edges(cur, DATA_DEPENDENCY) if mode == "forward" else g.in_edges(cur, DATA_DEPENDENCY)
            for e in edges:
                nxt = e.dst if mode == "forward" else e.src
                if nxt not in local or local[nxt] > d + 1:
                    local[nxt] = d + 1
                    work.append((nxt, d + 1))
        for sid, d in local.items():
            depths[sid] = min(depths.get(sid, d), d)
    return ContextSlice(_ref_ordered(g, set(depths)), depths)


def ref_control_slice(g, s, hop_limit=3):
    best, depths = {}, {s.id: 0}
    for mode in ("forward", "backward"):
        hops, steps, work = {s.id: 0}, {s.id: 0}, [s.id]
        while work:
            cur = work.pop(0)
            if is_external(cur):
                continue
            edges = g.out_edges(cur) if mode == "forward" else g.in_edges(cur)
            for e in sorted(edges, key=lambda e: (e.dst if mode == "forward" else e.src)):
                if e.tau not in (CONTROL_FLOW, CALL):
                    continue
                nxt = e.dst if mode == "forward" else e.src
                nh = hops[cur] + (1 if e.tau == CALL else 0)
                if nh > hop_limit:
                    continue
                if nxt not in hops or hops[nxt] > nh:
                    hops[nxt] = nh
                    steps[nxt] = steps[cur] + 1
                    work.append(nxt)
        for sid, h in hops.items():
            best[sid] = min(best.get(sid, h), h)
            depths[sid] = min(depths.get(sid, steps[sid]), steps[sid])
    return ContextSlice(_ref_ordered(g, set(best)), depths)


def ref_merge_slices(g, slices):
    ids, depths = set(), {}
    for sl in slices:
        ids.update(sl.statements)
        for sid, d in sl.depths.items():
            depths[sid] = min(depths.get(sid, d), d)
    return ContextSlice(_ref_ordered(g, ids), depths)


def ref_usage_context(g, model, c_e):
    pieces, seen = [], set()
    for sid in c_e.statements:
        stmt = g.nodes.get(sid)
        if stmt is None or not stmt.calls or stmt.synthetic:
            continue
        for e in sorted(g.out_edges(sid, CALL), key=lambda e: e.dst):
            dst = g.nodes.get(e.dst)
            if dst is None or is_external(e.dst) or e.dst in seen:
                continue
            seen.add(e.dst)
            if function_of_entry(model, e.dst) is not None:
                pieces.append(ref_data_slice(g, dst, "forward"))
    return ref_merge_slices(g, pieces)


def ref_definition_context(g, model, base_ids):
    v_def, v_use = set(), {}
    for sid in base_ids:
        stmt = g.nodes.get(sid)
        if stmt is None:
            continue
        v_def.update(d for d in stmt.defs if d != RETURN_VAR)
        for u in stmt.uses:
            v_use.setdefault(u, []).append(sid)
    pieces, extra = [], set()
    for name in sorted(v_use):
        if _resolved(name, v_def):
            continue
        for use_sid in sorted(v_use[name]):
            stmt = g.nodes.get(use_sid)
            if [e for e in g.in_edges(use_sid, DATA_DEPENDENCY) if e.variable == name]:
                pieces.append(ref_data_slice(g, stmt, "backward"))
                continue
            candidates = model.global_defs.get(name[5:] if name.startswith("this.") else name, [])
            if not candidates:
                continue
            chosen = _closest_global(model, stmt, candidates)
            extra.add(chosen)
            if chosen in g.nodes:
                pieces.append(ref_data_slice(g, g.nodes[chosen], "backward"))
    ids = (set(ref_merge_slices(g, pieces).statements) | extra) - set(base_ids)
    return ContextSlice(_ref_ordered(g, ids, model.statements))


def _parts(sl):
    return sl.statements, sl.depths


def _assert_as_uncached(result):
    """Each context's slices equal the uncached code's, given the same inputs."""
    g, model = result.graph, result.model
    for ctx in result.contexts.values():
        sink = g.nodes[ctx.invocation.statement]
        assert _parts(ctx.data) == _parts(ref_data_slice(g, sink))
        assert _parts(ctx.control) == _parts(ref_control_slice(g, sink))
        assert _parts(ctx.explicit) == _parts(ref_merge_slices(g, [ctx.data, ctx.control]))
        assert _parts(ctx.usage) == _parts(ref_usage_context(g, model, ctx.explicit))
        base = ref_merge_slices(g, [ctx.explicit, ctx.usage]).statements
        assert _parts(ctx.definition) == _parts(ref_definition_context(g, model, base))
        assert _parts(usage_context(g, model, ctx.explicit)) == _parts(ctx.usage)
        assert _parts(definition_context(g, model, base)) == _parts(ctx.definition)


# One statement uses a parameter (`x`), a field of its class (`limit`) and a
# field nothing declares (`this.gone`): the three outcomes of a definition
# lookup, for one use statement.
MIXED_USES = {
    "p/Mixed.java": """package p;
class Mixed {
    int limit = 4;
    int run(int x) {
        int y = x + limit + this.gone;
        int z = Runtime.exec(y, x);
        return z;
    }
}
""",
}


def test_contexts_match_the_uncached_code(tmp_path):
    results = [scan(ScanConfig(repo=os.path.join(FIXTURES, name), oracle_mode="mock")) for name in FIXTURE_NAMES]
    for seed in range(50):
        root, sinks = _summary_repo(tmp_path / str(seed), seed)
        results.append(scan(ScanConfig(repo=root, oracle_mode="mock", sink_path=sinks)))
    mixed_sinks = tmp_path / "mixed.json"
    mixed_sinks.write_text(json.dumps({"sinks": [{"function": "Runtime.exec", "cwe_id": "CWE-78"}]}), encoding="utf-8")
    mixed = scan(ScanConfig(repo=write_repo(tmp_path / "mixed", MIXED_USES), oracle_mode="mock", sink_path=str(mixed_sinks)))
    (ctx,) = mixed.contexts.values()
    # `this.gone` is defined nowhere, so only `limit`'s definition is added.
    assert [mixed.model.stmt(sid).defs for sid in ctx.definition.statements] == [{"limit"}]
    for result in [*results, mixed]:
        _assert_as_uncached(result)


@pytest.mark.parametrize("seed", range(20))
def test_memoized_slices_of_random_graphs(seed):
    """Each memoized slice is returned again as the same object, equals the
    uncached code's and agrees with the reachability oracle; merging
    memoized slices equals the uncached merge."""
    g = random_udg(seed, max_nodes=60)
    slices = []
    for sid in sorted(g.nodes, reverse=bool(seed % 2)):
        node = g.nodes[sid]
        for direction in ("forward", "backward", "both"):
            sl = data_slice(g, node, direction)
            assert data_slice(g, node, direction) is sl
            assert _parts(sl) == _parts(ref_data_slice(g, node, direction))
            assert set(sl.statements) == data_slice_oracle(g, sid, direction)
            slices.append(sl)
        for limit in (0, 1, 3):
            sl = control_slice(g, node, limit)
            assert control_slice(g, node, limit) is sl
            assert _parts(sl) == _parts(ref_control_slice(g, node, limit))
            assert set(sl.statements) == control_slice_oracle(g, sid, limit)
            slices.append(sl)
    for i in range(0, len(slices), 3):
        window = slices[i : i + 7]
        assert _parts(merge_slices(g, window)) == _parts(ref_merge_slices(g, window))


# ---------------------------------------- depths and hops past any sentinel


def chain_udg(seed: int, n: int = 150) -> UnifiedDependencyGraph:
    """Statements `n0` … `n{n-1}` in a chain of data edges and of control
    edges, every fifth of them a call edge, so depths run to n - 1 and hops
    to n // 5; plus n // 10 random back edges of each type among the last
    two thirds, which close cycles but shorten no path from `n0` and lead
    back to none of the first third, and one external node with an edge in
    and an edge out."""
    rng = random.Random(seed)
    g = UnifiedDependencyGraph()
    for i in range(n):
        g.add_node(StatementNode(f"n{i}", "chain.java", i + 1, i + 1, "assignment", f"s{i}", "chain"))
    external = make_external_node("sink", 1)
    g.add_node(external)
    for i in range(n - 1):
        g.add_edge(UdgEdge(f"n{i}", f"n{i + 1}", CALL if i % 5 == 4 else CONTROL_FLOW))
        g.add_edge(UdgEdge(f"n{i}", f"n{i + 1}", DATA_DEPENDENCY, "v"))
    for tau in (CONTROL_FLOW, CALL, DATA_DEPENDENCY):
        for _ in range(n // 10):
            b, a = sorted(rng.sample(range(n // 3, n), 2))
            g.add_edge(UdgEdge(f"n{a}", f"n{b}", tau, "w" if tau == DATA_DEPENDENCY else None))
    g.add_edge(UdgEdge(f"n{n // 2}", external.id, CALL))
    g.add_edge(UdgEdge(external.id, f"n{n // 3}", CONTROL_FLOW))
    return g


@pytest.mark.parametrize("seed", range(2))
def test_slices_of_a_long_chain_equal_the_uncached_code(seed):
    """Every node's memoized slices on `chain_udg`, whose depths and hop
    counts pass 100, equal the uncached code's and agree with the
    reachability oracles, at hop limits 0, 1, 3 and 150."""
    g = chain_udg(seed)
    assert max(data_slice(g, g.nodes["n0"], "forward").depths.values()) == 149
    for sid, node in g.nodes.items():
        for direction in ("forward", "backward", "both"):
            sl = data_slice(g, node, direction)
            assert _parts(sl) == _parts(ref_data_slice(g, node, direction))
            assert set(sl.statements) == data_slice_oracle(g, sid, direction)
        for limit in (0, 1, 3, 150):
            sl = control_slice(g, node, limit)
            assert _parts(sl) == _parts(ref_control_slice(g, node, limit))
            assert set(sl.statements) == control_slice_oracle(g, sid, limit)
    assert max(control_slice(g, g.nodes["n0"], 150).depths.values()) > 100


def test_many_sinks_contexts_equal_the_uncached_code(tmp_path):
    """The many-sinks shape at n = 150, where control-slice steps pass 100."""
    result = scan(ScanConfig(repo=write_repo(tmp_path, shapes.many_sinks(150)), oracle_mode="mock"))
    assert len(result.contexts) == 150
    assert max(max(ctx.control.depths.values()) for ctx in result.contexts.values()) > 100
    _assert_as_uncached(result)
