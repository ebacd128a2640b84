import random

import pytest

from conftest import parse_and_build, write_repo
from support.cfg import unreachable_nodes

from udgscan.errors import DiagnosticSink
from udgscan.frontend.parser import parse_repository
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.harness.generate import random_udg
from udgscan.harness.oracles import reaching_def_has_path
from udgscan.udg.calls import build_call_graph, is_reflective_invocation
from udgscan.udg.cfg import build_cfg
from udgscan.udg.ddg import build_ddg
from udgscan.udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, EDGE_TYPES, UdgEdge, UnifiedDependencyGraph, is_external


def _single_function(model):
    return next(iter(model.functions.values()))


def _stmt_at(model, line, kind=None):
    hits = [
        s
        for s in model.statements.values()
        if s.start_line == line and not s.synthetic and (kind is None or s.kind == kind)
    ]
    assert hits, f"no statement at line {line}"
    return hits[0]


def test_straight_line_cfg(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        int a = x;
        int b = a;
        return b;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    edges = build_cfg(func, model)
    chain = [func.entry] + func.body + [func.exit]
    expected = {(chain[i], chain[i + 1]) for i in range(len(chain) - 1)}
    assert {(e.src, e.dst) for e in edges} == expected


def test_while_loop_cfg(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        while (x > 0) {
            x = x - 1;
        }
        return x;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    edges = {(e.src, e.dst) for e in build_cfg(func, model)}
    cond = _stmt_at(model, 4, "loop_header").id
    body = _stmt_at(model, 5, "assignment").id
    ret = _stmt_at(model, 7, "return").id
    assert (cond, body) in edges
    assert (body, cond) in edges
    assert (cond, ret) in edges


def test_labeled_break_has_no_outgoing_edges(tmp_path):
    src = """package p;
class A {
    int m(int x) {
        outer: while (x > 0) {
            while (x > 1) {
                break outer;
            }
            x = x - 1;
        }
        return x;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    edges = build_cfg(func, model)
    [outer, _] = model.bodies[func.id]
    [[inner, _]] = [block.stmts for block in outer.inner.body]
    [[jump]] = [block.stmts for block in inner.body]
    assert (jump.kind, jump.label) == ("break", "outer")
    assert model.stmt(jump.node).kind == "jump"
    assert not [e for e in edges if e.src == jump.node]


def test_ddg_simple_chain(tmp_path):
    src = """package p;
class A {
    int m(int c) {
        int x = 1;
        int y = x;
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    cfg = build_cfg(func, model)
    ddg = build_ddg(func, model, cfg)
    x_def = _stmt_at(model, 4).id
    y_def = _stmt_at(model, 5).id
    assert any(e.src == x_def and e.dst == y_def and e.variable == "x" for e in ddg)


def test_ddg_both_branch_defs_reach(tmp_path):
    src = """package p;
class A {
    int m(int c) {
        int x = 1;
        if (c > 0) {
            x = 2;
        }
        int y = x;
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    cfg = build_cfg(func, model)
    ddg = build_ddg(func, model, cfg)
    y_def = _stmt_at(model, 8).id
    incoming = {e.src for e in ddg if e.dst == y_def and e.variable == "x"}
    assert incoming == {_stmt_at(model, 4).id, _stmt_at(model, 6).id}


def test_ddg_param_use_from_entry(tmp_path):
    src = """package p;
class A {
    int m(int p) {
        int y = p;
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    cfg = build_cfg(func, model)
    ddg = build_ddg(func, model, cfg)
    y_def = _stmt_at(model, 4).id
    assert any(e.src == func.entry and e.dst == y_def and e.variable == "p" for e in ddg)


def test_ddg_edges_match_path_oracle(tmp_path):
    src = """package p;
class A {
    int m(int c) {
        int x = 1;
        int y = 0;
        while (c > 0) {
            y = x + y;
            x = y;
            c = c - 1;
        }
        return y;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model = parse_repository(root, DiagnosticSink())
    func = _single_function(model)
    cfg = build_cfg(func, model)
    ddg = build_ddg(func, model, cfg)
    nodes = [func.entry] + func.body + [func.exit]
    succs = {n: [] for n in nodes}
    for e in cfg:
        succs[e.src].append(e.dst)
    defs_of = {n: set(model.stmt(n).defs) for n in nodes}
    # Soundness: every reported edge has a clean path.
    for e in ddg:
        assert reaching_def_has_path(succs, defs_of, e.src, e.dst, e.variable)
    # Completeness: every def-use pair with a clean path is reported.
    reported = {(e.src, e.dst, e.variable) for e in ddg}
    for d in nodes:
        for s in nodes:
            for v in defs_of[d] & set(model.stmt(s).uses):
                if reaching_def_has_path(succs, defs_of, d, s, v):
                    assert (d, s, v) in reported


def test_call_graph_polymorphic_fanout(dispatch_repo):
    model = parse_repository(dispatch_repo, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    edges, _ = build_call_graph(model, h)
    call_stmt = next(
        s for s in model.statements.values() if any(c.name == "id" for c in s.calls)
    )
    targets = {e.dst for e in edges if e.src == call_stmt.id}
    entries = {model.functions[f].entry: f for f in model.functions}
    names = {entries[t].rsplit("#", 1)[-1] for t in targets if t in entries}
    assert len(targets) == 2  # declared type plus the override


def test_call_graph_static_exact(pruning_repo):
    model = parse_repository(pruning_repo, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    edges, _ = build_call_graph(model, h)
    keep_first = next(f for f in model.functions.values() if f.name == "keepFirst")
    callers = [e.src for e in edges if e.dst == keep_first.entry]
    assert len(callers) == 1


def test_reflective_call_external_only(reflect_repo):
    model = parse_repository(reflect_repo, DiagnosticSink())
    h = build_type_hierarchy(model, DiagnosticSink())
    edges, externals = build_call_graph(model, h)
    invoke_stmt = next(
        s for s in model.statements.values() if any(c.name == "invoke" for c in s.calls)
    )
    display_search = next(f for f in model.functions.values() if f.name == "displaySearch")
    targets = {e.dst for e in edges if e.src == invoke_stmt.id}
    assert all(map(is_external, targets))
    site = next(c for c in invoke_stmt.calls if c.name == "invoke")
    assert is_reflective_invocation(site)
    assert f"external:invoke/{site.arity}" in targets
    assert display_search.entry not in targets


CLASS_LITERAL_CALL = """import java.lang.reflect.Method;
class A {
    Object getMethod(String n, Class c) { return n; }
    void run() {
        Method m = A.class.getMethod("go", String.class);
    }
}
"""


def test_call_on_a_class_literal_is_reflective_not_the_callers_method(tmp_path):
    model = parse_repository(write_repo(tmp_path, {"A.java": CLASS_LITERAL_CALL}), DiagnosticSink())
    edges, _ = build_call_graph(model, build_type_hierarchy(model, DiagnosticSink()))
    stmt = next(s for s in model.statements.values() if s.code.startswith("Method m ="))
    assert [(c.chain, c.receiver) for c in stmt.calls] == [("A.class.getMethod", None)]
    targets = [e.dst for e in edges if e.src == stmt.id]
    assert targets == ["external:getMethod/2"]
    assert not is_reflective_invocation(stmt.calls[0])  # a lookup invokes nothing


CHAINED_CALLS = """class Base { void stop() { } }
class Bar extends Base { void run() { } }
class Foo {
    static Bar make() { Bar b = new Bar(); return b; }
    void run() { }
    void stop() { }
    void go() { Foo.make().run(); }
    void go2() { new Bar().run(); }
    void go3() { new Bar().stop(); }
}
"""


def test_calls_chained_on_a_result_or_a_new_object(tmp_path):
    """A call on a call's result has no in-repository target: the result's
    type is unknown, not the class at the head of the chain.  A call on
    `new T(...)` goes to the method `T` declares or inherits, not to the
    caller's."""
    model = parse_repository(write_repo(tmp_path, {"Foo.java": CHAINED_CALLS}), DiagnosticSink())
    edges, _ = build_call_graph(model, build_type_hierarchy(model, DiagnosticSink()))
    entry = {f"{f.class_name}.{f.name}": f.entry for f in model.functions.values()}
    by_code = {s.code: s for s in model.statements.values()}

    def targets(code):
        return sorted(e.dst for e in edges if e.src == by_code[code].id)

    assert [(c.chain, c.receiver_type) for c in by_code["new Bar().run();"].calls] == [
        ("new Bar", None),
        ("new Bar().run", "Bar"),
    ]
    assert targets("Foo.make().run();") == sorted([entry["Foo.make"], "external:run/0"])
    assert targets("new Bar().run();") == [entry["Bar.run"]]
    assert targets("new Bar().stop();") == [entry["Base.stop"]]


def test_assemble_keeps_globals_out(el_repo):
    model, g, _ = parse_and_build(el_repo)
    kinds = {g.nodes[n].kind for n in g.nodes}
    assert "global_def" not in kinds and "package_decl" not in kinds
    # Conservative arg edges exist: both args of keepFirst-like calls feed the site.
    for e in g.edges:
        assert e.src in g.nodes and e.dst in g.nodes


def test_assemble_parameterless_no_interproc_data(tmp_path):
    src = """package p;
class A {
    static int zero() {
        return 0;
    }
    static int use() {
        int z = zero();
        return z;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g, _ = parse_and_build(root)
    call_stmt = next(
        s for s in model.statements.values() if any(c.name == "zero" for c in s.calls)
    )
    data_in = g.in_edges(call_stmt.id, DATA_DEPENDENCY)
    assert data_in == []


def test_conservative_arg_edges_present(pruning_repo):
    model, g, _ = parse_and_build(pruning_repo)
    call_stmt = next(
        s for s in model.statements.values() if any(c.name == "keepFirst" for c in s.calls)
    )
    vars_in = {e.variable for e in g.in_edges(call_stmt.id, DATA_DEPENDENCY)}
    assert vars_in == {"a", "b"}  # both argument defs feed the call site pre-pruning


def test_determinism_same_repo_same_dump(el_repo):
    _, g1, _ = parse_and_build(el_repo)
    _, g2, _ = parse_and_build(el_repo)
    assert g1.dump() == g2.dump()


def test_call_edges_land_on_entries_or_externals(el_repo, dispatch_repo):
    for repo in (el_repo, dispatch_repo):
        model, g, _ = parse_and_build(repo)
        entries = {f.entry for f in model.functions.values()}
        for e in g.edges_of(CALL):
            assert e.dst in entries or (is_external(e.dst) and e.dst in g.nodes)


def test_cfg_connectivity(el_repo):
    model, g, _ = parse_and_build(el_repo)
    for func in model.functions.values():
        cfg = [e for e in g.edges_of(CONTROL_FLOW)]
        assert unreachable_nodes(func, model, cfg) == []


def test_repeated_callee_in_one_statement_has_one_call_edge(tmp_path):
    src = """package p;
class A {
    static int f(int v) {
        return v;
    }
    static int s(int a, int b) {
        int x = f(a) + f(b);
        return x;
    }
}
"""
    root = write_repo(tmp_path, {"A.java": src})
    model, g, _ = parse_and_build(root)
    stmt = _stmt_at(model, 7)
    f = next(fn for fn in model.functions.values() if fn.name == "f")
    call_edges, _ = build_call_graph(model, model.hierarchy)
    assert [e.dst for e in call_edges if e.src == stmt.id] == [f.entry, f.entry]
    assert [e.dst for e in g.out_edges(stmt.id, CALL)] == [f.entry]
    assert g.dump().count(f"EDGE {stmt.id} {f.entry} call") == 1


# --------------------------------------------------- graph store vs a list


class ListGraph:
    """Reference store: a plain edge list, scanned in full by every query."""

    def __init__(self):
        self.edges: list[UdgEdge] = []

    def add_edge(self, edge):
        if edge in self.edges:
            return False
        self.edges.append(edge)
        return True

    def remove_edges(self, keys):
        present = {e: e for e in self.edges}
        self.edges = [e for e in self.edges if e not in keys]
        return [present[key] for key in keys if key in present]

    def out_edges(self, node, tau=None):
        return [e for e in self.edges if e.src == node and (tau is None or e.tau == tau)]

    def in_edges(self, node, tau=None):
        return [e for e in self.edges if e.dst == node and (tau is None or e.tau == tau)]

    def has_edge(self, src, dst, tau):
        return any(e.src == src and e.dst == dst and e.tau == tau for e in self.edges)


def _assert_same(g, ref, nodes, rng):
    assert list(g.edges) == ref.edges
    assert len(g.edges) == len(ref.edges)
    for tau in EDGE_TYPES:
        assert g.edges_of(tau) == [e for e in ref.edges if e.tau == tau]
    for n in nodes:
        for tau in (None, *EDGE_TYPES):
            assert g.out_edges(n, tau) == ref.out_edges(n, tau)
            assert g.in_edges(n, tau) == ref.in_edges(n, tau)
    for _ in range(20):
        src, dst, tau = rng.choice(nodes), rng.choice(nodes), rng.choice(EDGE_TYPES)
        assert g.has_edge(src, dst, tau) == ref.has_edge(src, dst, tau)
    for e in ref.edges[:20]:
        assert g.has_edge(e.src, e.dst, e.tau)


@pytest.mark.parametrize("seed", range(12))
def test_store_matches_list_reference(seed):
    rng = random.Random(seed)
    base = random_udg(seed, max_nodes=30)
    nodes = sorted(base.nodes)
    g = UnifiedDependencyGraph(nodes=dict(base.nodes))
    ref = ListGraph()
    for e in base.edges:
        assert g.add_edge(e) == ref.add_edge(e)
    _assert_same(g, ref, nodes, rng)

    def random_edge():
        tau = rng.choice(EDGE_TYPES)
        return UdgEdge(
            src=rng.choice(nodes),
            dst=rng.choice(nodes),
            tau=tau,
            variable=f"v{rng.randrange(3)}" if tau == DATA_DEPENDENCY else None,
        )

    for step in range(300):
        op = rng.random()
        if op < 0.45:
            edge = random_edge()
            assert g.add_edge(edge) == ref.add_edge(edge)
        elif op < 0.6 and ref.edges:
            # Re-adding a stored key, as an equal new edge, is refused.
            old = rng.choice(ref.edges)
            twin = UdgEdge(old.src, old.dst, old.tau, old.variable)
            assert g.add_edge(twin) is False and ref.add_edge(twin) is False
        else:
            keys = set(rng.sample(ref.edges, min(len(ref.edges), rng.randint(0, 4))))
            keys |= {tuple(random_edge()) for _ in range(rng.randint(0, 2))}
            assert g.remove_edges(keys) == ref.remove_edges(keys)
        if step % 25 == 0:
            _assert_same(g, ref, nodes, rng)
    _assert_same(g, ref, nodes, rng)
    copied = g.copy()
    _assert_same(copied, ref, nodes, rng)
    # The copy is independent of its source.
    copied.remove_edges(set(ref.edges))
    _assert_same(g, ref, nodes, rng)


def _adjacency(g):
    return (
        list(g.edges),
        {n: (g.out_edges(n), g.in_edges(n)) for n in g.nodes},
    )


@pytest.mark.parametrize("seed", range(6))
def test_copy_keeps_edge_order_and_is_independent(seed):
    rng = random.Random(seed)
    g = random_udg(seed, max_nodes=40)
    # Removing some edges and re-adding others leaves an insertion order that
    # no sort of the edges reproduces.
    edges = list(g.edges)
    gone = rng.sample(edges, len(edges) // 3)
    g.remove_edges(set(gone))
    for e in reversed(gone[: len(gone) // 2]):
        g.add_edge(e)
    g.rank()
    before = _adjacency(g)

    copied = g.copy()
    assert copied.nodes == g.nodes and copied.nodes is not g.nodes
    assert _adjacency(copied) == before
    assert copied.derived("rank") == {} and g.derived("rank")

    copied.remove_edges(set(rng.sample(list(copied.edges), len(copied.edges) // 2)))
    nodes = sorted(g.nodes)
    copied.add_edge(UdgEdge(nodes[0], nodes[1], CALL))
    assert _adjacency(g) == before
    assert _adjacency(copied) != before


def test_edge_is_an_immutable_hashable_record():
    edge = UdgEdge("a", "b", DATA_DEPENDENCY, variable="x")
    assert UdgEdge._fields == ("src", "dst", "tau", "variable")
    assert edge == UdgEdge(src="a", dst="b", tau=DATA_DEPENDENCY, variable="x")
    assert UdgEdge("a", "b", CALL).variable is None
    assert edge == ("a", "b", DATA_DEPENDENCY, "x") and hash(edge) == hash(("a", "b", DATA_DEPENDENCY, "x"))
    other = UdgEdge("a", "b", DATA_DEPENDENCY, "y")
    assert other != edge
    assert len({edge, UdgEdge("a", "b", DATA_DEPENDENCY, variable="x"), other}) == 2
    for name in UdgEdge._fields:
        with pytest.raises(AttributeError):
            setattr(edge, name, "changed")
    assert edge == UdgEdge("a", "b", DATA_DEPENDENCY, variable="x")
