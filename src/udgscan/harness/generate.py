"""Seeded generators for differential-testing corpora."""

from __future__ import annotations

import random

from ..frontend.model import StatementNode
from ..udg.graph import CALL, CONTROL_FLOW, DATA_DEPENDENCY, UdgEdge, UnifiedDependencyGraph


def random_summary_program(
    seed: int, max_functions: int = 20, mixed_uses: bool = False, multi_declarators: bool = False
) -> str:
    """One class of int functions built from declarations, if/else blocks,
    and calls to previously generated functions.  No loops: the brute-force
    oracle's path enumeration is exact on this corpus.  With `mixed_uses`,
    half the calls also use one of their arguments outside the call,
    `a + f(a)`.  With `multi_declarators`, some declarations declare two
    variables, `int vK = e1, wK = e2;`, or `int vK, wK;` followed by an
    assignment to each, where `e2` may read `vK`.  Each option draws random
    numbers only when it is on."""
    rng = random.Random(seed)
    n = rng.randint(3, max_functions)
    lines = ["public class Gen {"]
    signatures: list[tuple[str, int]] = []
    for i in range(n):
        arity = rng.randint(1, 3)
        name = f"f{i}"
        params = [f"p{j}" for j in range(arity)]
        lines.append(f"    static int {name}({', '.join('int ' + p for p in params)}) {{")
        available = list(params)
        n_stmts = rng.randint(1, 5)
        for k in range(n_stmts):
            var = f"v{k}"
            expr = _random_expr(rng, available, signatures, mixed_uses)
            if multi_declarators and rng.random() < 0.4:
                second = f"w{k}"
                second_expr = _random_expr(rng, available + [var], signatures, mixed_uses)
                if rng.random() < 0.5:
                    lines.append(f"        int {var} = {expr}, {second} = {second_expr};")
                else:
                    lines.append(f"        int {var}, {second};")
                    lines.append(f"        {var} = {expr};")
                    lines.append(f"        {second} = {second_expr};")
                available += [var, second]
                continue
            if rng.random() < 0.25:
                then_expr = _random_expr(rng, available, signatures, mixed_uses)
                lines.append(f"        int {var} = {expr};")
                lines.append(f"        if ({available[0]} > 0) {{")
                lines.append(f"            {var} = {then_expr};")
                lines.append("        }")
            else:
                lines.append(f"        int {var} = {expr};")
            available.append(var)
        lines.append(f"        return {_random_expr(rng, available, signatures, mixed_uses)};")
        lines.append("    }")
        signatures.append((name, arity))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _random_expr(
    rng: random.Random, available: list[str], signatures: list[tuple[str, int]], mixed_uses: bool
) -> str:
    roll = rng.random()
    if roll < 0.25:
        return str(rng.randint(0, 99))
    if roll < 0.55 or not signatures:
        if rng.random() < 0.5 or len(available) < 2:
            return rng.choice(available)
        a, b = rng.sample(available, 2)
        return f"{a} + {b}"
    name, arity = rng.choice(signatures)
    args = [rng.choice(available) for _ in range(arity)]
    call = f"{name}({', '.join(args)})"
    if mixed_uses and rng.random() < 0.5:
        return f"{rng.choice(args)} + {call}"
    return call


RECURSIVE_TEMPLATES = [
    # Direct recursion with a base case depending on the parameter.
    """public class Gen {
    static int f0(int p0) {
        if (p0 > 0) {
            return f0(p0 - 1);
        }
        return p0;
    }
}
""",
    # Direct recursion returning a constant regardless of the parameter.
    """public class Gen {
    static int f0(int p0) {
        if (p0 > 0) {
            return f0(p0 - 1);
        }
        return 7;
    }
}
""",
    # Mutual recursion with a parameter-dependent base case.
    """public class Gen {
    static int f0(int p0) {
        if (p0 > 0) {
            return f1(p0 - 1);
        }
        return p0;
    }
    static int f1(int q0) {
        return f0(q0);
    }
}
""",
    # Mutual recursion whose base case ignores the parameter.
    """public class Gen {
    static int f0(int p0) {
        if (p0 > 0) {
            return f1(p0 - 1);
        }
        return 3;
    }
    static int f1(int q0) {
        return f0(q0);
    }
}
""",
    # Recursion feeding one parameter through and dropping another.
    """public class Gen {
    static int f0(int p0, int p1) {
        if (p0 > 0) {
            return f0(p0 - 1, p1);
        }
        return p0;
    }
    static int f1(int q0, int q1) {
        int t = f0(q0, q1);
        return t + q1;
    }
}
""",
]


def summary_corpus(count: int = 50, seed: int = 1234) -> list[str]:
    """At least `count` programs, the recursive templates included."""
    programs = list(RECURSIVE_TEMPLATES)
    i = 0
    while len(programs) < count:
        programs.append(random_summary_program(seed + i))
        i += 1
    return programs


# ----------------------------------------------------------- random graphs


def _mk_node(i: int) -> StatementNode:
    return StatementNode(
        id=f"n{i}",
        file="synthetic.java",
        start_line=i + 1,
        end_line=i + 1,
        kind="assignment",
        text=f"synthetic {i}",
        owner="synthetic",
    )


def random_udg(seed: int, max_nodes: int = 200) -> UnifiedDependencyGraph:
    rng = random.Random(seed)
    n = rng.randint(8, max_nodes)
    g = UnifiedDependencyGraph()
    for i in range(n):
        g.add_node(_mk_node(i))
    n_edges = rng.randint(n, 3 * n)
    for _ in range(n_edges):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        tau = rng.choice((CONTROL_FLOW, DATA_DEPENDENCY, CALL))
        var = f"v{rng.randrange(6)}" if tau == DATA_DEPENDENCY else None
        g.add_edge(UdgEdge(src=f"n{a}", dst=f"n{b}", tau=tau, variable=var))
    return g


def random_call_graph(seed: int, max_nodes: int = 50) -> dict[str, set[str]]:
    rng = random.Random(seed)
    n = rng.randint(3, max_nodes)
    adjacency: dict[str, set[str]] = {f"f{i}": set() for i in range(n)}
    n_edges = rng.randint(n, 3 * n)
    for _ in range(n_edges):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            adjacency[f"f{a}"].add(f"f{b}")
    return adjacency
