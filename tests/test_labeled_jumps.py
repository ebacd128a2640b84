"""Labeled break/continue reconstruction over a 20-case corpus.

Expected successors are hand-derived: continue lands on the loop's
next-iteration point (for/for-each update, while/do-while condition), break
on the statement immediately after the labeled construct (function exit when
the construct is last).  Where a label names the innermost loop around its
jump, the successor is also checked against the CFG edge of the same jump
written without the label.
"""

import re

import pytest

from conftest import write_repo

from udgscan.errors import DiagnosticSink
from udgscan.frontend import syntax as syn
from udgscan.frontend.parser import parse_repository
from udgscan.udg.cfg import build_cfg, resolve_label_targets

# (name, source, expectation) where expectation is ("line", lineno, kind) or ("exit",)
CASES = [
    (
        "for_continue_update",
        """package p;
class C1 {
    int m(int n) {
        int s = 0;
        outer: for (int i = 0; i < n; i = i + 1) {
            if (s > 10) {
                continue outer;
            }
            s = s + i;
        }
        return s;
    }
}
""",
        ("line", 5, "assignment"),
    ),
    (
        "foreach_continue_update",
        """package p;
class C2 {
    int m(int[] xs) {
        int s = 0;
        outer: for (int x : xs) {
            if (x < 0) {
                continue outer;
            }
            s = s + x;
        }
        return s;
    }
}
""",
        ("line", 5, "assignment"),
    ),
    (
        "while_continue_condition",
        """package p;
class C3 {
    int m(int n) {
        outer: while (n > 0) {
            n = n - 1;
            if (n == 3) {
                continue outer;
            }
        }
        return n;
    }
}
""",
        ("line", 4, "loop_header"),
    ),
    (
        "dowhile_continue_condition",
        """package p;
class C4 {
    int m(int n) {
        outer: do {
            n = n - 1;
            if (n == 3) {
                continue outer;
            }
        } while (n > 0);
        return n;
    }
}
""",
        ("line", 9, "loop_header"),
    ),
    (
        "while_break_trailing_statement",
        """package p;
class C5 {
    int m(int n) {
        outer: while (n > 0) {
            if (n == 2) {
                break outer;
            }
            n = n - 1;
        }
        int after = n;
        return after;
    }
}
""",
        ("line", 10, "declaration"),
    ),
    (
        "for_break_last_statement_exits",
        """package p;
class C6 {
    void m(int n) {
        last: for (int i = 0; i < n; i = i + 1) {
            if (i == 2) {
                break last;
            }
        }
    }
}
""",
        ("exit",),
    ),
    (
        "switch_break",
        """package p;
class C7 {
    int m(int n) {
        int out = 0;
        pick: switch (n) {
            case 1:
                out = 1;
                break pick;
            default:
                out = 2;
        }
        return out;
    }
}
""",
        ("line", 12, "return"),
    ),
    (
        "labeled_block_break",
        """package p;
class C8 {
    int m(int n) {
        int out = 0;
        scope: {
            if (n > 0) {
                break scope;
            }
            out = 5;
        }
        return out;
    }
}
""",
        ("line", 11, "return"),
    ),
    (
        "nested_continue_outer_for",
        """package p;
class C9 {
    int m(int n) {
        int s = 0;
        outer: for (int i = 0; i < n; i = i + 1) {
            for (int j = 0; j < i; j = j + 1) {
                if (j == 1) {
                    continue outer;
                }
                s = s + j;
            }
        }
        return s;
    }
}
""",
        ("line", 5, "assignment"),
    ),
    (
        "nested_break_outer_while",
        """package p;
class C10 {
    int m(int n) {
        outer: while (n > 0) {
            while (n > 1) {
                break outer;
            }
            n = n - 1;
        }
        return n;
    }
}
""",
        ("line", 10, "return"),
    ),
    (
        "break_from_if_in_loop",
        """package p;
class C11 {
    int m(int n) {
        int s = 0;
        loop: while (n > 0) {
            if (n == 5) {
                break loop;
            }
            n = n - 1;
        }
        s = n;
        return s;
    }
}
""",
        ("line", 11, "assignment"),
    ),
    (
        "continue_dowhile_from_nested_for",
        """package p;
class C12 {
    int m(int n) {
        again: do {
            for (int i = 0; i < n; i = i + 1) {
                if (i == 1) {
                    continue again;
                }
            }
            n = n - 1;
        } while (n > 0);
        return n;
    }
}
""",
        ("line", 11, "loop_header"),
    ),
    (
        "foreach_break",
        """package p;
class C13 {
    int m(int[] xs) {
        int s = 0;
        scan: for (int x : xs) {
            if (x == 0) {
                break scan;
            }
            s = s + x;
        }
        return s;
    }
}
""",
        ("line", 11, "return"),
    ),
    (
        "break_labeled_last_in_outer_loop_walks_up",
        """package p;
class C14 {
    int m(int n) {
        while (n > 0) {
            inner: for (int i = 0; i < n; n = n - 1) {
                if (i == 2) {
                    break inner;
                }
            }
        }
        return n;
    }
}
""",
        ("line", 4, "loop_header"),
    ),
    (
        "for_without_update_continues_to_condition",
        """package p;
class C15 {
    int m(int n) {
        step: for (int i = 0; i < n;) {
            if (i > 2) {
                continue step;
            }
            i = i + 1;
        }
        return n;
    }
}
""",
        ("line", 4, "loop_header"),
    ),
    (
        "continue_outer_from_switch",
        """package p;
class C16 {
    int m(int n) {
        outer: while (n > 0) {
            switch (n) {
                case 1:
                    continue outer;
                default:
                    n = n - 2;
            }
            n = n - 1;
        }
        return n;
    }
}
""",
        ("line", 4, "loop_header"),
    ),
    (
        "break_three_levels",
        """package p;
class C17 {
    int m(int n) {
        top: for (int i = 0; i < n; i = i + 1) {
            for (int j = 0; j < i; j = j + 1) {
                while (n > 5) {
                    break top;
                }
            }
        }
        return n;
    }
}
""",
        ("line", 11, "return"),
    ),
    (
        "break_middle_of_two_labels",
        """package p;
class C18 {
    int m(int n) {
        int s = 0;
        a: for (int i = 0; i < n; i = i + 1) {
            b: for (int j = 0; j < i; j = j + 1) {
                if (j == 1) {
                    break b;
                }
            }
            s = s + 1;
        }
        return s;
    }
}
""",
        ("line", 11, "assignment"),
    ),
    (
        "labeled_block_last_exits",
        """package p;
class C19 {
    void m(int n) {
        tail: {
            if (n > 0) {
                break tail;
            }
            n = n + 1;
        }
    }
}
""",
        ("exit",),
    ),
    (
        "continue_in_if_while",
        """package p;
class C20 {
    int m(int n) {
        spin: while (n > 0) {
            n = n - 1;
            if (n == 1) {
                continue spin;
            }
            n = n - 2;
        }
        return n;
    }
}
""",
        ("line", 4, "loop_header"),
    ),
]


def resolve_single(tmp_path, source):
    root = write_repo(tmp_path, {"Case.java": source})
    model = parse_repository(root, DiagnosticSink())
    targets = resolve_label_targets(model, DiagnosticSink())
    assert len(targets) == 1, "each corpus case carries exactly one labeled jump"
    return model, targets[0]


@pytest.mark.parametrize("name,source,expect", CASES, ids=[c[0] for c in CASES])
def test_labeled_jump_resolution(tmp_path, name, source, expect):
    model, target = resolve_single(tmp_path, source)
    func = next(f for f in model.functions.values())
    succ = model.stmt(target.resolved_successor)
    if expect[0] == "exit":
        assert target.resolved_successor == func.exit
    else:
        _, line, kind = expect
        assert (succ.start_line, succ.kind) == (line, kind)


def test_corpus_size():
    assert len(CASES) == 20


def test_unresolved_label_reported(tmp_path):
    source = """package p;
class Bad {
    int m(int n) {
        while (n > 0) {
            break missing;
        }
        return n;
    }
}
"""
    from udgscan.errors import DiagnosticSink

    root = write_repo(tmp_path, {"Bad.java": source})
    model = parse_repository(root, DiagnosticSink())
    diags = DiagnosticSink()
    targets = resolve_label_targets(model, diags)
    assert targets == []
    assert any("missing" in d.message for d in diags.items)


def test_continue_targeting_non_loop_reported(tmp_path):
    source = """package p;
class Bad2 {
    int m(int n) {
        blockLabel: {
            if (n > 0) {
                continue blockLabel;
            }
        }
        return n;
    }
}
"""
    from udgscan.errors import DiagnosticSink

    root = write_repo(tmp_path, {"Bad2.java": source})
    model = parse_repository(root, DiagnosticSink())
    diags = DiagnosticSink()
    targets = resolve_label_targets(model, diags)
    assert targets == []
    assert any("iteration construct" in d.message for d in diags.items)


def test_break_lands_on_an_empty_infinite_loop_where_the_cfg_enters_it(tmp_path):
    # The for has no init, condition or body statement: control enters it at
    # its update, so that is the statement after the labeled block.
    source = """package p;
class Spin {
    void m(int n) {
        int i = 0;
        L: {
            if (n > 0) {
                break L;
            }
            n = 1;
        }
        for (;; i = i + 1) { }
    }
}
"""
    model, target = resolve_single(tmp_path, source)
    succ = model.stmt(target.resolved_successor)
    assert (succ.start_line, succ.kind, succ.defs) == (11, "assignment", {"i"})


NESTED_LOOPS = """package p;
class Nest {
    int loops(int n, int[] xs) {
        int s = 0;
        a: for (int i = 0; i < n; i = i + 1) {
            b: while (s < n) {
                if (s == 3) {
                    continue b;
                }
                if (s == 4) {
                    break b;
                }
                if (s == 5) {
                    break a;
                }
                s = s + 1;
            }
            c: for (int x : xs) {
                if (x < 0) {
                    continue c;
                }
                try {
                    if (x == 9) {
                        break c;
                    }
                } finally {
                    s = s + x;
                }
            }
            if (s > 100) {
                continue a;
            }
        }
        d: do {
            switch (s) {
                case 1:
                    continue d;
                case 2:
                    break d;
                default:
                    s = s - 1;
            }
            e: for (;;) {
                if (s > 5) {
                    break e;
                }
                s = s + 2;
            }
        } while (s > 0);
        f: for (int j = 0; ; j = j + 1) {
            if (j > n) {
                break f;
            }
        }
        return s;
    }
}
"""
LOOPS = (syn.While, syn.DoWhile, syn.For, syn.ForEach)


def _children(stmt) -> list:
    if isinstance(stmt, syn.Block):
        return stmt.stmts
    if isinstance(stmt, syn.If):
        return stmt.then + stmt.orelse
    if isinstance(stmt, LOOPS):
        return stmt.body
    if isinstance(stmt, syn.Switch):
        return [s for _, case_stmts in stmt.cases for s in case_stmts]
    if isinstance(stmt, syn.Try):
        return stmt.body + [s for c in stmt.catches for s in c] + stmt.finally_
    return []


def innermost_loop_jumps(stmt, enclosing=(), label=None):
    """The labeled jumps under `stmt` whose label names the construct an
    unlabeled jump of the same kind would leave, when that construct is a
    loop: the innermost loop for a continue, the innermost loop or switch
    for a break.  `enclosing` holds (label, is_loop) of the loops and
    switches around `stmt`, innermost last."""
    if isinstance(stmt, syn.Jump):
        if stmt.label:
            left = [e for e in enclosing if e[1] or stmt.kind == "break"]
            if left and left[-1] == (stmt.label, True):
                yield stmt.node
        return
    if isinstance(stmt, syn.Labeled):
        if stmt.inner is not None:
            yield from innermost_loop_jumps(stmt.inner, enclosing, stmt.label)
        return
    if isinstance(stmt, (syn.Switch, *LOOPS)):
        enclosing = (*enclosing, (label, isinstance(stmt, LOOPS)))
    for child in _children(stmt):
        yield from innermost_loop_jumps(child, enclosing)


def without_labels(source: str, model, jumps: list[str]) -> str:
    """`source` with the label dropped from each of `jumps`."""
    lines = source.split("\n")
    for jump in jumps:
        n = model.stmt(jump).start_line - 1
        lines[n] = re.sub(r"\b(break|continue) \w+;", r"\1;", lines[n])
    return "\n".join(lines)


def check_against_unlabeled(tmp_path, source) -> list[str]:
    """Assert that each labeled jump to its innermost loop resolves to the
    one CFG successor of the same jump without its label; return the
    jumps checked."""
    labeled = parse_repository(write_repo(tmp_path / "labeled", {"Case.java": source}), DiagnosticSink())
    jumps = [j for body in labeled.bodies.values() for stmt in body for j in innermost_loop_jumps(stmt)]
    plain = parse_repository(write_repo(tmp_path / "plain", {"Case.java": without_labels(source, labeled, jumps)}), DiagnosticSink())
    successors: dict[str, list[str]] = {}
    for func in plain.functions.values():
        for e in build_cfg(func, plain):
            if e.src in jumps:
                successors.setdefault(e.src, []).append(e.dst)
    resolved = {t.jump: [t.resolved_successor] for t in resolve_label_targets(labeled, DiagnosticSink()) if t.jump in jumps}
    assert resolved == successors
    assert sorted(resolved) == sorted(jumps)
    return jumps


@pytest.mark.parametrize("name,source,expect", CASES, ids=[c[0] for c in CASES])
def test_a_label_naming_the_innermost_loop_lands_where_the_unlabeled_jump_does(tmp_path, name, source, expect):
    check_against_unlabeled(tmp_path, source)


def test_nested_loops_land_where_their_unlabeled_jumps_do(tmp_path):
    jumps = check_against_unlabeled(tmp_path, NESTED_LOOPS)
    # every labeled jump but `break a` (from inside b) and `break d` (from
    # inside the switch)
    assert len(jumps) == 8


def test_targets_and_errors_come_in_source_order(tmp_path):
    # The CFG builder wires each statement list from its end; what it finds
    # is reported in the order the jumps are written.
    source = NESTED_LOOPS.replace(
        "        return s;\n",
        "        if (s > 1) {\n            break gone;\n        }\n        if (s > 2) {\n            continue f;\n        }\n"
        "        return s;\n",
    )
    from udgscan.errors import DiagnosticSink

    model = parse_repository(write_repo(tmp_path, {"Case.java": source}), DiagnosticSink())
    diags = DiagnosticSink()
    lines = [model.stmt(t.jump).start_line for t in resolve_label_targets(model, diags)]
    assert lines == [8, 11, 14, 20, 24, 31, 37, 39, 45, 52]
    assert [(d.line, d.message) for d in diags.items] == [
        (56, "label gone has no enclosing construct"),
        (59, "label f has no enclosing construct"),
    ]
