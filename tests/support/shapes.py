"""Adversarial input shapes: one-file repositories whose size is one number,
written from the loops that once made cost grow faster than the input.

Each generator returns `{path: source}` for `conftest.write_repo`.
"""

from __future__ import annotations


def extends_chain(n: int) -> dict[str, str]:
    """Classes `C0` … `C{n-1}`, each extending the next and declaring one
    method of its own."""
    classes = []
    for i in range(n):
        head = f"class C{i}" + (f" extends C{i + 1}" if i + 1 < n else "")
        classes.append(f"{head} {{\n    int m{i}(int x) {{\n        return x + {i};\n    }}\n}}")
    return {"p/Chain.java": "package p;\n" + "\n".join(classes) + "\n"}


def alias_group(n: int) -> dict[str, str]:
    """One method whose locals `a0` … `a{n-1}` each copy the parameter `q`,
    so all n + 1 share one alias group, and whose one SQL sink reads them
    all."""
    copies = "".join(f"        String a{i} = q;\n" for i in range(n))
    query = " + ".join(f"a{i}" for i in range(n))
    return {
        "p/Aliases.java": "package p;\nimport java.sql.Statement;\nclass Aliases {\n"
        f"    void run(Statement st, String q) throws Exception {{\n{copies}"
        f"        st.executeQuery({query});\n    }}\n}}\n"
    }


def override_chain(n: int) -> dict[str, str]:
    """Classes `C0` … `C{n-1}`, each extending the one before and overriding
    `m`, and each calling `m` on a `C0`: every call site dispatches to all n
    methods, so the call graph has n * n call edges."""
    classes = []
    for i in range(n):
        head = f"class C{i}" + (f" extends C{i - 1}" if i else "")
        classes.append(
            f"{head} {{\n"
            f"    int m(int x) {{\n        return x + {i};\n    }}\n"
            f"    int call{i}(C0 b) {{\n        return b.m({i});\n    }}\n}}"
        )
    return {"p/Overrides.java": "package p;\n" + "\n".join(classes) + "\n"}


def conditional_redefinitions(n: int) -> dict[str, str]:
    """One method `f(int p)` whose local `x` is defined once and then
    redefined under n conditions, each reading it.  Any condition may be
    false, so every definition reaches every later read of `x`: with the
    n reads of `p` the method has (n + 1)(n + 2) / 2 + n data edges."""
    branches = "".join(f"        if (p > {i}) {{\n            x = x + {i};\n        }}\n" for i in range(n))
    return {
        "p/Redefinitions.java": "package p;\nclass Redefinitions {\n    int f(int p) {\n"
        f"        int x = 0;\n{branches}        return x;\n    }}\n}}\n"
    }
