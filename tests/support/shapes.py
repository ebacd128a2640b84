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
