"""One module knows how an external node's id is spelled: no module of
`src/udgscan` but `udg/graph.py` holds a string constant starting with
`external:`; the others build and test ids with `external_id` and
`is_external`."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "udgscan")
OWNER = os.path.join("udg", "graph.py")


def external_constants(source: str) -> list[int]:
    """The lines of `source`'s string constants (f-string parts included)
    that start with `external:`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("external:")
    ]


def test_only_the_graph_module_spells_an_external_id():
    found = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, PACKAGE)
            if not name.endswith(".py") or rel == OWNER:
                continue
            with open(path, encoding="utf-8") as fh:
                found += [f"{rel}:{line}" for line in external_constants(fh.read())]
    assert found == []


def test_the_graph_module_spells_it():
    with open(os.path.join(PACKAGE, OWNER), encoding="utf-8") as fh:
        assert external_constants(fh.read())
