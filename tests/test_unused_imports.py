"""Every module-level import in `tests/` is used, so each test file's
imports say which names it depends on."""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))


def _modules(directory: str) -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's top-level imports bind, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(directory: str) -> list[str]:
    """`file:line name` for each name a module in `directory` imports and
    never reads, unless another module there imports it from that one."""
    trees = _modules(directory)
    borrowed: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in trees:
                borrowed.setdefault(node.module, set()).update(a.name for a in node.names)
    unused = []
    for module, tree in trees.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported(tree).items():
            if name not in read and name not in borrowed.get(module, ()):
                unused.append(f"{module}.py:{line} {name}")
    return unused


def test_no_test_module_imports_a_name_it_does_not_use():
    assert unused_imports(TESTS) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text("import os\nimport os.path as p\nfrom json import dumps, loads\nprint(loads)\n")
    (tmp_path / "b.py").write_text("import json\n\n\ndef f():\n    from a import dumps\n    return dumps\n")
    assert unused_imports(str(tmp_path)) == ["a.py:1 os", "a.py:2 p", "b.py:1 json"]
