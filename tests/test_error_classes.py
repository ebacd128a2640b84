"""Every exception class `src/udgscan/errors.py` defines is raised or caught
by some module of `src/udgscan` other than `errors.py`: a class only
defined, or only imported, is one too many."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "udgscan")


def _names(node) -> set[str]:
    """The class names an exception expression or handler type spells."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def raised_or_caught(source: str) -> set[str]:
    """The names in the `raise` statements and `except` clauses of `source`."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names |= _names(node.exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names |= _names(node.type)
    return names


def unused_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The exception classes of `errors_source` that no source in `sources`
    raises or catches, in definition order."""
    used = set().union(*(raised_or_caught(source) for source in sources))
    exceptions: set[str] = {"Exception"}
    unused = []
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(_names(base) & exceptions for base in node.bases):
            exceptions.add(node.name)
            if node.name not in used:
                unused.append(node.name)
    return unused


def test_every_error_class_is_raised_or_caught_outside_errors_py():
    sources = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        for name in filenames:
            path = os.path.join(dirpath, name)
            if name.endswith(".py") and path != os.path.join(PACKAGE, "errors.py"):
                with open(path, encoding="utf-8") as fh:
                    sources.append(fh.read())
    with open(os.path.join(PACKAGE, "errors.py"), encoding="utf-8") as fh:
        assert unused_errors(fh.read(), sources) == []


def test_the_check_finds_an_unused_error_class():
    errors = (
        "class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\n"
        "class Caught(Base):\n    pass\n\n\nclass Imported(Base):\n    pass\n\n\nclass Record:\n    pass\n"
    )
    user = (
        "from errors import Base, Caught, Imported, Raised\n\n\n"
        "def f():\n    try:\n        raise Raised('x')\n    except (errors.Caught, KeyError):\n        return Imported\n"
    )
    assert unused_errors(errors, [user]) == ["Base", "Imported"]
