"""Every module-level function and class in `src/udgscan` is named somewhere
in `src/`, `tests/` or `bench/` outside its own definition.  The match is
textual, so a name the benchmark's tracer spells as a string counts."""

import ast
import os
import re
from collections import Counter

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORD = re.compile(r"\w+")


def _sources(directories: list[str]) -> dict[str, list[str]]:
    """Path -> lines of every `.py` file under `directories`."""
    out = {}
    for directory in directories:
        for dirpath, dirnames, filenames in os.walk(directory):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        out[path] = fh.read().split("\n")
    return out


def dead_definitions(package: str, directories: list[str]) -> list[str]:
    """`file:line name` for each module-level function or class under
    `package` whose name no line of `directories` holds, apart from the
    lines of its own definition."""
    sources = _sources(directories)
    named = Counter(w for lines in sources.values() for line in lines for w in WORD.findall(line))
    dead = []
    for path in sorted(p for p in sources if p.startswith(os.path.join(package, ""))):
        lines = sources[path]
        for node in ast.parse("\n".join(lines), path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = sum(WORD.findall(line).count(node.name) for line in lines[first - 1 : node.end_lineno])
            if named[node.name] == own:
                dead.append(f"{os.path.relpath(path, package)}:{node.lineno} {node.name}")
    return dead


def test_no_src_definition_is_unreferenced():
    dirs = [os.path.join(REPO, d) for d in ("src", "tests", "bench")]
    assert dead_definitions(os.path.join(REPO, "src", "udgscan"), dirs) == []


def test_the_scan_finds_a_dead_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n\ndef dead():\n    return dead()\n\n\n"
        "@dataclass\nclass Gone:\n    pass\n"
    )
    (pkg / "b.py").write_text("from a import used\n\nLAYERS = {'traced': 'span'}\n\n\ndef traced():\n    return used()\n")
    assert dead_definitions(str(pkg), [str(tmp_path)]) == ["a.py:5 dead", "a.py:10 Gone"]
