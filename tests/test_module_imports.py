"""Every module imports on its own, the tests' support modules too, and
the packages export nothing: code names the module a name lives in, so no
import order can hide a cycle."""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "udgscan")


def _modules() -> list[str]:
    names = []
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, name), SRC)[: -len(".py")]
                names.append(rel.replace(os.sep, ".").removesuffix(".__init__"))
    return sorted(names)


MODULES = _modules()


def _imports_alone(module: str, *path: str, check: str = "") -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"import {module}\n{check}"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# Records are named tuples or slotted classes: importing `dataclasses`
# generates code for each record at every start-up (see `udgscan.record`).
NO_DATACLASSES = "import sys\nsys.exit('dataclasses was imported' if 'dataclasses' in sys.modules else 0)"


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    _imports_alone(module, SRC, check=NO_DATACLASSES)


TESTS = os.path.dirname(os.path.abspath(__file__))
SUPPORT = sorted(
    f"support.{name[: -len('.py')]}".removesuffix(".__init__")
    for name in os.listdir(os.path.join(TESTS, "support"))
    if name.endswith(".py")
)


@pytest.mark.parametrize("module", SUPPORT)
def test_support_module_imports_in_a_fresh_interpreter(module):
    _imports_alone(module, SRC, TESTS)


# `udgscan.knowledge` is a module of its own, not a re-export layer.
PACKAGES = [m for m in MODULES if os.path.isdir(os.path.join(SRC, *m.split("."))) and m != "udgscan.knowledge"]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_init_defines_no_names(package):
    path = os.path.join(SRC, *package.split("."), "__init__.py")
    with open(path, encoding="utf-8") as f:
        body = ast.parse(f.read()).body
    assert all(isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant) for n in body), path
