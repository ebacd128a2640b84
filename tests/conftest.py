import os
import re
import shutil

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print the FAIL counterpart of the acceptance suite's PASS lines."""
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed and item.module.__name__ == "test_acceptance":
        m = re.match(r"test_criterion_(\d+)", item.name)
        if m:
            print(f"\nACCEPTANCE {m.group(1)}: FAIL - {item.name}")

from udgscan.enhance.pipeline import enhance_graph
from udgscan.errors import DiagnosticSink
from udgscan.frontend.analysis import build_type_hierarchy
from udgscan.frontend.parser import parse_repository
from udgscan.udg.build import assemble_original_udg
from udgscan.udg.cfg import resolve_label_targets

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def write_repo(tmp_path, files: dict[str, str]) -> str:
    root = tmp_path / "repo"
    for rel, text in files.items():
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(text, encoding="utf-8")
    return str(root)


def copy_fixture_repo(tmp_path, name: str) -> str:
    dest = tmp_path / name
    shutil.copytree(fixture_path(name), dest)
    return str(dest)


def parse_and_build(root: str):
    """Parse a repo and assemble its original graph; returns (model, g_o, diags)."""
    diags = DiagnosticSink()
    model = parse_repository(root, diagnostics=diags)
    build_type_hierarchy(model, diags)
    g = assemble_original_udg(model)
    return model, g, diags


def enhance(model, g, oracle, diags, audit=None):
    """`enhance_graph` as a scan runs it: on the labeled jumps that
    `resolve_label_targets` resolves, its errors going to `diags` and its
    edits to `audit` (to a list of its own when None)."""
    return enhance_graph(model, g, oracle, diags, [] if audit is None else audit, resolve_label_targets(model, diags))


@pytest.fixture
def el_repo():
    return fixture_path("el_template_validation")


@pytest.fixture
def reflect_repo():
    return fixture_path("reflective_dispatch")


@pytest.fixture
def dispatch_repo():
    return fixture_path("dispatch")


@pytest.fixture
def pruning_repo():
    return fixture_path("pruning")


@pytest.fixture
def parameter_dispatch_repo(tmp_path):
    """The `dispatch` fixture's polymorphic call made on a parameter, a
    receiver whose class only the oracle can narrow."""
    return write_repo(tmp_path, {"Zoo.java": ZOO_PARAMETER})


ZOO_PARAMETER = """package com.example.zoo;
class Animal {
    String id(int tag) {
        return "animal-" + tag;
    }
}
class Dog extends Animal {
    String id(int tag) {
        return "dog-" + tag;
    }
}
class Keeper {
    String label(Animal a, int tag) {
        return a.id(tag);
    }
}
"""
