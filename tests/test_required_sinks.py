"""No function of `src/udgscan` lets its caller leave out the sink it writes
to: a parameter annotated with `DiagnosticSink` or `AuditEntry`, or named
`warnings` or `log`, takes no default."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(REPO, "src", "udgscan")

SINK_TYPES = {"DiagnosticSink", "AuditEntry"}
SINK_NAMES = {"warnings", "log"}


def _spelled(annotation) -> set[str]:
    """The names an annotation spells, `list[AuditEntry] | None` giving
    `list`, `AuditEntry` and `None`."""
    if annotation is None:
        return set()
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _spelled(ast.parse(node.value, mode="eval").body)
    return names


def optional_sinks(source: str) -> list[str]:
    """`line function(parameter)` for each sink parameter of `source` that
    takes a default, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults) :]
        defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg in defaulted:
            if arg.arg in SINK_NAMES or _spelled(arg.annotation) & SINK_TYPES:
                found.append((arg.lineno, arg.col_offset, f"{arg.lineno} {node.name}({arg.arg})"))
    return [text for _, _, text in sorted(found)]


def test_no_sink_parameter_takes_a_default():
    found = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    rel = os.path.relpath(path, REPO)
                    found += [f"{rel}:{where}" for where in optional_sinks(fh.read())]
    assert found == []


def test_the_check_finds_each_kind_of_optional_sink():
    source = (
        "def parse(root, diagnostics: DiagnosticSink | None = None, depth=0):\n    pass\n\n\n"
        "def edit(g, audit: 'list[AuditEntry] | None' = None, *, pool=None):\n    pass\n\n\n"
        "def load(path, *, warnings=None):\n    pass\n\n\n"
        "def rename(names, log: list[str] = [], diagnostics: errors.DiagnosticSink = SINK):\n    pass\n\n\n"
        "def required(diagnostics: DiagnosticSink, audit: list[AuditEntry], warnings, log, pool=None):\n    pass\n"
    )
    assert optional_sinks(source) == [
        "1 parse(diagnostics)",
        "5 edit(audit)",
        "9 load(warnings)",
        "13 rename(log)",
        "13 rename(diagnostics)",
    ]
