"""Semantics-preserving adversarial identifier renaming.

Every user-defined identifier (classes, methods, fields, params, locals) is
prefixed with the opposite label string; keywords, library names, labels,
and string literals are untouched.  The output parses under the same subset.
"""

from __future__ import annotations

import os

from ..errors import ConfigError, DiagnosticSink
from ..frontend.lexer import tokenize
from ..frontend.model import RepoModel
from ..frontend.parser import parse_repository
from .scan import _file_in_the_way

PREFIX_FOR_LABEL = {
    "vulnerable": "non_vulnerable_",
    "non_vulnerable": "vulnerable_",
}


def collect_user_identifiers(model: RepoModel) -> set[str]:
    names: set[str] = set()
    for cls in model.classes.values():
        names.add(cls.simple_name)
    for func in model.functions.values():
        names.add(func.name)
        names.update(func.params)
        names.update(func.var_types)
    for decl in model.globals:
        if decl.variable:
            names.add(decl.variable)
    # Constructors share the class name; keep them identical to the class.
    return names


def build_rename_map(names: set[str], label: str, diagnostics: DiagnosticSink) -> dict[str, str]:
    if label not in PREFIX_FOR_LABEL:
        raise ValueError(f"label must be one of {sorted(PREFIX_FOR_LABEL)}")
    prefix = PREFIX_FOR_LABEL[label]
    mapping: dict[str, str] = {}
    taken = set(names)
    for name in sorted(names):
        candidate = prefix + name
        if candidate in taken:
            k = 2
            while f"{candidate}_{k}" in taken:
                k += 1
            resolved = f"{candidate}_{k}"
            diagnostics.add("info", "rename", f"collision: {candidate} taken, using {resolved}")
            candidate = resolved
        mapping[name] = candidate
        taken.add(candidate)
    return mapping


def rename_source(
    text: str,
    mapping: dict[str, str],
    path: str = "<memory>",
    member_names: set[str] | None = None,
) -> str:
    """Token-level rewrite; only identifier tokens outside package/import
    statements are replaced.

    Identifiers in selector position (directly after `.`) name members of
    the receiver, so they are renamed only when they match a user-defined
    method or field; this keeps library selectors such as `.matcher(` intact
    even when a local variable shares the name.
    """
    member_names = member_names or set()
    tokens = tokenize(text, path)
    spans: list[tuple[int, int, str]] = []
    in_pkg_or_import = False
    prev = None
    for tok in tokens:
        if tok.kind == "keyword" and tok.text in ("package", "import"):
            in_pkg_or_import = True
            prev = tok
            continue
        if in_pkg_or_import:
            if tok.text == ";":
                in_pkg_or_import = False
            prev = tok
            continue
        if tok.kind == "ident" and tok.text in mapping:
            selector = prev is not None and prev.text == "."
            if not selector or tok.text in member_names:
                spans.append((tok.start, tok.end, mapping[tok.text]))
        prev = tok
    out = []
    cursor = 0
    for start, end, replacement in spans:
        out.append(text[cursor:start])
        out.append(replacement)
        cursor = end
    out.append(text[cursor:])
    return "".join(out)


def adversarial_rename(
    repo_root: str,
    label: str,
    out_root: str,
    diagnostics: DiagnosticSink,
) -> dict[str, str]:
    """Rewrite a repository into `out_root`; returns the rename map."""
    if not os.path.isdir(repo_root):
        raise ConfigError(f"repository path does not exist: {repo_root}")
    blocker = _file_in_the_way(out_root)
    if blocker is not None:
        raise ConfigError(f"output directory {out_root} cannot be made: {blocker} is not a directory")
    model = parse_repository(repo_root, diagnostics)
    names = collect_user_identifiers(model)
    member_names = {f.name for f in model.functions.values()}
    member_names.update(g.variable for g in model.globals if g.variable)
    mapping = build_rename_map(names, label, diagnostics)
    os.makedirs(out_root, exist_ok=True)
    for source in model.files:
        renamed = rename_source(source.text, mapping, source.path, member_names)
        dest = os.path.join(out_root, source.path)
        os.makedirs(os.path.dirname(dest) or out_root, exist_ok=True)
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(renamed)
    return mapping
