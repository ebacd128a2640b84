"""Toy loader for paired vulnerable/patched sample repositories.

A dataset file that cannot be read, a line that is not a record, and a
variant that is missing or cannot be read are configuration errors naming
the file.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from ..errors import ConfigError, DiagnosticSink, DuplicatePair
from ..jsonio import read_json_lines


class PairedSample(NamedTuple):
    pair_id: str
    vulnerable_dir: str
    patched_dir: str
    cwe: str = ""


def normalized_hash(repo_dir: str) -> str:
    """MD5 over path-sorted file bytes with all formatting characters
    (spaces, tabs, newlines, carriage returns) removed."""
    import hashlib  # only an evaluation hashes; a scan does not load it

    digest = hashlib.md5()
    entries = []
    for dirpath, dirnames, filenames in os.walk(repo_dir):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".java"):
                rel = os.path.relpath(os.path.join(dirpath, fn), repo_dir)
                entries.append(rel.replace(os.sep, "/"))
    for rel in sorted(entries):
        path = os.path.join(repo_dir, rel)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read variant file {path}: {exc.strerror or exc}") from exc
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(data.translate(None, b" \t\n\r"))
    return digest.hexdigest()


def load_paired_dataset(path: str, diagnostics: DiagnosticSink) -> list[PairedSample]:
    """JSON-lines records {id, vulnerable, patched[, cwe]}; directories are
    resolved relative to the dataset file.  Pairs whose variants normalize to
    the same hash are rejected; duplicated normalized variants across pairs
    keep the first occurrence."""
    base = os.path.dirname(os.path.abspath(path))
    samples: list[PairedSample] = []
    seen_hashes: dict[str, str] = {}
    for lineno, doc in read_json_lines(path, "dataset"):
        where = f"dataset {path}:{lineno}"
        for key in ("id", "vulnerable", "patched"):
            if not isinstance(doc.get(key), str):
                raise ConfigError(f"{where}: {key} must be a string")
        vuln_dir = os.path.join(base, doc["vulnerable"])
        patched_dir = os.path.join(base, doc["patched"])
        for d in (vuln_dir, patched_dir):
            if not os.path.isdir(d):
                raise ConfigError(f"{where}: variant directory missing: {d}")
        hv = normalized_hash(vuln_dir)
        hp = normalized_hash(patched_dir)
        if hv == hp:
            raise DuplicatePair(
                f"pair {doc['id']}: variants are identical after normalization"
            )
        skip = False
        for h, d in ((hv, vuln_dir), (hp, patched_dir)):
            if h in seen_hashes:
                message = f"pair {doc['id']}: variant duplicates {seen_hashes[h]}, pair skipped"
                diagnostics.add("warning", "dataset", message)
                skip = True
        if skip:
            continue
        seen_hashes[hv] = doc["id"]
        seen_hashes[hp] = doc["id"]
        samples.append(
            PairedSample(
                pair_id=doc["id"],
                vulnerable_dir=vuln_dir,
                patched_dir=patched_dir,
                cwe=doc.get("cwe", ""),
            )
        )
    return samples
