"""Toy loader for paired vulnerable/patched sample repositories."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from ..errors import DuplicatePair, SchemaError


@dataclass
class PairedSample:
    pair_id: str
    vulnerable_dir: str
    patched_dir: str
    cwe: str = ""


def normalized_hash(repo_dir: str) -> str:
    """MD5 over path-sorted file contents with all formatting characters
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
        with open(os.path.join(repo_dir, rel), "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = "".join(ch for ch in text if ch not in " \t\n\r")
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(stripped.encode("utf-8"))
    return digest.hexdigest()


def load_paired_dataset(path: str, warnings: list[str] | None = None) -> list[PairedSample]:
    """JSON-lines records {id, vulnerable, patched[, cwe]}; directories are
    resolved relative to the dataset file.  Pairs whose variants normalize to
    the same hash are rejected; duplicated normalized variants across pairs
    keep the first occurrence."""
    base = os.path.dirname(os.path.abspath(path))
    samples: list[PairedSample] = []
    seen_hashes: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"dataset:{lineno}", f"not valid JSON: {exc}") from exc
            for key in ("id", "vulnerable", "patched"):
                if key not in doc:
                    raise SchemaError(f"dataset:{lineno}.{key}", "missing required field")
            vuln_dir = os.path.join(base, doc["vulnerable"])
            patched_dir = os.path.join(base, doc["patched"])
            for d in (vuln_dir, patched_dir):
                if not os.path.isdir(d):
                    raise SchemaError(f"dataset:{lineno}", f"variant directory missing: {d}")
            hv = normalized_hash(vuln_dir)
            hp = normalized_hash(patched_dir)
            if hv == hp:
                raise DuplicatePair(
                    f"pair {doc['id']}: variants are identical after normalization"
                )
            skip = False
            for h, d in ((hv, vuln_dir), (hp, patched_dir)):
                if h in seen_hashes:
                    if warnings is not None:
                        warnings.append(
                            f"pair {doc['id']}: variant duplicates {seen_hashes[h]}, pair skipped"
                        )
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
