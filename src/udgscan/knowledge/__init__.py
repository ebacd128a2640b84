"""Knowledge base: sensitive APIs mapped to CWE types and per-CWE guideline
text (vulnerability patterns and defense knowledge) used by the meta-prompt.

File format: one JSON document `{"guidelines": [...], "apis": [...]}`,
read by `udgscan.jsonio.read_json_object`; a knowledge-base or sink file
that breaks its format is a `ConfigError` naming the field.
Signature matching is qualified-suffix based (`exec` matches
`java.lang.Runtime.exec`) with an optional arity pin.
"""

from __future__ import annotations

import importlib.resources
import re
from typing import NamedTuple

from ..errors import ConfigError, DiagnosticSink, MissingGuideline
from ..jsonio import decode, read_json_object

CWE_ID_RE = re.compile(r"^CWE-\d+$")


class CweGuideline(NamedTuple):
    cwe_id: str
    title: str
    vuln_patterns: str
    defense_knowledge: str

    def as_dict(self) -> dict:
        return {
            "cwe_id": self.cwe_id,
            "title": self.title,
            "vuln_patterns": self.vuln_patterns,
            "defense_knowledge": self.defense_knowledge,
        }


class KbEntry(NamedTuple):
    api: str  # qualified pattern, optionally dotted
    cwes: list[str]
    arity: int | None = None

    def as_dict(self) -> dict:
        out = {"api": self.api, "cwes": list(self.cwes)}
        if self.arity is not None:
            out["arity"] = self.arity
        return out


class UserSinkSpec(NamedTuple):
    pattern: str  # function signature pattern, e.g. "MyDao.rawQuery"
    cwe_id: str
    arity: int | None = None

    def matches_function(self, func) -> bool:
        if self.arity is not None and func.arity != self.arity:
            return False
        return suffix_match(self.pattern, f"{func.class_name}.{func.name}")


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def suffix_match(pattern: str, candidate: str) -> bool:
    """Dotted-suffix equality in either direction over trailing segments."""
    p = pattern.split(".")
    c = candidate.split(".")
    n = min(len(p), len(c))
    return n > 0 and p[-n:] == c[-n:]


class KnowledgeBase:
    __slots__ = ("entries", "guidelines", "_by_name")

    def __init__(self) -> None:
        self.entries: list[KbEntry] = []
        self.guidelines: dict[str, CweGuideline] = {}
        # Entry positions by the last segment of the entry's API, built on the
        # first match (after `parse_knowledge_base` has filled `entries`).
        self._by_name: dict[str, list[int]] | None = None

    def guideline_for(self, cwe_id: str) -> CweGuideline:
        if cwe_id not in self.guidelines:
            raise MissingGuideline(f"no guideline for {cwe_id}")
        return self.guidelines[cwe_id]

    def match_call(self, candidates: list[str], arity: int) -> list[KbEntry]:
        """Entries matching any candidate, in entry order.  `suffix_match`
        needs equal last segments, so only entries named like a candidate's
        last segment are tried."""
        if self._by_name is None:
            self._by_name = {}
            for i, entry in enumerate(self.entries):
                self._by_name.setdefault(_last_segment(entry.api), []).append(i)
        names = {_last_segment(cand) for cand in candidates}
        hits: list[KbEntry] = []
        for i in sorted(i for name in names for i in self._by_name.get(name, ())):
            entry = self.entries[i]
            if entry.arity is not None and entry.arity != arity:
                continue
            if any(suffix_match(entry.api, cand) for cand in candidates):
                hits.append(entry)
        return hits

    def dump(self) -> dict:
        return {
            "guidelines": [g.as_dict() for g in sorted(self.guidelines.values(), key=lambda g: g.cwe_id)],
            "apis": [e.as_dict() for e in self.entries],
        }


def _require(doc: dict, key: str, typ, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing required field")
    value = doc[key]
    if not isinstance(value, typ):
        raise ConfigError(f"{where}.{key}: expected {typ.__name__}")
    return value


def _cwe_id(doc: dict, where: str) -> str:
    """A KB guideline's or sink's CWE id, `CWE-` and a number."""
    cwe_id = _require(doc, "cwe_id", str, where)
    if not CWE_ID_RE.match(cwe_id):
        raise ConfigError(f"{where}.cwe_id: malformed CWE id {cwe_id!r}")
    return cwe_id


def _arity(doc: dict, where: str) -> int | None:
    """A KB entry's or sink's optional arity pin, which, when present, is a
    non-negative integer (not a bool, which Python counts as one)."""
    if "arity" not in doc:
        return None
    arity = doc["arity"]
    if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
        raise ConfigError(f"{where}.arity: arity must be a non-negative integer")
    return arity


def _guideline(g: dict, cwe_id: str, where: str) -> CweGuideline:
    """A KB guideline's or an inline sink guideline's text blocks, each
    required to hold more than whitespace."""
    title = _require(g, "title", str, where)
    vuln = _require(g, "vuln_patterns", str, where)
    defense = _require(g, "defense_knowledge", str, where)
    if not vuln.strip() or not defense.strip() or not title.strip():
        raise ConfigError(f"{where}: guideline text blocks must be non-empty")
    return CweGuideline(cwe_id, title, vuln, defense)


def parse_knowledge_base(doc: dict, diagnostics: DiagnosticSink) -> KnowledgeBase:
    kb = KnowledgeBase()
    guidelines = _require(doc, "guidelines", list, "kb")
    for i, g in enumerate(guidelines):
        where = f"kb.guidelines[{i}]"
        cwe_id = _cwe_id(g, where)
        kb.guidelines[cwe_id] = _guideline(g, cwe_id, where)
    apis = _require(doc, "apis", list, "kb")
    seen: dict[tuple[str, int | None], KbEntry] = {}
    for i, a in enumerate(apis):
        where = f"kb.apis[{i}]"
        api = _require(a, "api", str, where)
        cwes = _require(a, "cwes", list, where)
        if not cwes:
            raise ConfigError(f"{where}.cwes: at least one CWE per entry")
        arity = _arity(a, where)
        for cwe in cwes:
            if not isinstance(cwe, str) or cwe not in kb.guidelines:
                raise ConfigError(f"{where}.cwes: unknown guideline {cwe}")
        key = (api, arity)
        if key in seen:
            diagnostics.add("warning", "knowledge", f"duplicate api {api}: entries merged")
            for cwe in cwes:
                if cwe not in seen[key].cwes:
                    seen[key].cwes.append(cwe)
            continue
        entry = KbEntry(api=api, cwes=list(cwes), arity=arity)
        seen[key] = entry
        kb.entries.append(entry)
    return kb


def load_knowledge_base(path: str, diagnostics: DiagnosticSink) -> KnowledgeBase:
    return parse_knowledge_base(read_json_object(path, "kb"), diagnostics)


def load_starter_kb() -> KnowledgeBase:
    """The shipped seed knowledge base (not an industrial-scale catalog),
    which merges no entries and so gives no note."""
    data = importlib.resources.files("udgscan.knowledge").joinpath("data/starter_kb.json")
    return parse_knowledge_base(decode(data.read_bytes()), DiagnosticSink())


def load_user_sinks(path: str, kb: KnowledgeBase) -> list[UserSinkSpec]:
    sinks_doc = _require(read_json_object(path, "sinks"), "sinks", list, "sinks")
    out: list[UserSinkSpec] = []
    for i, s in enumerate(sinks_doc):
        where = f"sinks[{i}]"
        pattern = _require(s, "function", str, where)
        cwe_id = _cwe_id(s, where)
        arity = _arity(s, where)
        if "guideline" in s:
            kb.guidelines.setdefault(cwe_id, _guideline(s["guideline"], cwe_id, f"{where}.guideline"))
        elif cwe_id not in kb.guidelines:
            raise ConfigError(f"{where}: {cwe_id} has no guideline and no inline override")
        out.append(UserSinkSpec(pattern=pattern, cwe_id=cwe_id, arity=arity))
    return out


def detection_units_for(inv, kb: KnowledgeBase) -> list[tuple[str, str]]:
    """One (api, cwe) detection unit per vulnerability type mapped to the
    invocation's API."""
    units = []
    for cwe in inv.cwes:
        if cwe not in kb.guidelines:
            raise MissingGuideline(f"{inv.api}: no guideline for {cwe}")
        units.append((inv.api, cwe))
    return units
