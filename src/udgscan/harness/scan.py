"""Pipeline orchestration: parse, build, enhance, slice, reason, report."""

from __future__ import annotations

import gc
import json
import math
import os
import re
from collections import Counter, deque
from typing import NamedTuple

from ..context.holistic import DEFAULT_TOKEN_BUDGET, HolisticContext, holistic_context
from ..context.sinks import SensitiveInvocation, find_sensitive_invocations
from ..enhance.oracle import MockResolutionOracle
from ..enhance.passes import AuditEntry
from ..enhance.pipeline import enhance_graph
from ..errors import AllRoundsFailed, ClientTransportError, ConfigError, DiagnosticSink, OracleParseError
from ..frontend.analysis import build_type_hierarchy
from ..frontend.parser import parse_repository
from ..jsonio import read_json_object
from ..knowledge import detection_units_for, load_knowledge_base, load_starter_kb, load_user_sinks
from ..pool import RequestPool, issue
from ..reasoning.clients import LiveInferenceClient, MockInferenceClient
from ..reasoning.prompt import build_detection_prompt
from ..reasoning.votes import aggregate_votes, query_rounds
from ..transcript import Recorder, Replay
from ..udg.build import assemble_original_udg
from ..udg.cfg import resolve_label_targets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ORACLE = 4

# Transcript file and the field holding each request's tag, per request
# layer: the resolution oracle's site, the inference client's round.
TRANSCRIPTS = (("resolution.jsonl", "site"), ("inference.jsonl", "round"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a config value must be, by its kind in `CONFIG_FIELDS`: a test, and
# its words for the error.  A bool is an int to Python, but is never taken
# for a number here; nor is the NaN or infinity a JSON config file may
# spell, which no JSON request can carry.
_KINDS = {
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "float": (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a path"),
}
# The least value of each count; the round count must also be odd, so that
# a majority always exists.
_LEAST = {"hop_limit": 0, "n_rounds": 1, "token_budget": 0, "jobs": 1}
# Every setting of a scan: its name (a config-file key and a `ScanConfig`
# attribute), its default, and its kind, a key of `_KINDS`.
CONFIG_FIELDS = (
    ("repo", "", "str"),
    ("kb_path", None, "str | None"),
    ("sink_path", None, "str | None"),
    ("hop_limit", 3, "int"),
    ("n_rounds", 3, "int"),
    ("oracle_mode", "mock", "str"),  # "live" | "mock" | "replay"
    ("transcript_dir", None, "str | None"),
    ("out_dir", None, "str | None"),
    ("dump_context", False, "bool"),
    ("dump_graph", False, "bool"),
    ("token_budget", DEFAULT_TOKEN_BUDGET, "int"),
    ("endpoint", "", "str"),
    ("model", "", "str"),
    ("api_key_env", "UDGSCAN_API_KEY", "str"),
    ("temperature", 0.7, "float"),  # vote diversity across rounds
    ("seed", None, "int | None"),
    # The most model requests in flight at once to a layer that waits on an
    # endpoint; in-process layers answer on the scan thread (`udgscan.pool`).
    # The threads wait on I/O, so the default does not depend on the CPU
    # count; outputs do not depend on it.
    ("jobs", 8, "int"),
)


class ScanConfig:
    """The settings of a scan: one attribute per `CONFIG_FIELDS` entry, the
    value given by keyword or else its default."""

    __slots__ = tuple(name for name, _, _ in CONFIG_FIELDS)

    def __init__(self, **settings) -> None:
        for name, default, _ in CONFIG_FIELDS:
            setattr(self, name, settings.pop(name, default))
        if settings:
            raise TypeError(f"unknown settings: {sorted(settings)}")

    def validate(self) -> None:
        for name, _, kind in CONFIG_FIELDS:
            value = getattr(self, name)
            accepts, words = _KINDS[kind]
            least = _LEAST.get(name)
            if not accepts(value) or (least is not None and value < least):
                raise ConfigError(f"{name} must be {words}" + ("" if least is None else f" >= {least}"))
        if not self.repo:
            raise ConfigError("a repository path is required")
        if not os.path.isdir(self.repo):
            raise ConfigError(f"repository path does not exist: {self.repo}")
        if self.n_rounds % 2 == 0:
            raise ConfigError("round count must be odd")
        if self.oracle_mode not in ("live", "mock", "replay"):
            raise ConfigError(f"unknown oracle mode {self.oracle_mode!r}")
        if self.oracle_mode == "replay" and not self.transcript_dir:
            raise ConfigError("replay mode requires a transcript directory")
        if self.oracle_mode == "live" and (not self.endpoint or not self.model):
            raise ConfigError("live mode requires an endpoint and a model name")
        for dump in ("dump_context", "dump_graph"):
            if getattr(self, dump) and not self.out_dir:
                raise ConfigError(f"{dump} requires an output directory")
        # Directories the scan writes into, checked before any work is done;
        # replay mode reads its transcripts instead.
        writes = [("output", self.out_dir)]
        if self.oracle_mode != "replay":
            writes.append(("transcript", self.transcript_dir))
        for label, path in writes:
            blocker = _file_in_the_way(path) if path else None
            if blocker is not None:
                raise ConfigError(f"{label} directory {path} cannot be made: {blocker} is not a directory")

    @classmethod
    def from_sources(cls, flag_values: dict, config_file: str | None = None) -> "ScanConfig":
        """Config file values apply wherever a flag was not given."""
        merged: dict = {}
        if config_file:
            merged.update(read_json_object(config_file, "config"))
        for key, value in flag_values.items():
            if value is not None:
                merged[key] = value
        unknown = set(merged).difference(name for name, _, _ in CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**merged)


def _file_in_the_way(path: str) -> str | None:
    """`path`, or the nearest of its parents that exists, when that is not a
    directory."""
    while not os.path.lexists(path):
        parent = os.path.dirname(path)
        if parent == path:
            return None
        path = parent
    return None if os.path.isdir(path) else path


class Finding(NamedTuple):
    finding_id: str
    file: str
    line: int
    api: str
    cwe: str
    verdict: str  # "vulnerable" | "not_vulnerable" | "undetermined"
    confidence: float
    explanation: str
    context_file: str | None
    low_confidence: bool
    origin: str

    def as_dict(self) -> dict:
        return {
            "id": self.finding_id,
            "file": self.file,
            "line": self.line,
            "api": self.api,
            "cwe": self.cwe,
            "verdict": self.verdict,
            "confidence": round(self.confidence, 6),
            "explanation": self.explanation,
            "context_file": self.context_file,
            "low_confidence": self.low_confidence,
            "origin": self.origin,
        }


class ScanResult(NamedTuple):
    """What a scan reached: every stop leaves each field set (see `_scan`)."""

    report: dict
    exit_code: int
    findings: list[Finding]
    contexts: dict[str, object]
    graph: object
    model: object


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _unique(names) -> list[str]:
    """`names` in order, each one an earlier one already took given the
    suffix `~2`, `~3`, ..., which `_sanitize` never produces."""
    taken: set[str] = set()
    out: list[str] = []
    for base in names:
        name = base
        n = 1
        while name in taken:
            n += 1
            name = f"{base}~{n}"
        taken.add(name)
        out.append(name)
    return out


def _sanitized(keys) -> dict[str, str]:
    """Each distinct key's `_sanitize`d name, made `_unique` in key order."""
    distinct = list(dict.fromkeys(keys))
    return dict(zip(distinct, _unique(_sanitize(key) for key in distinct)))


class _Names:
    """The output names of a scan's invocations, in invocation order: each
    statement's, for finding ids, and each invocation's, for its context
    dump."""

    def __init__(self, invocations):
        self.statements = _sanitized(inv.statement for inv in invocations)
        self.contexts = _sanitized(inv.id for inv in invocations)


class _FirstRound:
    """Sends each resolution request to the inference client as round 0."""

    def __init__(self, client: LiveInferenceClient):
        self.client = client

    def complete(self, prompt: str, site: str = "") -> str:
        return self.client.complete(prompt)


def _request_layers(config: ScanConfig, given: tuple) -> tuple[list, list]:
    """The scan's (resolution oracle, inference client), each taken from
    `given` when not None, and the (recorder, path) pairs to save after the
    scan.

    Replay mode serves both layers from the transcript; live mode sends both
    to one `LiveInferenceClient`.  With a transcript directory outside
    replay mode, each layer built here is recorded.
    """
    if config.oracle_mode == "live":
        live = LiveInferenceClient(
            endpoint=config.endpoint,
            model=config.model,
            api_key_env=config.api_key_env,
            temperature=config.temperature,
            seed=config.seed,
        )
        bases = (_FirstRound(live), live)
    else:
        bases = (MockResolutionOracle(), MockInferenceClient())
    layers, recorders = [], []
    for layer, base, (name, tag_field) in zip(given, bases, TRANSCRIPTS):
        if layer is None and config.oracle_mode == "replay":
            layer = Replay(os.path.join(config.transcript_dir, name), tag_field)
        elif layer is None and config.transcript_dir:
            layer = Recorder(base, tag_field)
            recorders.append((layer, os.path.join(config.transcript_dir, name)))
        layers.append(base if layer is None else layer)
    return layers, recorders


def scan(config: ScanConfig, inference_client=None, resolution_oracle=None) -> ScanResult:
    """Run the full pipeline over one repository.

    `inference_client` and `resolution_oracle` override the mode-selected
    implementations (used by tests and the evaluation driver).

    The cyclic garbage collector is paused, process-wide, while the scan
    runs: a scan allocates many long-lived objects and almost none of them
    become cyclic garbage, so collections would cost time and free next to
    nothing.  The caller's collector state is restored on every exit.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _scan(config, inference_client, resolution_oracle)
    finally:
        if collecting:
            gc.enable()


def _scan(config: ScanConfig, inference_client, resolution_oracle) -> ScanResult:
    config.validate()
    diagnostics = DiagnosticSink()
    # Built and read before any parsing, so that an unreadable replay
    # transcript, knowledge base or sink file is reported at once.
    (oracle, client), recorders = _request_layers(config, (resolution_oracle, inference_client))
    kb_notes = DiagnosticSink()
    kb = load_knowledge_base(config.kb_path, kb_notes) if config.kb_path else load_starter_kb()
    user_sinks = load_user_sinks(config.sink_path, kb) if config.sink_path else []

    model = parse_repository(config.repo, diagnostics)
    build_type_hierarchy(model, diagnostics)
    jump_targets = resolve_label_targets(model, diagnostics)

    # What the scan has reached: each stage below adds to or replaces these,
    # and an oracle failure stops it with what the stages before made.
    graph = assemble_original_udg(model)
    audit: list[AuditEntry] = []
    invocations: list[SensitiveInvocation] = []
    contexts: dict[str, HolisticContext] = {}
    names = _Names(invocations)
    findings: list[Finding] = []
    fatal = None
    try:
        with RequestPool(config.jobs) as pool:
            graph = enhance_graph(model, graph, oracle, diagnostics, audit, jump_targets, pool).graph
            invocations = find_sensitive_invocations(graph, model, kb, user_sinks)
            built = holistic_context(
                graph, model, invocations, hop_limit=config.hop_limit, token_budget=config.token_budget
            )
            contexts = {inv.id: ctx for inv, ctx in zip(invocations, built)}
            names = _Names(invocations)

            # Each unit's rounds are one call on the pool, at most about two
            # per thread ahead of the unit whose votes are aggregated next.
            in_flight: deque = deque()
            for inv in invocations:
                for unit in detection_units_for(inv, kb):
                    prompt = build_detection_prompt(contexts[inv.id], unit, kb)
                    votes = issue(pool, query_rounds, client, prompt, config.n_rounds)
                    in_flight.append((inv, unit, votes))
                    if len(in_flight) > 2 * config.jobs:
                        findings.append(_finding(config, model, names, *in_flight.popleft()))
            findings.extend(_finding(config, model, names, *entry) for entry in in_flight)
    except (OracleParseError, ClientTransportError) as exc:
        fatal = str(exc)
    diagnostics.extend(kb_notes)
    if fatal is not None:
        diagnostics.add("error", "enhance", f"oracle failure: {fatal}")

    # Two APIs called at one statement can share a CWE: the later finding's
    # id takes a suffix, as a dump's name does.
    findings = [
        finding._replace(finding_id=finding_id)
        for finding, finding_id in zip(findings, _unique([f.finding_id for f in findings]))
    ]

    report = {
        "schema_version": 1,
        "repo": config.repo,
        "config": {
            "hop_limit": config.hop_limit,
            "n_rounds": config.n_rounds,
            "oracle_mode": config.oracle_mode,
            "token_budget": config.token_budget,
        },
        "stats": {
            "files": len(model.files),
            "functions": len(model.functions),
            "classes": len(model.classes),
            "nodes": len(graph.nodes),
            "edges": {
                tau: sum(1 for e in graph.edges if e.tau == tau)
                for tau in ("control_flow", "data_dependency", "call")
            },
            "enhancement": dict(Counter(f"{entry.tau}.{entry.op}" for entry in audit)),
            "invocations": len(invocations),
        },
        "diagnostics": diagnostics.as_dicts(),
        "findings": [f.as_dict() for f in findings],
    }

    exit_code = EXIT_OK
    if fatal is not None:
        report["fatal"] = fatal
        exit_code = EXIT_ORACLE
    elif diagnostics.has_errors():
        exit_code = EXIT_PARSE
    elif any(f.verdict == "undetermined" for f in findings):
        exit_code = EXIT_ORACLE

    if recorders:
        os.makedirs(config.transcript_dir, exist_ok=True)
        for recorder, path in recorders:
            _rewrite(path, "".join(recorder.lines()))
    if config.out_dir:
        _write_outputs(config, report, contexts, names, audit, graph)
    return ScanResult(report, exit_code, findings, contexts, graph, model)


def _finding(config: ScanConfig, model, names: _Names, inv, unit, votes) -> Finding:
    """The finding of one detection unit from its rounds' future."""
    stmt = model.stmt(inv.statement)
    try:
        agg = aggregate_votes(votes.result())
        verdict = "vulnerable" if agg.final else "not_vulnerable"
        confidence = agg.confidence
        low = agg.low_confidence
        explanation = next(
            (v.explanation for v in agg.parseable if v.is_vulnerable == agg.final), ""
        )
    except AllRoundsFailed:
        verdict = "undetermined"
        confidence = 0.0
        low = True
        explanation = "all rounds failed to parse"
    return Finding(
        finding_id=f"{names.statements[inv.statement]}::{unit[1]}",
        file=stmt.file,
        line=stmt.start_line,
        api=unit[0],
        cwe=unit[1],
        verdict=verdict,
        confidence=confidence,
        explanation=explanation,
        context_file=f"{names.contexts[inv.id]}.ctx.txt" if config.dump_context else None,
        low_confidence=low,
        origin=inv.origin,
    )


def _rewrite(path: str, text: str) -> None:
    """Make `path` hold exactly `text`, UTF-8 encoded.

    An existing file is overwritten in place and then cut to its new length
    rather than truncated to zero first: a re-scan into the same directory
    rewrites files of about the same size, and on file systems that flush a
    file truncated to zero when it is closed (ext4's `auto_da_alloc`), that
    costs far more than the write.  The file is written even when its bytes
    do not change, so its modification time always moves.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_outputs(config, report, contexts, names: _Names, audit, graph) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    _rewrite(os.path.join(config.out_dir, "report.json"), json.dumps(report, indent=2, sort_keys=True) + "\n")
    _rewrite(
        os.path.join(config.out_dir, "audit.jsonl"),
        "".join(entry.json_line() for entry in audit),
    )
    if config.dump_context:
        for inv_id, ctx in contexts.items():
            _rewrite(os.path.join(config.out_dir, f"{names.contexts[inv_id]}.ctx.txt"), ctx.rendered + "\n")
    if config.dump_graph:
        _rewrite(os.path.join(config.out_dir, "udg.txt"), graph.dump())
        _rewrite(os.path.join(config.out_dir, "udg.dot"), graph.to_dot())

