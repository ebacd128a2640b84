"""Shared error types and the diagnostics record used across the pipeline."""

from __future__ import annotations

from typing import NamedTuple

from .record import Record


class UdgScanError(Exception):
    """Base class for all tool errors."""


class ConfigError(UdgScanError):
    """A setting, or a document the scan reads (config, knowledge base,
    sinks, transcript, dataset), is unusable: the run exits with 2."""


class SubsetViolation(UdgScanError):
    """A source file uses a construct outside the supported Java subset."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
        self.message = message


class OracleParseError(UdgScanError):
    pass


class MissingGuideline(UdgScanError):
    pass


class AllRoundsFailed(UdgScanError):
    pass


class IdMismatch(UdgScanError):
    pass


class EmptyInput(UdgScanError):
    pass


class DuplicatePair(UdgScanError):
    pass


class BudgetExceeded(UdgScanError):
    pass


class ClientTransportError(UdgScanError):
    """A request got no response: a live endpoint failed, or a replayed
    transcript holds no record of it."""


class Diagnostic(NamedTuple):
    """One non-fatal finding of the pipeline (subset violations, oracle faults, ...)."""

    severity: str  # "info" | "warning" | "error"
    module: str
    message: str
    path: str = ""
    line: int = 0

    def as_dict(self) -> dict:
        return {
            "severity": self.severity,
            "module": self.module,
            "message": self.message,
            "path": self.path,
            "line": self.line,
        }

    def render(self) -> str:
        if not self.path:
            return f"[{self.severity}] {self.module}: {self.message}"
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"[{self.severity}] {self.module}: {loc}: {self.message}"


class DiagnosticSink(Record):
    """Ordered collector shared by pipeline stages."""

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[Diagnostic] = []

    def add(self, severity: str, module: str, message: str, path: str = "", line: int = 0) -> None:
        self.items.append(Diagnostic(severity, module, message, path, line))

    def extend(self, other: "DiagnosticSink") -> None:
        self.items.extend(other.items)

    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.items)

    def as_dicts(self) -> list[dict]:
        return [d.as_dict() for d in self.items]
