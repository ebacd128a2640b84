"""Inference clients: live HTTP and deterministic mocks.

The HTTP stack (`urllib.request`, and with it `ssl`, `http.client` and
`email`) is imported by the live client on its first request, so a mock or
replay scan never loads it.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..errors import ClientTransportError, ConfigError

DEFAULT_TEMPERATURE = 0.7  # vote diversity across rounds


class InferenceClient(Protocol):
    def complete(self, prompt: str, round_index: int = 0) -> str: ...


@dataclass
class MockInferenceClient:
    """Deterministic client for offline runs and tests.

    With a script, responses are served in call order, each once.  A scan
    runs detection units concurrently, so that order is defined only within
    one unit's rounds: a multi-unit scan needs a responder, a function
    whose response is a pure function of (prompt, round).  The default
    always votes non-vulnerable.
    """

    script: list[str] | None = None
    responder: Callable[[str, int], str] | None = None
    _cursor: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def complete(self, prompt: str, round_index: int = 0) -> str:
        if self.responder is not None:
            return self.responder(prompt, round_index)
        if self.script is not None:
            with self._lock:
                if self._cursor >= len(self.script):
                    raise ClientTransportError("mock script exhausted")
                out = self.script[self._cursor]
                self._cursor += 1
            return out
        return json.dumps(
            {
                "explanation": "Mock review found no satisfied trigger condition.",
                "is_vulnerable": False,
            }
        )


@dataclass
class LiveClientConfig:
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "UDGSCAN_API_KEY"
    timeout: float = 120.0
    retries: int = 2
    temperature: float = DEFAULT_TEMPERATURE
    seed: int | None = None


class LiveInferenceClient:
    """Minimal chat-completion HTTP client behind the InferenceClient contract."""

    def __init__(self, config: LiveClientConfig):
        if not config.endpoint or not config.model:
            raise ConfigError("live client requires endpoint and model")
        self.config = config
        self.api_key = os.environ.get(config.api_key_env, "")

    def complete(self, prompt: str, round_index: int = 0) -> str:
        # Looked up on the module at each request, so a test can replace
        # `urllib.request.urlopen`.  A first import from a pool thread is
        # safe: the import system locks each module while it loads.
        import urllib.error
        import urllib.request

        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
        }
        if self.config.seed is not None:
            body["seed"] = self.config.seed + round_index
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.config.endpoint, data=payload, headers=headers)
        doc = None
        last_error: Exception | None = None
        for _ in range(self.config.retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                    doc = json.loads(resp.read().decode("utf-8"))
                break
            except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
                last_error = exc
        if doc is None:
            raise ClientTransportError(str(last_error)) from last_error
        try:
            return doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientTransportError(f"unexpected response shape: {exc}") from exc
