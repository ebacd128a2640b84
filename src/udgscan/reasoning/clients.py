"""Inference clients: live HTTP and deterministic mocks.

The HTTP stack (`urllib.request`, and with it `ssl`, `http.client` and
`email`) is imported by the live client on its first request, so a mock or
replay scan never loads it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Protocol

from ..errors import ClientTransportError, ConfigError
from ..jsonio import decode

TIMEOUT_S = 120.0  # seconds per HTTP attempt
RETRIES = 2  # further attempts after a failed request


class InferenceClient(Protocol):
    def complete(self, prompt: str, round_index: int = 0) -> str: ...


class MockInferenceClient:
    """Deterministic client for offline runs and tests.

    With a script, responses are served in call order, each once; a unit
    uses as many entries as the rounds it asks, which end once its majority
    is decided (`reasoning.votes.query_rounds`).  A scan runs detection
    units concurrently, so that order is defined only within one unit's
    rounds: a multi-unit scan needs a responder, a function whose response
    is a pure function of (prompt, round).  The default always votes
    non-vulnerable.  A responder that waits still runs on the issuing
    thread: wrap it in a layer without `in_process` to run it on the pool.
    """

    in_process = True  # answers without waiting: `udgscan.pool.issue` asks it on the issuing thread
    __slots__ = ("script", "responder", "_cursor", "_lock")

    def __init__(
        self, script: list[str] | None = None, responder: Callable[[str, int], str] | None = None
    ) -> None:
        self.script = script
        self.responder = responder
        self._cursor = 0
        self._lock = threading.Lock()

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


class LiveInferenceClient:
    """Minimal chat-completion HTTP client behind the InferenceClient contract.

    The settings are `ScanConfig`'s fields of the same names.  A request
    that fails, or whose body `udgscan.jsonio.decode` rejects or finds to be
    JSON `null`, is tried again up to `RETRIES` times and then is a
    `ClientTransportError`.
    """

    def __init__(self, *, endpoint: str, model: str, api_key_env: str, temperature: float, seed: int | None):
        if not endpoint or not model:
            raise ConfigError("live client requires endpoint and model")
        self.endpoint = endpoint
        self.model = model
        self.temperature = temperature
        self.seed = seed
        self.api_key = os.environ.get(api_key_env, "")

    def complete(self, prompt: str, round_index: int = 0) -> str:
        # Looked up on the module at each request, so a test can replace
        # `urllib.request.urlopen`.  A first import from a pool thread is
        # safe: the import system locks each module while it loads.
        import urllib.error
        import urllib.request

        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
        }
        if self.seed is not None:
            body["seed"] = self.seed + round_index
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint, data=payload, headers=headers)
        last_error: Exception | None = None
        for _ in range(RETRIES + 1):
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as resp:
                    doc = decode(resp.read())
            except (urllib.error.URLError, TimeoutError, ValueError) as exc:
                last_error = exc
                continue
            if doc is not None:
                break
            last_error = ValueError("response body is JSON null")
        else:
            raise ClientTransportError(str(last_error)) from last_error
        try:
            return doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientTransportError(f"unexpected response shape: {exc}") from exc
