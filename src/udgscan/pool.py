"""Issuing model requests: on the issuing thread, or on a bounded thread pool.

Code that asks a model issues a batch of calls in a fixed order with
`issue`, each making its requests and returning an outcome, and reads the
outcomes back in that order, so that nothing it decides depends on which
call finishes first: only the calls overlap.  Reading the outcomes in
issue order also re-raises the first failure in that order.

Where a call runs is decided by the layer it asks.  A layer whose class
sets `in_process = True` answers inside the interpreter and waits on
nothing, like the offline mocks and a transcript replay, so other threads
would overlap none of its work: its calls run on the issuing thread, each
when its outcome is first read, so in issue order and none after one that
fails.  Any other layer, such as a live endpoint or one a caller hands to
`scan()`, is taken to wait, and its calls go to the pool's threads.
"""

from __future__ import annotations

from .transcript import Recorder


class _Done:
    """A call made when its outcome is first read, read like a future:
    `result()` returns its value or raises its exception."""

    def __init__(self, fn, args: tuple):
        self._call = (fn, args)
        self._value = self._error = None

    def result(self):
        if self._call is not None:
            (fn, args), self._call = self._call, None
            try:
                self._value = fn(*args)
            except Exception as exc:  # raised again on every read
                self._error = exc
        if self._error is not None:
            raise self._error
        return self._value


class RequestPool:
    """Runs the request calls of one scan, at most `jobs` at once.

    The threads start at the first call submitted, which `issue` does only
    for a layer that waits; with `jobs` 1 calls run on the calling thread
    when their outcome is read, since one thread would overlap nothing.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.executor = None  # started by the first call submitted

    def __enter__(self) -> RequestPool:
        return self

    def __exit__(self, *exc_info) -> None:
        # An aborted scan reads no more answers: calls not yet started are dropped.
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)

    def submit(self, fn, *args):
        if self.jobs == 1:
            return _Done(fn, args)
        if self.executor is None:
            # Imported here: loading the CLI, and a scan whose layers all
            # run in-process, do not need it.
            from concurrent.futures import ThreadPoolExecutor

            self.executor = ThreadPoolExecutor(self.jobs, thread_name_prefix="udgscan-request")
        return self.executor.submit(fn, *args)


def issue(pool: RequestPool | None, fn, layer, *args):
    """Start `fn(layer, *args)`, whose requests go to `layer`, on `pool`,
    or, when `pool` is None or `layer` runs in-process, make it on this
    thread when its outcome is first read, and return its future.

    A `Recorder` records the call's requests, in the order it makes them,
    at this place of its transcript, wherever and whenever it runs.  Since
    a `Replay` runs in-process, its requests are made in issue order:
    requests that share a (tag, prompt) key take their responses in that
    order.
    """
    if isinstance(layer, Recorder):
        layer = layer.reserve()
    if pool is None or getattr(layer, "in_process", False):
        return _Done(fn, (layer, *args))
    return pool.submit(fn, layer, *args)
