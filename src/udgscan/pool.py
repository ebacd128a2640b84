"""Issuing model requests: at once, or on a bounded thread pool.

Code that asks a model issues a batch of calls in a fixed order with
`issue`, each making its requests and returning an outcome, and reads the
outcomes back in that order, so that nothing it decides depends on which
call finishes first: only the calls overlap.  Reading the outcomes in
issue order also re-raises the first failure in that order.
"""

from __future__ import annotations

import time

from .transcript import Recorder, Replay

# A call whose wall time exceeds its thread's CPU time by this much waited on
# something outside the interpreter, such as a model endpoint: far longer
# than the host usually takes the CPU away from a thread, far shorter than
# a model takes to answer.
WAIT_S = 0.01


class _Done:
    """A call already made, read like a finished future: `result()`
    returns its value or raises its exception."""

    def __init__(self, fn, args: tuple):
        self._value = self._error = None
        try:
            self._value = fn(*args)
        except Exception as exc:  # raised again when the result is read
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class RequestPool:
    """Runs the request calls of one scan, at most `jobs` at once.

    Calls run at once on the calling thread until one of them waits; from
    then on they run on a thread pool.  Under the interpreter lock threads
    overlap only waiting, so calls that compute, like the offline mocks',
    would gain nothing from them and pay a hand-off between threads each.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.executor = None  # started after the first call that waits

    def __enter__(self) -> RequestPool:
        return self

    def __exit__(self, *exc_info) -> None:
        # An aborted scan reads no more answers: calls not yet started are dropped.
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)

    def submit(self, fn, *args):
        if self.executor is not None:
            return self.executor.submit(fn, *args)
        return _Done(self._timed, (fn, *args))

    def _timed(self, fn, *args):
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            return fn(*args)
        finally:
            waited = time.perf_counter() - wall - (time.thread_time() - cpu)
            if waited > WAIT_S and self.jobs > 1:
                # Imported here: loading the CLI, and a scan whose requests
                # never wait, do not need it.
                from concurrent.futures import ThreadPoolExecutor

                self.executor = ThreadPoolExecutor(self.jobs, thread_name_prefix="udgscan-request")


def issue(pool: RequestPool | None, fn, layer, *args):
    """Start `fn(layer, *args)`, whose requests go to `layer`, on `pool`,
    or at once when `pool` is None, and return its future.

    A `Recorder` records the call's requests, in the order it makes them,
    at this place of its transcript, wherever and whenever it runs.  A
    `Replay` waits on nothing, so its requests are always made at once:
    requests that share a (tag, prompt) key then take their responses in
    issue order.
    """
    if isinstance(layer, Recorder):
        layer = layer.reserve()
    if pool is None or isinstance(layer, Replay):
        return _Done(fn, (layer, *args))
    return pool.submit(fn, layer, *args)
