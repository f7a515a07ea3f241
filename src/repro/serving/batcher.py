"""The micro-batcher: coalesce concurrent requests into kernel batches.

Concurrent callers pay per-request Python and dispatch overhead; the
corpus-side kernels (``search_batch``, ``embed_many``, ``query_batch``)
amortize almost all of it across a batch. The batcher closes that gap
without a timer: batching is **work-conserving**. A window is dispatched
as soon as the executor has capacity (one in-flight batch per live
worker); while every worker is busy, requests wait in the queue, and
when one frees up everything queued (up to ``max_batch``) goes out as
one window. So batches form exactly when there is load, and no request
waits on an idle pool. ``max_wait_ms`` is an optional linger on top,
counted from the window's first request, so a request that was already
held for capacity never lingers again. Each window is split into
**compatibility groups** — requests whose payloads can ride in one
kernel call, e.g. searches sharing ``k`` — and each group is handed to
the dispatch callable as one batch.

Batching never changes results: every kernel on the dispatch path is
bit-identical between batched and single-shot execution (a property the
embedding and nearest-neighbour layers maintain deliberately), so a
request observes exactly the bytes a lone ``GitTables`` call returns.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

__all__ = ["MicroBatcher", "Request"]

#: Queue sentinel telling the window loop to shut down.
_CLOSE = object()


@dataclass
class Request:
    """One admitted request riding through the batcher to a worker."""

    seq: int
    endpoint: str
    #: Compatibility key: requests are batched together iff equal.
    key: tuple
    #: Endpoint-specific payload (query string, prefix tuple, options).
    payload: object
    #: Resolved with the endpoint result (or a ServingError).
    future: object
    #: ``time.monotonic()`` at admission (latency measurement base).
    submitted_at: float = field(default_factory=time.monotonic)
    #: Absolute ``time.monotonic()`` deadline, or None for no deadline.
    deadline: float | None = None
    #: Set (under the service lock) when the request has been resolved;
    #: guards against double resolution on crash/close races.
    resolved: bool = False

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline


class MicroBatcher:
    """Collects queued requests into windows and dispatches them grouped.

    ``dispatch`` receives a non-empty list of requests sharing one
    compatibility key; it must resolve (or arrange resolution of) every
    future it is handed. Should it raise instead, the group's requests
    are failed through ``resolve`` (``resolve(request, error=...)``, the
    service's once-only resolution callback). ``wait_for_capacity``
    blocks the window loop until the executor can take another batch.
    The batcher thread never blocks on results — dispatch is expected
    to either hand the batch to a worker pool asynchronously or execute
    it inline.
    """

    def __init__(
        self, dispatch, resolve, wait_for_capacity, max_batch: int, max_wait_ms: float
    ) -> None:
        self._dispatch = dispatch
        self._resolve = resolve
        self._wait_for_capacity = wait_for_capacity
        self._max_batch = max_batch
        self._max_wait_s = max_wait_ms / 1000.0
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="gittables-serve-batcher", daemon=True
        )
        self._thread.start()

    def submit(self, request: Request) -> None:
        """Enqueue one admitted request (admission control is the caller's)."""
        self._queue.put(request)

    def stop(self) -> None:
        """Dispatch everything already queued, then stop the window loop.

        A window held for capacity must be released first (the
        executor's ``release_waiters``), or this waits for a worker.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(_CLOSE)
        self._thread.join()

    # -- window loop -------------------------------------------------------

    def _run(self) -> None:
        closing = False
        while not closing:
            first = self._queue.get()
            if first is _CLOSE:
                break
            # Requests arriving while every worker is busy queue up
            # behind ``first`` and join its window once capacity frees.
            self._wait_for_capacity()
            window = [first]
            linger_until = first.submitted_at + self._max_wait_s
            while len(window) < self._max_batch:
                remaining = linger_until - time.monotonic()
                try:
                    nxt = self._queue.get(timeout=max(0.0, remaining))
                except queue.Empty:
                    break
                if nxt is _CLOSE:
                    closing = True
                    break
                window.append(nxt)
            self._dispatch_window(window)
        # Closing: everything still queued was admitted before stop(),
        # so it is dispatched (drained), not dropped.
        leftovers: list[Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _CLOSE:
                continue
            leftovers.append(item)
            if len(leftovers) >= self._max_batch:
                self._dispatch_window(leftovers)
                leftovers = []
        if leftovers:
            self._dispatch_window(leftovers)

    def _dispatch_window(self, window: list) -> None:
        """Split one window into compatibility groups and dispatch each."""
        groups: dict[tuple, list[Request]] = {}
        for request in window:
            groups.setdefault(request.key, []).append(request)
        for group in groups.values():
            try:
                self._dispatch(group)
            except Exception as error:
                # Through the service's resolver, so the admission slot
                # is released and the failure is counted.
                for request in group:
                    self._resolve(request, error=error)
