"""The serving worker pool: N processes over one mmap'd store directory.

Each worker process opens the corpus store directory **read-only** via
:meth:`GitTables.load` and warms its query engines from the store's
fingerprint-guarded index artifacts — one ``np.load(mmap_mode="r")``
per index instead of a corpus-wide re-embed, with the page cache shared
across the whole pool. The parent never ships corpus data to workers:
a task is just ``(batch id, endpoint, compatibility key, payloads)``
and a result is the pickled list of per-request results.

The parent-side :class:`WorkerPool` routes each batch to the
least-loaded live worker and gates the micro-batcher on capacity — one
in-flight batch per live worker, so requests wait (and coalesce) in the
batcher while every worker is busy. It watches for crashed workers (a
worker that died mid-batch is detected on the collector's next idle
tick), respawns them within the configured budget, and re-dispatches a
dead worker's in-flight batches exactly once — a batch orphaned twice
fails with :class:`~repro.errors.WorkerCrashed`. Request futures are
resolved by one collector thread; a result that lands after its
request's deadline resolves to :class:`~repro.errors.DeadlineExceeded`
instead.

:class:`LocalExecutor` is the degenerate pool for ``workers=0`` (and
for sessions without a store directory): batches execute inline on the
batcher thread against the parent's own session — still micro-batched
(requests queue while a batch runs), no processes involved.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
import traceback

from ..errors import ServiceClosed, ServingError, WorkerCrashed
from ..storage.parallel import build_mp_context
from ..storage.sharded import read_store_version
from .batcher import Request
from .endpoints import execute_batch

__all__ = ["LocalExecutor", "WorkerPool"]

#: How long pool construction waits for every worker's ready ack.
STARTUP_TIMEOUT_SECONDS = 120.0

#: Minimum seconds between a worker's store-version probes (one bounded
#: manifest read each) — reload detection latency, not correctness, is
#: at stake.
EPOCH_PROBE_INTERVAL_SECONDS = 0.5


def _serving_worker_main(
    directory: str, worker: int, parent_pid: int, task_queue, result_queue, index_config=None
):
    """Worker process entry point: serve endpoint batches until told to stop.

    Sends ``("ready", worker, pid)`` once the session is loaded and its
    engines are warm, then answers every ``("batch", id, endpoint, key,
    payloads)`` task with ``("ok", worker, id, results, index_stats,
    store_state)`` — or ``("error", worker, id, traceback, None,
    store_state)`` for a failing batch, which does *not* kill the worker
    (one malformed batch must not take down the pool). The piggybacked
    ``index_stats`` element is the session's cumulative ANN-tier
    instrumentation (None when no engine is built) and ``store_state``
    is ``{"epoch": ..., "generation": ..., "reloads": ...}``, so the
    parent's metrics see the tier and store version in use without an
    extra round trip.

    Between batches (and on idle ticks) the worker probes the store
    manifest's epoch and generation counters: when the directory has
    been **extended** (sealed at a newer epoch than the session was
    loaded from) the session is reloaded — warming from the
    delta-refreshed artifacts, or delta-refreshing them itself when it
    wins the race; when it has been **compacted** (layout generation
    bumped, same content fingerprint) the reload re-opens the new shard
    layout over the *same* mmap'd artifacts, so no embedding work
    happens at all. Either way a long-lived pool follows the store
    without a restart. Exits on the ``None`` sentinel or when the
    parent dies.
    """

    def leave():
        # Never block process exit on flushing acks nobody will read
        # (same rationale as the build workers).
        result_queue.cancel_join_thread()

    try:
        from ..api import GitTables

        session = GitTables.load(directory, index_config=index_config)
        # Warm the served engines now — resolved from mmap'd artifacts
        # when the store holds valid ones — so the first request does
        # not pay the build cost.
        _ = session.search_engine
        _ = session.completer
        epoch, _sealed, generation = read_store_version(directory)
    except Exception:
        result_queue.put(("error", worker, None, traceback.format_exc(), None, None))
        return leave()
    result_queue.put(("ready", worker, os.getpid()))
    memo: dict = {}
    reloads = 0
    last_probe = time.monotonic()

    def maybe_reload():
        """Reload when the store sealed a newer epoch or re-sharded."""
        nonlocal session, epoch, generation, reloads, last_probe
        now = time.monotonic()
        if now - last_probe < EPOCH_PROBE_INTERVAL_SECONDS:
            return
        last_probe = now
        try:
            current, sealed, current_generation = read_store_version(directory)
            if not sealed or (current <= epoch and current_generation == generation):
                return
            fresh = GitTables.load(directory, index_config=index_config)
            _ = fresh.search_engine
            _ = fresh.completer
        except Exception:
            return  # keep serving the current view; retry next probe
        session = fresh
        memo.clear()  # memoized results may describe the older view
        epoch = current
        generation = current_generation
        reloads += 1

    while True:
        try:
            task = task_queue.get(timeout=0.5)
        except queue_module.Empty:
            if os.getppid() != parent_pid:
                return leave()  # orphaned by a dead parent
            maybe_reload()
            continue
        if task is None:
            return leave()
        maybe_reload()
        store_state = {"epoch": epoch, "generation": generation, "reloads": reloads}
        _, batch_id, endpoint, key, payloads = task
        try:
            results = execute_batch(session, endpoint, key, payloads, memo=memo)
            result_queue.put(
                ("ok", worker, batch_id, results, session.index_stats() or None, store_state)
            )
        except Exception:
            result_queue.put(
                ("error", worker, batch_id, traceback.format_exc(), None, store_state)
            )


class LocalExecutor:
    """Inline batch execution against the parent's own session."""

    def __init__(self, session, resolve, on_stats=None) -> None:
        self._session = session
        self._resolve = resolve
        self._on_stats = on_stats
        self._memo: dict = {}

    def dispatch(self, requests: list[Request]) -> None:
        first = requests[0]
        try:
            results = execute_batch(
                self._session,
                first.endpoint,
                first.key,
                [request.payload for request in requests],
                memo=self._memo,
            )
        except Exception as error:
            for request in requests:
                self._resolve(request, error=error)
            return
        if self._on_stats is not None:
            stats = self._session.index_stats()
            if stats:
                self._on_stats("local", stats)
        for request, result in zip(requests, results):
            self._resolve(request, result=result)

    def wait_for_capacity(self) -> None:
        """Never blocks: dispatch runs inline on the batcher thread."""

    def release_waiters(self) -> None:
        pass

    def drain(self, timeout: float) -> bool:
        return True  # dispatch is synchronous; nothing is ever in flight

    def close(self) -> None:
        pass

    def worker_pids(self) -> list[int]:
        return []

    def worker_info(self) -> dict:
        return {"configured": 0, "alive": 0}


class _WorkerHandle:
    """Parent-side state for one worker slot (survives respawns)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.task_queue = None
        self.pid: int | None = None
        self.load = 0
        self.dead = False


class _Batch:
    """One dispatched compatibility group awaiting its result."""

    def __init__(self, batch_id: int, requests: list[Request], worker: int) -> None:
        self.batch_id = batch_id
        self.requests = requests
        self.worker = worker
        self.retried = False


class WorkerPool:
    """N serving processes plus the dispatcher/collector glue.

    ``resolve`` is the service's resolution callback
    (``resolve(request, result=..., error=...)``); the pool guarantees
    every dispatched request is eventually resolved exactly once —
    normally, with the endpoint result, or with
    :class:`~repro.errors.WorkerCrashed` when the retry budget is spent.
    """

    def __init__(
        self,
        directory: str,
        workers: int,
        resolve,
        max_respawns: int = 3,
        on_crash=None,
        on_stats=None,
        on_store=None,
        index_config=None,
        mp_context=None,
    ) -> None:
        self._directory = str(directory)
        self._resolve = resolve
        self._max_respawns = max_respawns
        self._on_crash = on_crash
        self._on_stats = on_stats
        self._on_store = on_store
        self._index_config = index_config
        self._mp = mp_context if mp_context is not None else build_mp_context()
        self._result_queue = self._mp.Queue()
        self._lock = threading.Lock()
        #: Signalled (under ``_lock``) whenever a batch leaves
        #: ``_batches`` or the set of live workers changes: the
        #: batcher's capacity wait and ``drain`` both sleep on it.
        self._capacity = threading.Condition(self._lock)
        self._released = False
        self._batches: dict[int, _Batch] = {}
        self._next_batch_id = 0
        self._respawns_used = 0
        self._closed = False
        self._workers = [_WorkerHandle(index) for index in range(workers)]
        for handle in self._workers:
            self._start_worker(handle)
        self._await_ready()
        self._collector = threading.Thread(
            target=self._collect, name="gittables-serve-collector", daemon=True
        )
        self._collector.start()

    # -- worker lifecycle --------------------------------------------------

    def _start_worker(self, handle: _WorkerHandle) -> None:
        handle.task_queue = self._mp.Queue()
        handle.process = self._mp.Process(
            target=_serving_worker_main,
            args=(
                self._directory,
                handle.index,
                os.getpid(),
                handle.task_queue,
                self._result_queue,
                self._index_config,
            ),
            daemon=True,
            name=f"gittables-serve-w{handle.index:02d}",
        )
        handle.dead = False
        handle.pid = None
        handle.load = 0
        handle.process.start()

    def _await_ready(self) -> None:
        """Block until every worker acked readiness (or one failed to load)."""
        pending = {handle.index for handle in self._workers}
        deadline = time.monotonic() + STARTUP_TIMEOUT_SECONDS
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise ServingError(
                    f"serving workers {sorted(pending)} did not become ready in time"
                )
            try:
                message = self._result_queue.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                for index in list(pending):
                    if not self._workers[index].process.is_alive():
                        self.close()
                        raise ServingError(f"serving worker {index} died during startup")
                continue
            if message[0] == "error":
                self.close()
                raise ServingError(f"serving worker {message[1]} failed to start:\n{message[3]}")
            if message[0] == "ready":
                _, index, pid = message
                self._workers[index].pid = pid
                pending.discard(index)

    def worker_pids(self) -> list[int]:
        with self._lock:
            return [handle.pid for handle in self._workers if not handle.dead and handle.pid]

    def worker_info(self) -> dict:
        with self._lock:
            return {"configured": len(self._workers), "alive": len(self._live_locked())}

    # -- dispatch ----------------------------------------------------------

    def wait_for_capacity(self) -> None:
        """Block until a live worker could take a batch without queueing.

        Capacity is one in-flight batch per live worker. With no live
        worker the wait lasts only while a respawn is still possible; a
        pool that can never serve again returns at once, so the next
        dispatch fails fast instead of holding requests forever.
        """
        with self._capacity:
            self._capacity.wait_for(self._has_capacity_locked)

    def _has_capacity_locked(self) -> bool:
        if self._released:
            return True
        live = len(self._live_locked())
        if live:
            return len(self._batches) < live
        return self._closed or self._respawns_used >= self._max_respawns

    def release_waiters(self) -> None:
        """End every capacity wait, now and later: the service is closing.

        The batcher's close drain dispatches every admitted request at
        once; ``drain`` then bounds how long they may take.
        """
        with self._capacity:
            self._released = True
            self._capacity.notify_all()

    def dispatch(self, requests: list[Request]) -> None:
        """Route one compatibility group to the least-loaded live worker."""
        with self._lock:
            target = self._least_loaded_locked()
            if target is None:
                error = WorkerCrashed("no live serving workers remain")
                batch = None
            else:
                error = None
                batch = _Batch(self._next_batch_id, requests, target.index)
                self._next_batch_id += 1
                self._batches[batch.batch_id] = batch
                target.load += len(requests)
        if error is not None:
            for request in requests:
                self._resolve(request, error=error)
            return
        self._send(target, batch)

    def _send(self, target: _WorkerHandle, batch: _Batch) -> None:
        """Enqueue one registered batch on a worker's task queue.

        ``put`` can raise — the queue is full, or its feeder is gone
        because the worker crashed and was torn down. Swallowing that
        would strand every future in the batch until its deadline (the
        worker never saw the task, so no result can ever arrive).
        Instead the failure is handled exactly like an orphaned batch of
        a crashed worker: unregister, retry once on another worker (the
        rejecting one only when no other is live), then fail with
        :class:`~repro.errors.WorkerCrashed`.
        """
        first = batch.requests[0]
        try:
            target.task_queue.put(
                ("batch", batch.batch_id, first.endpoint, first.key,
                 [request.payload for request in batch.requests])
            )
            return
        except Exception:
            pass
        with self._lock:
            owned = self._batches.pop(batch.batch_id, None) is not None
            if owned:
                target.load -= len(batch.requests)
                self._capacity.notify_all()
        if not owned:
            # Crash handling already claimed this batch (and will
            # re-dispatch or fail it); a second owner would double-resolve.
            return
        if batch.retried:
            error = WorkerCrashed(
                f"serving worker {target.index} rejected this request's batch "
                f"twice (task queue full or closed)"
            )
            for request in batch.requests:
                self._resolve(request, error=error)
            return
        batch.retried = True
        self._redispatch(batch, exclude=target.index)

    def _live_locked(self) -> list[_WorkerHandle]:
        return [h for h in self._workers if not h.dead and h.process is not None]

    def _least_loaded_locked(self, exclude: int | None = None):
        live = self._live_locked()
        if exclude is not None and len(live) > 1:
            live = [h for h in live if h.index != exclude]
        if not live:
            return None
        return min(live, key=lambda handle: (handle.load, handle.index))

    # -- collection --------------------------------------------------------

    def _collect(self) -> None:
        while True:
            try:
                message = self._result_queue.get(timeout=0.2)
            except queue_module.Empty:
                if self._closed and not self._batches:
                    return
                self._check_liveness()
                continue
            kind = message[0]
            if kind == "ready":
                _, index, pid = message
                with self._lock:
                    self._workers[index].pid = pid
                continue
            _, worker, batch_id, body, index_stats, store_state = message
            if index_stats is not None and self._on_stats is not None:
                self._on_stats(f"worker-{worker:02d}", index_stats)
            if store_state is not None and self._on_store is not None:
                self._on_store(f"worker-{worker:02d}", store_state)
            if batch_id is None:
                continue  # init failure of a respawn; liveness check handles it
            with self._lock:
                batch = self._batches.pop(batch_id, None)
                if batch is not None:
                    self._workers[batch.worker].load -= len(batch.requests)
            if batch is None:
                continue  # duplicate result for a re-dispatched batch
            if kind == "ok":
                for request, result in zip(batch.requests, body):
                    self._resolve(request, result=result)
            else:
                error = ServingError(f"serving worker {worker} failed a batch:\n{body}")
                for request in batch.requests:
                    self._resolve(request, error=error)
            # Signalled after the answers are delivered: the next window
            # forms from what queued meanwhile, and the batcher does not
            # compete with the callers this batch just released.
            with self._capacity:
                self._capacity.notify_all()

    def _check_liveness(self) -> None:
        """Respawn crashed workers and re-dispatch their orphaned batches."""
        crashed = []
        with self._lock:
            for handle in self._workers:
                if handle.dead or handle.process is None:
                    continue
                if not handle.process.is_alive():
                    handle.dead = True
                    crashed.append(handle)
        for handle in crashed:
            self._handle_crash(handle)

    def _handle_crash(self, handle: _WorkerHandle) -> None:
        with self._lock:
            orphaned = [
                batch for batch in self._batches.values() if batch.worker == handle.index
            ]
            for batch in orphaned:
                del self._batches[batch.batch_id]
            handle.load = 0
            closing = self._closed
            respawn = not closing and self._respawns_used < self._max_respawns
            if respawn:
                self._respawns_used += 1
        if respawn:
            # Abandon the dead worker's task queue (anything it never
            # picked up is re-dispatched below; the old process cannot
            # produce results, so nothing can double-resolve).
            handle.task_queue.cancel_join_thread()
            self._start_worker(handle)
        # Counters flip only after the replacement handle is live, so a
        # metrics snapshot never reports a respawn with zero alive workers.
        if self._on_crash is not None:
            self._on_crash(respawned=respawn)
        failures, retries = [], []
        for batch in orphaned:
            # A worker lost during close() is being shut down; nothing
            # would run a re-dispatched batch, so it fails as closed.
            (failures if batch.retried or closing else retries).append(batch)
        for batch in retries:
            # One retry per batch: requests are read-only queries, so
            # re-running them is safe; a second orphaning means the
            # requests themselves are implicated, so they fail instead.
            batch.retried = True
            self._redispatch(batch)
        # Signalled only once the replacement is live and the retries
        # are back in flight: a capacity wait woken in between could see
        # no live worker and a spent budget, and dispatch into a failure.
        with self._capacity:
            self._capacity.notify_all()
        if closing:
            error = ServiceClosed("service closed before the batch resolved")
        else:
            error = WorkerCrashed(
                f"serving worker {handle.index} died twice while running this request"
            )
        for batch in failures:
            for request in batch.requests:
                self._resolve(request, error=error)

    def _redispatch(self, batch: _Batch, exclude: int | None = None) -> None:
        with self._lock:
            target = self._least_loaded_locked(exclude=exclude)
            if target is not None:
                batch.worker = target.index
                self._batches[batch.batch_id] = batch
                target.load += len(batch.requests)
        if target is None:
            error = WorkerCrashed("no live serving workers remain")
            for request in batch.requests:
                self._resolve(request, error=error)
            return
        self._send(target, batch)

    # -- shutdown ----------------------------------------------------------

    def drain(self, timeout: float) -> bool:
        """Wait until no batch is in flight; False if ``timeout`` elapsed."""
        with self._capacity:
            return self._capacity.wait_for(lambda: not self._batches, timeout)

    def close(self) -> None:
        """Stop every worker and the collector; fail anything still in flight."""
        self._closed = True
        for handle in self._workers:
            if handle.task_queue is not None:
                try:
                    handle.task_queue.put_nowait(None)
                except Exception:  # pragma: no cover - full/closed queue
                    pass
        deadline = time.monotonic() + 10.0
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            while process.is_alive() and time.monotonic() < deadline:
                process.join(timeout=0.2)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=2.0)
        collector = getattr(self, "_collector", None)
        if collector is not None and collector.is_alive():
            collector.join(timeout=5.0)
        with self._lock:
            stranded = list(self._batches.values())
            self._batches.clear()
        error = ServiceClosed("service closed before the batch resolved")
        for batch in stranded:
            for request in batch.requests:
                self._resolve(request, error=error)
        for handle in self._workers:
            if handle.task_queue is not None:
                handle.task_queue.cancel_join_thread()
        self._result_queue.cancel_join_thread()
