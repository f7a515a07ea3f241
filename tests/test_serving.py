"""Tests for the concurrent query serving layer (``repro.serving``).

Covers the ISSUE-6 edge cases: empty corpora, single-request windows
(no batching regression), bit-identity of coalesced results, deadline
expiry mid-batch, overload rejection, close semantics, and a worker
SIGKILL mid-request with transparent respawn (reusing the PR-5 fault
idiom of killing a live worker pid and asserting recovery).

The in-process tests (``workers=0``) run the exact same batcher and
endpoint groups as the pool, minus the process hop, so they pin the
coalescing semantics cheaply; the pool tests exercise the mmap'd
worker path over a real saved store.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import os
import queue
import signal
import sys
import threading
import time

import pytest

from repro import GitTables, GitTablesCorpus, ServingConfig
from repro.config import PipelineConfigError
from repro.errors import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceOverloaded,
    ServingError,
    WorkerCrashed,
)
from repro.serving.service import QueryService

DETECT_OPTIONS = {"columns_per_type": 8, "epochs": 2, "n_splits": 2}


@pytest.fixture(scope="module")
def store_session(gittables_corpus, tmp_path_factory):
    """The small corpus saved to a sharded store, reloaded for serving."""
    directory = tmp_path_factory.mktemp("serving_store") / "corpus"
    GitTables.from_corpus(gittables_corpus).save(directory)
    return GitTables.load(directory)


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.workers == 2
        assert config.max_batch == 64

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": -1},
            {"workers": 100},
            {"max_batch": 0},
            {"max_wait_ms": -0.1},
            {"max_queue": 0},
            {"default_timeout_s": 0.0},
            {"max_respawns": -1},
            {"drain_timeout_s": 0.0},
            {"latency_samples": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(PipelineConfigError):
            ServingConfig(**overrides)

    def test_replace_and_in_process(self):
        config = ServingConfig().replace(max_batch=8)
        assert config.max_batch == 8
        assert ServingConfig.in_process().workers == 0


class TestInProcessService:
    def test_empty_corpus_serves_empty_results(self):
        session = GitTables.from_corpus(GitTablesCorpus())
        with session.serve(workers=0) as service:
            assert service.search("anything", k=5) == []
            assert service.complete_schema(["alpha", "beta"], k=5) == []

    def test_single_request_window_matches_single_shot(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_wait_ms=0.0) as service:
            served = service.search("employee salary", k=5)
        assert served == session.search("employee salary", k=5)
        snapshot = service.metrics()
        stats = snapshot["endpoints"]["search"]
        assert stats["completed"] == 1
        assert stats["batch_size_histogram"] == {"1": 1}
        assert stats["mean_batch_size"] == 1.0

    def test_concurrent_searches_are_bit_identical(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        queries = [f"table about topic {index}" for index in range(12)]
        expected = [session.search(query, k=4) for query in queries]
        with session.serve(workers=0, max_wait_ms=20.0) as service:
            futures = [service.submit_search(query, k=4) for query in queries]
            results = [future.result(timeout=60) for future in futures]
        assert results == expected
        snapshot = service.metrics()
        stats = snapshot["endpoints"]["search"]
        assert stats["completed"] == len(queries)
        # The coalescer must have merged at least some of the burst.
        assert stats["batches"] < len(queries)

    def test_mixed_endpoints_share_a_window(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        expected_search = session.search("orders", k=3)
        expected_completion = session.complete_schema(["name", "email"], k=3)
        with session.serve(workers=0, max_wait_ms=20.0) as service:
            search_future = service.submit_search("orders", k=3)
            completion_future = service.submit_complete_schema(["name", "email"], k=3)
            assert search_future.result(timeout=60) == expected_search
            assert completion_future.result(timeout=60) == expected_completion

    def test_detect_types_requests_share_one_run(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        expected = session.detect_types(**DETECT_OPTIONS)
        with session.serve(workers=0, max_wait_ms=50.0) as service:
            futures = [
                service.submit_detect_types(**DETECT_OPTIONS) for _ in range(3)
            ]
            results = [future.result(timeout=120) for future in futures]
        assert all(result == expected for result in results)
        stats = service.metrics()["endpoints"]["detect_types"]
        assert stats["completed"] == 3

    def test_invalid_payloads_rejected_at_submit(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0) as service:
            with pytest.raises(ServingError):
                service.submit_search("", k=3)
            with pytest.raises(ServingError):
                service.submit_search("ok", k=0)
            with pytest.raises(ServingError):
                service.submit_complete_schema([], k=3)
            with pytest.raises(ServingError):
                service.submit_detect_types(eval_corpus=GitTablesCorpus())
        # Rejected payloads never entered the pipeline.
        assert service.metrics()["endpoints"] == {}

    def test_overloaded_queue_rejects_new_requests(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_queue=1, max_wait_ms=500.0) as service:
            # The first request holds the window open for up to 500ms;
            # the second submit exceeds the queue bound immediately.
            held = service.submit_search("first", k=2)
            with pytest.raises(ServiceOverloaded):
                service.submit_search("second", k=2)
            assert held.result(timeout=60) == session.search("first", k=2)
        snapshot = service.metrics()
        assert snapshot["endpoints"]["search"]["rejected"] == 1

    def test_failed_dispatch_releases_its_admission_slot(self, monkeypatch):
        session = GitTables.from_corpus(GitTablesCorpus())
        with session.serve(workers=0, max_queue=1) as service:
            dispatch = service._executor.dispatch
            calls = []

            def fails_once(requests):
                calls.append(len(requests))
                if len(calls) == 1:
                    raise RuntimeError("injected dispatch failure")
                dispatch(requests)

            monkeypatch.setattr(service._executor, "dispatch", fails_once)
            with pytest.raises(RuntimeError, match="injected"):
                service.submit_search("first", k=2).result(timeout=60)
            # The failed request gave its slot back: with max_queue=1 the
            # next submit is admitted instead of raising ServiceOverloaded.
            assert service.submit_search("second", k=2).result(timeout=60) == []
            stats = service.metrics()["endpoints"]["search"]
        assert calls == [1, 1]
        assert stats["failed"] == 1
        assert stats["completed"] == 1
        assert stats["rejected"] == 0

    def test_closed_service_rejects_submissions(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        service = session.serve(workers=0)
        service.close()
        assert service.closed
        with pytest.raises(ServiceClosed):
            service.submit_search("anything", k=2)
        # close() is idempotent.
        service.close()


class TestWorkerPoolService:
    def test_pool_requires_store_directory(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with pytest.raises(ServingError):
            session.serve(workers=1)

    def test_pool_results_match_single_shot(self, store_session):
        queries = [f"table about topic {index}" for index in range(10)]
        prefixes = [["name", "email"], ["order", "price"]]
        expected_search = [store_session.search(query, k=4) for query in queries]
        expected_completion = [
            store_session.complete_schema(prefix, k=4) for prefix in prefixes
        ]
        with store_session.serve(workers=2, max_wait_ms=20.0) as service:
            assert len(service.worker_pids()) == 2
            search_futures = [service.submit_search(q, k=4) for q in queries]
            completion_futures = [
                service.submit_complete_schema(p, k=4) for p in prefixes
            ]
            searched = [f.result(timeout=120) for f in search_futures]
            completed = [f.result(timeout=120) for f in completion_futures]
        assert searched == expected_search
        assert completed == expected_completion
        snapshot = service.metrics()
        assert snapshot["workers"]["configured"] == 2
        assert snapshot["workers"]["crashes"] == 0

    def test_deadline_expiry_mid_batch(self, store_session):
        with store_session.serve(workers=1, max_wait_ms=0.0) as service:
            future = service.submit_search("anything", k=3, timeout=1e-6)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=120)
            # A later request with a sane deadline still succeeds: the
            # expired request poisoned neither the batch nor the worker.
            assert service.search("anything", k=3) == store_session.search(
                "anything", k=3
            )
        snapshot = service.metrics()
        assert snapshot["endpoints"]["search"]["deadline_expired"] == 1

    def test_worker_sigkill_mid_request_is_transparent(self, store_session):
        # Ten distinct detect runs (distinct option keys, so no memo
        # sharing) give the lone worker ~2s of sequential work; the kill
        # lands while some are in flight and some are still queued.
        option_sets = [
            {"columns_per_type": 8, "epochs": epochs, "n_splits": 2}
            for epochs in range(2, 12)
        ]
        expected = [store_session.detect_types(**options) for options in option_sets]
        with store_session.serve(workers=1, max_wait_ms=0.0) as service:
            pids = service.worker_pids()
            assert len(pids) == 1
            futures = [
                service.submit_detect_types(timeout=300, **options)
                for options in option_sets
            ]
            # Let the first batches reach the worker before killing it.
            time.sleep(0.5)
            os.kill(pids[0], signal.SIGKILL)
            results = [future.result(timeout=300) for future in futures]
            assert results == expected
            # The crash is detected on a collector tick and the counters
            # flip before the replacement handle is registered; poll the
            # whole recovered state within a bounded window rather than
            # asserting on the first snapshot.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                snapshot = service.metrics()
                workers = snapshot["workers"]
                if (
                    workers["crashes"] >= 1
                    and workers["respawns"] >= 1
                    and workers["alive"] == 1
                ):
                    break
                time.sleep(0.1)
            assert snapshot["workers"]["crashes"] >= 1
            assert snapshot["workers"]["respawns"] >= 1
            assert snapshot["workers"]["alive"] == 1
            # Crash handling released the capacity the dead worker held:
            # the batcher is not stuck, and the respawned pool serves.
            assert service.search("after the respawn", k=3) == store_session.search(
                "after the respawn", k=3
            )

    def test_blocking_wait_converts_timeout(self, store_session):
        with store_session.serve(workers=0, max_wait_ms=0.0) as service:
            with pytest.raises(DeadlineExceeded):
                service.detect_types(timeout=1e-6, **DETECT_OPTIONS)


class _GatedWorkers:
    """A stand-in multiprocessing context for :class:`WorkerPool`.

    Each "process" is a thread that acks ready, records the payloads of
    every task it takes, and answers (``answer:<payload>``) only once
    ``gate`` is set — so a test decides exactly when a worker's capacity
    frees. ``terminate`` (or the pool's shutdown sentinel) makes a
    worker drop its task and exit, like a killed process.
    """

    def __init__(self) -> None:
        self.gate = threading.Event()
        #: Payload lists in the order workers took them.
        self.tasks: list[list] = []
        #: Released once per task taken.
        self.taken = threading.Semaphore(0)
        self.processes: list = []
        self._pids = itertools.count(1_000_000)

    class Queue(queue.Queue):
        def __init__(self) -> None:
            super().__init__()
            self.shut = threading.Event()

        def put_nowait(self, item) -> None:
            if item is None:
                self.shut.set()
            super().put_nowait(item)

        def cancel_join_thread(self) -> None:
            pass

    def Process(self, target, args, daemon, name):
        process = _GatedWorkers._Process(self, args, next(self._pids))
        self.processes.append(process)
        return process

    class _Process:
        def __init__(self, context, args, pid) -> None:
            self.context = context
            self.pid = pid
            _, self.index, _, self.tasks, self.results, _ = args
            self.killed = threading.Event()
            self._thread = threading.Thread(target=self._serve, daemon=True)

        def start(self) -> None:
            self._thread.start()

        def is_alive(self) -> bool:
            return self._thread.is_alive()

        def join(self, timeout=None) -> None:
            self._thread.join(timeout)

        def terminate(self) -> None:
            self.killed.set()

        def _serve(self) -> None:
            self.results.put(("ready", self.index, self.pid))
            while True:
                task = self.tasks.get()
                if task is None:
                    return
                _, batch_id, _, _, payloads = task
                self.context.tasks.append(payloads)
                self.context.taken.release()
                while not self.context.gate.wait(0.01):
                    if self.killed.is_set() or self.tasks.shut.is_set():
                        return
                answers = [f"answer:{payload}" for payload in payloads]
                self.results.put(("ok", self.index, batch_id, answers, None, None))


class TestWorkConservingBatching:
    """Windows open when a worker is free, and hold while all are busy.

    Runs the real service, batcher and pool over :class:`_GatedWorkers`:
    no clock decides any outcome, only when the test opens the gate.
    """

    @staticmethod
    def _serve(context: _GatedWorkers, **overrides) -> QueryService:
        config = ServingConfig(workers=1).replace(**overrides)
        return QueryService(None, config, directory="gated-store", mp_context=context)

    def test_lone_request_on_an_idle_pool_is_dispatched_alone(self):
        assert ServingConfig().max_wait_ms == 0.0
        workers = _GatedWorkers()
        with self._serve(workers) as service:
            future = service.submit_search("alone", k=3)
            # Reaches the worker with nothing else submitted: no window
            # waited for company.
            assert workers.taken.acquire(timeout=60)
            workers.gate.set()
            assert future.result(timeout=60) == "answer:alone"
            stats = service.metrics()["endpoints"]["search"]
        assert workers.tasks == [["alone"]]
        assert stats["batch_size_histogram"] == {"1": 1}

    def test_requests_held_while_busy_coalesce_into_one_window(self):
        workers = _GatedWorkers()
        with self._serve(workers) as service:
            busy = service.submit_search("q0", k=3)
            assert workers.taken.acquire(timeout=60)  # the only worker is busy
            held = [service.submit_search(f"q{index}", k=3) for index in range(1, 6)]
            workers.gate.set()
            results = [future.result(timeout=60) for future in [busy, *held]]
        assert results == [f"answer:q{index}" for index in range(6)]
        assert [len(payloads) for payloads in workers.tasks] == [1, 5]

    def test_crash_handling_releases_held_capacity(self):
        workers = _GatedWorkers()
        with self._serve(workers, max_respawns=0) as service:
            busy = service.submit_search("q0", k=3)
            assert workers.taken.acquire(timeout=60)
            held = [service.submit_search(f"q{index}", k=3) for index in range(1, 4)]
            workers.processes[0].terminate()
            # No respawn budget: the orphan and everything held behind
            # the dead worker fail promptly instead of waiting forever.
            for future in [busy, *held]:
                with pytest.raises(WorkerCrashed):
                    future.result(timeout=60)
        assert [len(payloads) for payloads in workers.tasks] == [1]

    def test_close_is_bounded_when_capacity_never_frees(self):
        workers = _GatedWorkers()  # the gate never opens
        service = self._serve(workers, drain_timeout_s=0.2)
        busy = service.submit_search("q0", k=3)
        assert workers.taken.acquire(timeout=60)
        held = [service.submit_search(f"q{index}", k=3) for index in range(1, 4)]
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=60)
        assert not closer.is_alive()
        for future in [busy, *held]:
            with pytest.raises(ServiceClosed):
                future.result(timeout=0)
        assert service.metrics()["queue"]["depth"] == 0

    def test_concurrent_submitters_never_strand_a_request(self):
        # More workers and submitter threads than cores, and a short
        # switch interval: a lost capacity wake-up would hang a future.
        workers = _GatedWorkers()
        workers.gate.set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._serve(workers, workers=4, max_batch=8) as service:
                with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                    answers = list(
                        pool.map(
                            lambda index: service.search(f"q{index}", k=3, timeout=60),
                            range(400),
                        )
                    )
                snapshot = service.metrics()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [f"answer:q{index}" for index in range(400)]
        assert sorted(p for payloads in workers.tasks for p in payloads) == sorted(
            f"q{index}" for index in range(400)
        )
        assert snapshot["endpoints"]["search"]["completed"] == 400
        assert snapshot["queue"]["depth"] == 0


class TestServiceMetricsSnapshot:
    def test_snapshot_shape(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0, max_wait_ms=5.0) as service:
            service.search("snapshot probe", k=2)
            snapshot = service.metrics()
        assert snapshot["queue"]["limit"] == ServingConfig().max_queue
        assert snapshot["queue"]["depth"] == 0
        assert snapshot["queue"]["max_depth"] >= 1
        stats = snapshot["endpoints"]["search"]
        latency = stats["latency_ms"]
        assert latency["samples"] == 1
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert stats["qps"] > 0.0

    def test_concurrent_submitters_all_resolve(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        queries = [f"threaded query {index}" for index in range(8)]
        expected = {query: session.search(query, k=3) for query in queries}
        with session.serve(workers=0, max_wait_ms=10.0) as service:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                results = dict(
                    zip(
                        queries,
                        pool.map(lambda q: service.search(q, k=3), queries),
                    )
                )
        assert results == expected


class TestIndexTierMetrics:
    """``snapshot()['index']`` — the ANN-tier view fed by the executors."""

    def test_local_executor_reports_flat_tier(self, gittables_corpus):
        session = GitTables.from_corpus(gittables_corpus)
        with session.serve(workers=0) as service:
            service.search("index tier probe", k=3)
            index = service.metrics()["index"]
        # The small corpus stays below the ANN scale gate: flat tier,
        # no probe histogram to report.
        assert index["search"]["tier"] == "flat"
        assert "probed_partitions" not in index["search"]

    def test_local_executor_reports_partitioned_tier(self, gittables_corpus):
        from repro.config import IndexConfig

        session = GitTables.from_corpus(
            gittables_corpus, index_config=IndexConfig(min_rows=1, nprobe=2)
        )
        with session.serve(workers=0) as service:
            service.search("index tier probe", k=3)
            service.complete_schema(["name", "email"], k=3)
            index = service.metrics()["index"]
        assert index["search"]["tier"] == "partitioned"
        assert index["search"]["queries"] >= 1
        assert index["search"]["probed_partitions"]
        assert 0.0 < index["search"]["mean_candidate_fraction"] <= 1.0
        assert index["completion"]["tier"] == "partitioned"

    def test_worker_pool_merges_tier_stats(self, gittables_corpus, tmp_path):
        from repro.config import IndexConfig

        directory = tmp_path / "corpus"
        GitTables.from_corpus(gittables_corpus).save(directory)
        session = GitTables.load(
            directory, index_config=IndexConfig(min_rows=1, nprobe=2)
        )
        queries = [f"pooled tier probe {index}" for index in range(6)]
        expected = [session.search(query, k=3) for query in queries]
        with session.serve(workers=2, max_wait_ms=10.0) as service:
            results = [service.search(query, k=3) for query in queries]
            index = service.metrics()["index"]
        assert results == expected
        assert index["search"]["tier"] == "partitioned"
        # Counters are merged across workers: every query is accounted for.
        assert index["search"]["queries"] >= len(queries)
        assert sum(index["search"]["probed_partitions"].values()) >= len(queries)


class TestDispatchQueueGuard:
    """Regression: a failing ``task_queue.put`` during dispatch used to be
    swallowed, stranding every future in the batch until its deadline —
    the worker never saw the task, so no result could ever arrive. The
    pool must treat it like an orphaned batch of a crashed worker:
    retry once on another worker, then fail with ``WorkerCrashed``."""

    @staticmethod
    def _stub_pool(queues):
        import threading

        from repro.serving.workers import WorkerPool, _WorkerHandle

        pool = WorkerPool.__new__(WorkerPool)
        pool._lock = threading.Lock()
        pool._capacity = threading.Condition(pool._lock)
        pool._batches = {}
        pool._next_batch_id = 0
        pool.resolved = []
        pool._resolve = lambda request, result=None, error=None: pool.resolved.append(
            (request, error)
        )
        pool._workers = []
        for index, task_queue in enumerate(queues):
            from repro.serving.workers import _WorkerHandle as Handle

            handle = Handle(index)
            handle.process = object()  # routing only checks "not dead, not None"
            handle.task_queue = task_queue
            pool._workers.append(handle)
        return pool

    @staticmethod
    def _requests(n):
        from concurrent.futures import Future

        from repro.serving.batcher import Request

        return [
            Request(seq=i, endpoint="search", key=("search", 4), payload=(f"q{i}",), future=Future())
            for i in range(n)
        ]

    class _FullQueue:
        def __init__(self):
            self.puts = 0

        def put(self, item):
            self.puts += 1
            import queue

            raise queue.Full

    class _GoodQueue:
        def __init__(self):
            self.items = []

        def put(self, item):
            self.items.append(item)

    def test_rejected_dispatch_retries_on_another_worker(self):
        full, good = self._FullQueue(), self._GoodQueue()
        pool = self._stub_pool([full, good])
        requests = self._requests(2)
        pool.dispatch(requests)
        # The batch landed on the healthy worker and is still in flight.
        assert full.puts == 1
        assert len(good.items) == 1
        assert good.items[0][2] == "search"
        assert good.items[0][4] == [request.payload for request in requests]
        assert pool.resolved == []
        [batch] = pool._batches.values()
        assert batch.worker == 1 and batch.retried
        assert pool._workers[0].load == 0
        assert pool._workers[1].load == len(requests)

    def test_twice_rejected_dispatch_fails_with_worker_crashed(self):
        from repro.errors import WorkerCrashed

        pool = self._stub_pool([self._FullQueue(), self._FullQueue()])
        requests = self._requests(3)
        pool.dispatch(requests)
        # Nothing is stranded: every future fails loudly and promptly.
        assert len(pool.resolved) == len(requests)
        assert {id(request) for request, _ in pool.resolved} == {
            id(request) for request in requests
        }
        assert all(isinstance(error, WorkerCrashed) for _, error in pool.resolved)
        assert pool._batches == {}
        assert all(handle.load == 0 for handle in pool._workers)

    def test_unowned_batch_is_left_to_the_crash_handler(self):
        from repro.serving.workers import _Batch

        full = self._FullQueue()
        pool = self._stub_pool([full])
        requests = self._requests(1)
        # The crash handler already claimed this batch (it is not in
        # pool._batches); _send must not resolve or re-dispatch it — a
        # second owner would double-resolve the futures.
        batch = _Batch(99, requests, worker=0)
        pool._send(pool._workers[0], batch)
        assert pool.resolved == []
        assert not batch.retried
        assert pool._batches == {}
