"""Spans and counters for the traced run, recorded from outside the program.

The benchmark never edits ``src/``: :func:`instrument` replaces public
functions of each layer with wrappers that open a span (name, start,
end, parent span, request id) and bump counters at the same boundary,
and :meth:`Instrumentation.restore` puts the originals back. Spans are
kept in memory and written out once, when the run ends.

A layer's *self time* is its spans' duration minus the part of each
interval its child spans cover (children running in parallel threads
are merged first, so overlap is not subtracted twice).

Parallel store builds fork worker processes, which inherit the wrappers.
While :attr:`Tracer.capture_children` is set, a forked child starts an
empty trace and dumps it when its ``multiprocessing`` process exits; the
parent folds those dumps in with :meth:`Tracer.absorb_children`. Other
forked children (the serving pool) record nothing: serving kernel time
is measured by replaying the observed batches in-process instead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: str
    name: str
    start: float
    end: float
    parent: str | None = None
    request_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: duration minus time covered by children."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = covered_length(children.get(span.id, []), span.start, span.end)
        totals[span.name] += span.duration - covered
    return dict(totals)


def total_times(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name (nested spans of one name counted once each)."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration
    return dict(totals)


def has_ancestor(span: Span, name: str, by_id: dict[str, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return False
        if node.name == name:
            return True
        parent = node.parent
    return False


class Tracer:
    """In-memory span and counter store; one per run, passed explicitly."""

    def __init__(self, dump_dir: str | os.PathLike[str]) -> None:
        self.dump_dir = Path(dump_dir)
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        #: Set while a phase whose forked children should report back runs.
        self.capture_children = False
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _active(self) -> bool:
        pid = os.getpid()
        if pid != self._pid:
            self._adopt_child(pid)
        return self.enabled

    def _adopt_child(self, pid: int) -> None:
        # First record in a forked child: the inherited spans belong to
        # the parent, and the inherited lock may be held by a thread that
        # does not exist here.
        self._pid = pid
        self._lock = threading.Lock()
        self.spans = []
        self.counts = defaultdict(float)
        if not (self.enabled and self.capture_children):
            self.enabled = False
            return
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    def _stack(self) -> list[tuple[str, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request_id(self) -> int | None:
        """Request id of the innermost open span of this thread that has one."""
        for _, request_id in reversed(self._stack()):
            if request_id is not None:
                return request_id
        return None

    @contextlib.contextmanager
    def span(self, name: str, request_id: int | None = None):
        if not self._active():
            yield None
            return
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span_id = f"{os.getpid()}:{next(self._ids)}"
        stack.append((span_id, request_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request_id))

    def count(self, name: str, amount: float = 1) -> None:
        if self._active():
            with self._lock:
                self.counts[name] += amount

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside (used around the correctness oracles)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def dump(self) -> None:
        """Write this process's spans for :meth:`absorb_children` of the parent."""
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, s.request_id] for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        path = self.dump_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")

    def absorb_children(self) -> int:
        """Fold every child dump into this trace; returns how many were read."""
        if not self.dump_dir.is_dir():
            return 0
        absorbed = 0
        for path in sorted(self.dump_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            with self._lock:
                self.spans.extend(Span(*fields) for fields in payload["spans"])
                for name, amount in payload["counts"].items():
                    self.counts[name] += amount
            absorbed += 1
        return absorbed

    def write(self, path: str | os.PathLike[str]) -> None:
        """Write every span and counter as JSON (the end-of-run trace file)."""
        Path(path).write_text(
            json.dumps(
                {
                    "spans": [s.__dict__ for s in self.spans],
                    "counts": dict(self.counts),
                }
            ),
            encoding="utf-8",
        )


class Instrumentation:
    """The set of wrappers installed by :func:`instrument`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: list[tuple[object, str, object]] = []
        #: Batches the serving pool dispatched: (endpoint, key, payloads, request ids).
        self.batches: list[tuple[str, tuple, list, list[int | None]]] = []

    def wrap(self, owner, attr: str, span: str | None, on_call=None, on_result=None, on_error=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        descriptor = original
        function = original.__func__ if isinstance(original, classmethod) else original
        tracer = self.tracer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if on_call is not None and tracer._active():
                on_call(args, kwargs)
            if span is None:
                result = function(*args, **kwargs)
            else:
                with tracer.span(span):
                    try:
                        result = function(*args, **kwargs)
                    except Exception:
                        if on_error is not None and tracer._active():
                            on_error()
                        raise
            if on_result is not None and tracer._active():
                on_result(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if isinstance(descriptor, classmethod) else wrapper)
        self._originals.append((owner, attr, descriptor))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def _directory_bytes(path) -> int:
    path = Path(path)
    if not path.is_dir():
        return 0
    return sum(child.stat().st_size for child in path.rglob("*") if child.is_file())


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap the public boundary functions of every layer the benchmark measures."""
    from repro.applications.data_search import TableSearchEngine
    from repro.applications.schema_completion import NearestCompletion
    from repro.core import parsing
    from repro.dataframe import parser
    from repro.embeddings.sentence import SentenceEncoder
    from repro.github.client import GitHubClient
    from repro.serving.batcher import MicroBatcher
    from repro.serving.workers import WorkerPool
    from repro.storage import compaction
    from repro.storage.artifacts import IndexArtifactStore
    from repro.storage.columnar import ColumnarProjection
    from repro.storage.parallel import ParallelCorpusBuilder
    from repro.storage.sharded import ShardedCorpusWriter

    inst = Instrumentation(tracer)
    count = tracer.count

    inst.wrap(GitHubClient, "search", None, on_call=lambda a, k: count("github.requests"))
    inst.wrap(GitHubClient, "raw_content", None, on_call=lambda a, k: count("github.requests"))

    inst.wrap(parsing, "parse_csv", "dataframe.parse",
              on_call=lambda a, k: count("dataframe.parse.files"),
              on_error=lambda: count("dataframe.parse.failed"))
    inst.wrap(parser, "sniff_dialect", "dataframe.sniff")

    inst.wrap(ShardedCorpusWriter, "commit", "storage.sharded.commit",
              on_call=lambda a, k: count("storage.sharded.commits"))
    inst.wrap(os, "fsync", None, on_call=lambda a, k: count("storage.fsyncs"))
    inst.wrap(ColumnarProjection, "from_corpus", "storage.columnar.build")
    inst.wrap(ColumnarProjection, "extended", "storage.columnar.build")

    inst.wrap(IndexArtifactStore, "publish", "storage.artifacts.publish",
              on_result=lambda a, r: count("storage.artifacts.bytes_published", _directory_bytes(r)))
    inst.wrap(IndexArtifactStore, "load", "storage.artifacts.load",
              on_result=lambda a, r: r is None and count("storage.artifacts.misses"))
    inst.wrap(IndexArtifactStore, "load_any", "storage.artifacts.load")
    inst.wrap(IndexArtifactStore, "prune", "storage.artifacts.prune")

    inst.wrap(SentenceEncoder, "embed_many", "embeddings.encode",
              on_call=lambda a, k: count("embeddings.keys", len(a[1])))

    inst.wrap(TableSearchEngine, "search_batch", "applications.search")
    inst.wrap(NearestCompletion, "complete", "applications.complete")
    inst.wrap(TableSearchEngine, "__init__", "applications.engine_init")
    inst.wrap(NearestCompletion, "__init__", "applications.engine_init")

    inst.wrap(ParallelCorpusBuilder, "build", "storage.parallel.build")
    inst.wrap(compaction, "compact_store", "storage.compaction")

    def tag_request(args, kwargs):
        # Runs in the submitting thread, inside the benchmark's admission
        # span, so the span's request id names this request.
        args[1].perfbench_request_id = tracer.current_request_id()

    def record_batch(args, kwargs):
        requests = args[1]
        first = requests[0]
        inst.batches.append((
            first.endpoint, first.key, [r.payload for r in requests],
            [getattr(r, "perfbench_request_id", None) for r in requests],
        ))

    inst.wrap(MicroBatcher, "submit", None, on_call=tag_request)

    inst.wrap(WorkerPool, "dispatch", None, on_call=record_batch)
    return inst
