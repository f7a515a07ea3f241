"""The corpus lifecycle every workload walks, and the metrics it yields.

One run goes through the whole life of GitTables corpora, through the
public API only:

1. **set-up and build**, :data:`BUILDS` times: generate a seeded
   synthetic GitHub instance (set-up), then build ``base_tables`` tables
   from it into a store serially and ``warm()`` it, which publishes the
   index artifacts. Each build has its own sub-seed, so one run averages
   over several corpora: ``setup_s`` is the median set-up and
   ``build_tables_per_s`` all tables over all build seconds.
2. **cold start and serve** on the last store, in fresh interpreters
   (:mod:`serve_phase`): :data:`COLD_STARTS` cold starts, then an open
   loop at :data:`FIXED_RATE` requests/s for ``--seconds`` seconds and the
   capacity ladder (:data:`LADDER`).
3. **grow**: a separate process serves a novel-query search trickle from
   a 1-worker pool on the last store while this process extends that
   store by a third with ``processes=2`` and compacts it once per entry
   of :data:`COMPACT_SHARD_SIZES`.

Every workload reports every end-to-end metric, so every workload walks
every phase; the workloads differ in corpus size and in whether the
traffic repeats (see :data:`WORKLOADS` and README.md). Correctness is
checked against single-shot session calls, which run with tracing paused
and outside every timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from loadgen import backlog_slope, nearest_rank
from tracing import Tracer, has_ancestor, instrument, self_times, total_times

#: Builds (each on its own sub-seed and synthetic GitHub) per run.
BUILDS = 3
#: Requests per second of the fixed-rate serving window.
FIXED_RATE = 200.0
#: Offered rates (requests/s) of the capacity ladder above the fixed rate:
#: 12% apart from well below the knee of a 2-worker pool on a 2-core
#: machine, so the rung a run stops at moves max_rps by one small step.
LADDER = tuple(float(round(1250 * 1.12 ** step, -1)) for step in range(14))
#: Requests per ladder rung: enough for p99 to have ten samples beyond it.
RUNG_REQUESTS = 1000
#: Requests per second and minimum request count of the grow-phase trickle.
TRICKLE_RATE = 100.0
TRICKLE_MIN_REQUESTS = 400
#: The trickle's schedule is this long; extension plus compaction must fit.
TRICKLE_MAX_SECONDS = 20.0
#: Traffic mix, exact in every block of :data:`MIX_BLOCK` requests (order
#: shuffled within the block): the seed picks words and order, never the
#: share of completions or of repeats.
MIX_BLOCK = 10
SEARCHES_PER_BLOCK = 8
#: Hot-set size: each hot request is well under 1% of traffic, so no
#: single request the seed happens to draw sits on the p99.
HOT_SET_SIZE = 64
K = 10
#: Shard size of the built stores, and the sizes compaction cycles through.
BUILD_SHARD_SIZE = 16
COMPACT_SHARD_SIZES = (32, 8, 24, 12, 40, 16, 48)
#: Cold starts per run (fresh interpreters); ``cold_start_s`` is the median.
COLD_STARTS = 3
SERVE_WORKERS = 2
GROW_WORKERS = 1
#: Interpreters that compute the serve phase's single-shot answers.
ORACLE_PROCESSES = 2
GROW_PROCESSES = 2
#: A serve-phase child process is stopped after this long.
CHILD_TIMEOUT_S = 150.0

_WORDS = (
    "order", "customer", "price", "quantity", "date", "status", "country", "population",
    "city", "name", "email", "phone", "address", "product", "category", "revenue",
    "region", "year", "month", "sensor", "temperature", "reading", "station", "salary",
    "employee", "department", "score", "team", "player", "season", "species", "weight",
    "height", "account", "balance", "transaction", "invoice", "supplier", "stock", "warehouse",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Tables each build commits; the last store grows by a third.
    base_tables: int
    #: Share of requests repeated from the hot set (the encoder cache's hits).
    hot_share: float

    @property
    def grown_tables(self) -> int:
        return self.base_tables + self.base_tables // 3


#: README.md says why each exists.
WORKLOADS = {
    "build": Workload("build", base_tables=90, hot_share=0.0),
    "serve": Workload("serve", base_tables=75, hot_share=0.5),
}


class CheckFailed(AssertionError):
    """A correctness check of the benchmark failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- inputs and oracles --------------------------------------------------------


def sub_seed(seed: int, index: int) -> int:
    """The ``index``-th build's seed, derived from the run's seed."""
    return int.from_bytes(hashlib.blake2b(f"{seed}.{index}".encode(), digest_size=4).digest(), "big")


class RequestMaker:
    """Seeded request lists: a hot set of repeats plus never-repeated novel requests."""

    def __init__(self, seed: str, hot_share: float = 0.0) -> None:
        self._rng = random.Random(seed)
        self._serial = 0
        self._hot_per_block = round(MIX_BLOCK * hot_share)
        hot_searches = round(HOT_SET_SIZE * SEARCHES_PER_BLOCK / MIX_BLOCK)
        self.hot_searches = [self._request(search=True) for _ in range(hot_searches)]
        self.hot_completions = [self._request(search=False) for _ in range(HOT_SET_SIZE - hot_searches)]

    def _request(self, search: bool) -> tuple:
        self._serial += 1
        words = self._rng.sample(_WORDS, 3)
        if search:
            return ("search", f"{words[0]} {words[1]} {words[2]} r{self._serial}")
        return ("complete_schema", (words[0], words[1], f"{words[2]}_r{self._serial}"))

    def mixed(self, n: int) -> list[tuple]:
        """80% search / 20% completion; ``hot_share`` of each from the hot set."""
        out: list[tuple] = []
        while len(out) < n:
            hot_slots = set(self._rng.sample(range(MIX_BLOCK), self._hot_per_block))
            kinds = [slot < SEARCHES_PER_BLOCK for slot in range(MIX_BLOCK)]
            self._rng.shuffle(kinds)
            for slot, search in enumerate(kinds):
                if slot in hot_slots:
                    pool = self.hot_searches if search else self.hot_completions
                    out.append(pool[self._rng.randrange(len(pool))])
                else:
                    out.append(self._request(search=search))
        return out[:n]

    def novel_searches(self, n: int) -> list[tuple]:
        return [self._request(search=True) for _ in range(n)]


def submitter(service):
    def submit(request):
        endpoint, payload = request
        if endpoint == "search":
            return service.submit_search(payload, k=K)
        return service.submit_complete_schema(payload, k=K)

    return submit


def answer_digest(answer) -> bytes:
    """A digest of an answer's exact value (``repr`` round-trips every float)."""
    return hashlib.blake2b(repr(answer).encode(), digest_size=16).digest()


def single_shot(session, requests) -> dict:
    """The oracle: each distinct request answered by a lone session call."""
    answers = {}
    for endpoint, payload in dict.fromkeys(requests):
        if endpoint == "search":
            answer = session.search(payload, k=K)
        else:
            answer = session.complete_schema(list(payload), k=K)
        answers[(endpoint, payload)] = answer_digest(answer)
    return answers


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def log_phase(phase) -> None:
    lat = sorted(phase.latencies_ms)
    late = sorted(phase.lateness_s)
    log(
        f"{phase.rate:.0f} req/s x {len(lat)}: p50 {nearest_rank(lat, 50):.1f} ms, "
        f"p99 {nearest_rank(lat, 99):.1f} ms, achieved {phase.achieved_rate():.0f}/s, "
        f"backlog slope {backlog_slope(phase.backlog):.1f}/s, "
        f"lateness p50 {nearest_rank(late, 50) * 1000:.2f} ms, failed {phase.failed}"
    )


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_command(mode: str, store: Path, seed: int, seconds: float, hot_share: float,
                  dump_dir: Path | None) -> list[str]:
    """The :mod:`serve_phase` command line (``dump_dir`` set = traced)."""
    return [
        sys.executable, str(Path(__file__).resolve().parent / "serve_phase.py"), mode, str(store),
        str(seed), str(seconds), str(hot_share), str(dump_dir) if dump_dir is not None else "-",
    ]


def child_result(stdout: str, returncode: int, mode: str) -> dict:
    lines = stdout.strip().splitlines()
    outcome = json.loads(lines[-1]) if lines else {}
    if "check_failed" in outcome:
        raise CheckFailed(outcome["check_failed"])
    if returncode != 0 or "metrics" not in outcome:
        raise RuntimeError(f"serve phase ({mode}) exited {returncode}")
    return outcome


# -- the run -----------------------------------------------------------------


class Run:
    """One pass through the lifecycle; fills :attr:`metrics` and :attr:`layers`."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: Path,
                 tracer: Tracer | None = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.inst = None
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.build_counters: list[dict] = []
        self.build_reports = []
        self.build_walls: list[float] = []
        self.columns = 0
        self.setups: list[float] = []
        self.generators: dict[int, object] = {}
        self.stores: list[Path] = []
        self.compactions: list[dict] = []
        self.compacted_bytes = 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def execute(self) -> None:
        if self.tracer is not None:
            self.inst = instrument(self.tracer)
        try:
            for phase in (self._build_all, self._serve, self._grow):
                start = time.perf_counter()
                phase()
                log(f"{phase.__name__[1:]} phase {time.perf_counter() - start:.1f} s")
            self.metrics["setup_s"] = statistics.median(self.setups)
            self.layers["github.instance_s"] = self.metrics["setup_s"]
            self.metrics["peak_rss_mb"] = _peak_rss_mb()
            if self.tracer is not None:
                self._layer_metrics()
        finally:
            if self.inst is not None:
                self.inst.restore()

    # -- phases ----------------------------------------------------------------

    def _build_all(self) -> None:
        seconds = []
        for index in range(BUILDS):
            self.setups.append(self._setup(index))
            seconds.append(self._build(index))
        rates = [self.workload.base_tables / s for s in seconds]
        log(f"set-ups {[round(s, 2) for s in self.setups]} s, builds {[round(r, 1) for r in rates]} tables/s")
        # All tables over all build seconds: a slow corpus weighs by its time.
        self.metrics["build_tables_per_s"] = BUILDS * self.workload.base_tables / sum(seconds)

    def _setup(self, index: int) -> float:
        """Generate build ``index``'s synthetic GitHub (memoized for its build, and the last one's extension)."""
        from repro.github.content import GeneratorConfig
        from repro.github.instance import build_instance

        # Sized for the grown store, so an extension has files left to crawl.
        generator = GeneratorConfig(seed=sub_seed(self.seed, index)).scaled_to_files(
            self.workload.grown_tables * 8
        )
        self.generators[index] = generator
        start = time.perf_counter()
        with self._span("github.instance"):
            build_instance(generator)
        return time.perf_counter() - start

    def _build(self, index: int) -> float:
        from repro import GitTables, PipelineConfig

        base = self.workload.base_tables
        config = PipelineConfig(seed=sub_seed(self.seed, index), target_tables=base)
        store = self.work_dir / f"store-{index}"
        self.stores.append(store)
        start = time.perf_counter()
        with self._span("lifecycle.build"):
            built = GitTables.build(
                config, generator_config=self.generators[index], store_dir=store,
                shard_size=BUILD_SHARD_SIZE, processes=1,
            )
        build_s = time.perf_counter() - start
        with self._span("lifecycle.warm"):
            built.warm()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        _check(len(built) == base, f"build {index} committed {len(built)} tables, expected {base}")
        report = built.pipeline_report
        counters = _report_counters(report)
        _check_report_chain(counters, base)
        self.build_counters.append(counters)
        self.build_reports.append(report)
        self.build_walls.append(build_s)
        self.columns += built.columnar().column_count
        return elapsed

    def _serve_child(self, mode: str) -> dict:
        traced = self.tracer is not None and mode == "serve"
        command = child_command(mode, self.stores[-1], self.seed, self.seconds, self.workload.hot_share,
                                self.tracer.dump_dir if traced else None)
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        outcome = child_result(completed.stdout, completed.returncode, mode)
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        return outcome

    def _serve(self) -> None:
        cold_starts = [self._serve_child("cold")["metrics"]["cold_start_s"] for _ in range(COLD_STARTS - 1)]
        outcome = self._serve_child("serve")
        cold_starts.append(outcome["metrics"]["cold_start_s"])
        self.metrics.update(outcome["metrics"])
        self.metrics["cold_start_s"] = statistics.median(cold_starts)
        self.layers.update(outcome["layers"])
        if self.tracer is not None:
            self.tracer.absorb_children()

    def _grow(self) -> None:
        """Extend and compact the last store while another process serves a trickle from it."""
        command = child_command("trickle", self.stores[-1], self.seed, self.seconds, 0.0, None)
        trickle = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            _check(trickle.stdout.readline().strip() == "ready", "the trickle process did not start")
            rate = self._extend(BUILDS - 1)
            self.shard_bytes = sum(p.stat().st_size for p in self.stores[-1].glob("*.jsonl"))
            compact_times = self._compact(BUILDS - 1)
            stdout, _ = trickle.communicate("stop\n", timeout=CHILD_TIMEOUT_S)
        finally:
            if trickle.poll() is None:
                trickle.kill()
                trickle.wait()
        outcome = child_result(stdout, trickle.returncode, "trickle")
        self.attempted += outcome["attempted"]
        self.failed += outcome["failed"]
        log(f"extension {rate:.1f} tables/s, compactions median {statistics.median(compact_times) * 1000:.1f} ms")
        self.metrics.update(outcome["metrics"])
        self.metrics["extend_tables_per_s"] = rate
        self.metrics["compact_s"] = statistics.median(compact_times)
        for name, value in outcome["layers"].items():
            self.layers[name] = self.layers.get(name, 0) + value

    def _extend(self, index: int) -> float:
        from repro import GitTables

        workload = self.workload
        session = GitTables.load(self.stores[index])
        if self.tracer is not None:
            self.tracer.capture_children = True
        start = time.perf_counter()
        with self._span("lifecycle.extend"):
            session.extend(target_tables=workload.grown_tables, processes=GROW_PROCESSES,
                           shard_size=BUILD_SHARD_SIZE)
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.capture_children = False
            self.tracer.absorb_children()
        self.attempted += 1
        _check(len(session) == workload.grown_tables,
               f"extend {index} reached {len(session)} tables, expected {workload.grown_tables}")
        return (workload.grown_tables - workload.base_tables) / elapsed

    def _compact(self, index: int) -> list[float]:
        from repro import GitTables
        from repro.storage.sharded import ShardedJsonlStore

        store = self.stores[index]
        fingerprint = ShardedJsonlStore(store).content_fingerprint()
        session = GitTables.load(store)
        times = []
        for shard_size in COMPACT_SHARD_SIZES:
            start = time.perf_counter()
            with self._span("lifecycle.compact"):
                report = session.compact(shard_size=shard_size)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            self.compactions.append(report)
            self.compacted_bytes += sum(p.stat().st_size for p in store.glob("*.jsonl"))
            _check(report["fingerprint"] == fingerprint, "compaction changed the store's content fingerprint")
        _check(ShardedJsonlStore(store).content_fingerprint() == fingerprint,
               "store content changed after compaction")
        return times

    # -- per-layer attribution -------------------------------------------------

    def _layer_metrics(self) -> None:
        from repro.core.filtering import REASON_LICENSE

        layers = self.layers
        spans = self.tracer.spans
        own = self_times(spans)
        total = total_times(spans)
        counts = self.tracer.counts

        def stage(name: str, field: str = "seconds") -> float:
            return sum(getattr(r.stages[name], field) for r in self.build_reports if name in r.stages)

        filters = [r.stage_reports["filtering"] for r in self.build_reports]
        license_drops = sum(f.dropped_by_reason.get(REASON_LICENSE, 0) for f in filters)
        tables = (BUILDS - 1) * self.workload.base_tables + self.workload.grown_tables
        parsed = counts["dataframe.parse.files"]
        by_id = {span.id: span for span in spans}

        layers.update({
            "github.requests": counts["github.requests"],
            "core.extraction.self_s": stage("extraction"),
            "core.extraction.files_out": stage("extraction", "items_out"),
            "core.parsing.self_s": stage("parsing"),
            "dataframe.parse.self_s": own.get("dataframe.parse", 0.0),
            "dataframe.sniff_s": total.get("dataframe.sniff", 0.0),
            "dataframe.parse.files": parsed,
            "dataframe.parse.failed": counts["dataframe.parse.failed"],
            "dataframe.parse.useful_ratio": tables / parsed if parsed else 0.0,
            "core.filtering.self_s": stage("filtering"),
            "core.filtering.dropped_license": license_drops,
            "core.filtering.dropped_other": sum(f.dropped for f in filters) - license_drops,
            "core.annotation.self_s": stage("annotation"),
            "core.annotation.columns": self.columns,
            "core.curation.self_s": stage("curation"),
            "pipeline.overhead_s": sum(self.build_walls) - sum(
                m.seconds for r in self.build_reports for m in r.stages.values()
            ),
            "storage.sharded.commit_s": total.get("storage.sharded.commit", 0.0),
            "storage.sharded.commits": counts["storage.sharded.commits"],
            "storage.sharded.bytes_written": self.shard_bytes,
            "storage.fsyncs": counts["storage.fsyncs"],
            "storage.columnar.build_s": own.get("storage.columnar.build", 0.0),
            "storage.artifacts.publish_s": total.get("storage.artifacts.publish", 0.0),
            "storage.artifacts.bytes_published": counts["storage.artifacts.bytes_published"],
            "storage.artifacts.load_s": total.get("storage.artifacts.load", 0.0),
            "storage.artifacts.misses": counts["storage.artifacts.misses"],
            "storage.artifacts.prune_s": total.get("storage.artifacts.prune", 0.0),
            "embeddings.encode_s": total.get("embeddings.encode", 0.0),
            "embeddings.keys": counts["embeddings.keys"],
            "applications.search_s": own.get("applications.search", 0.0),
            "applications.complete_s": own.get("applications.complete", 0.0),
            "applications.refresh_s": sum(
                span.duration for span in spans
                if span.name == "applications.engine_init"
                and has_ancestor(span, "lifecycle.extend", by_id)
            ),
            "storage.parallel.extend_s": total.get("storage.parallel.build", 0.0),
            "storage.compaction.bytes_rewritten": self.compacted_bytes,
            "storage.compaction.shards_after": self.compactions[-1]["shards_after"],
        })


def _report_counters(report) -> dict:
    return {name: [m.items_in, m.items_out] for name, m in report.stages.items()} | {
        "items_collected": report.items_collected,
        "batches": report.batches,
    }


def _check_report_chain(counters: dict, target: int) -> None:
    """Each stage consumes what the previous one emitted; curation emits the target."""
    names = [name for name in counters if name not in ("items_collected", "batches")]
    for upstream, downstream in zip(names, names[1:]):
        _check(counters[upstream][1] == counters[downstream][0],
               f"stage {downstream} consumed {counters[downstream][0]} items, "
               f"{upstream} emitted {counters[upstream][1]}")
    _check(counters["items_collected"] == target,
           f"pipeline collected {counters['items_collected']} tables, expected {target}")
