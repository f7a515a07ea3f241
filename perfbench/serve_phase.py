"""The serving side of a run, in a fresh interpreter of its own.

A corpus is built once and served by other processes, so serving does
not share the builder's heap (the synthetic GitHub instance, the
ontologies) or its interpreter lock: :class:`lifecycle.Run` starts this
script on a built store. The clock starts before the program is
imported, so a cold start here is a real one: import, ``load``,
``serve()`` and the first answer.

Modes:

``cold``
    one cold start with ``serve(workers=2)``; checks the first answer.
``serve``
    a cold start, then an open loop at :data:`lifecycle.FIXED_RATE` for
    ``SECONDS`` (``latency_p50_ms``, ``latency_p99_ms``) and the
    capacity ladder (``max_rps``). With a ``DUMP_DIR`` the run is traced:
    batch compositions are replayed in-process to time the kernels, and
    the spans are written to ``DUMP_DIR`` for the parent.
``trickle``
    ``serve(workers=1)`` and a novel-query search trickle at
    :data:`lifecycle.TRICKLE_RATE`; prints ``ready`` once it runs and
    stops when a line arrives on standard input (the parent extends and
    compacts the store meanwhile). Every answer must equal the answer
    before or after the growth (``grow_latency_p50_ms``, ``latency_p95_ms``).

Every answer is checked against a single-shot call on a session of this
process. The result is one JSON line on standard output.

Usage: ``serve_phase.py cold|serve|trickle STORE SEED SECONDS HOT_SHARE DUMP_DIR|-``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lifecycle import (  # noqa: E402
    FIXED_RATE, GROW_WORKERS, LADDER, ORACLE_PROCESSES, RUNG_REQUESTS, SERVE_WORKERS, TRICKLE_MAX_SECONDS,
    TRICKLE_MIN_REQUESTS, TRICKLE_RATE, CheckFailed, RequestMaker, _check, answer_digest,
    log_phase, single_shot, submitter,
)
from loadgen import OpenLoop, climb, max_rps, nearest_rank, percentile_ms  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402


def _cold_start(store: str, requests: RequestMaker, workers: int):
    from repro import GitTables

    session = GitTables.load(store)
    service = session.serve(workers=workers)
    first = requests.mixed(1)[0]
    try:
        first_answer = answer_digest(submitter(service)(first).result())
    except BaseException:
        service.close()
        raise
    return session, service, first, first_answer, time.perf_counter() - START


def _serving_layers(snapshot: dict) -> dict:
    endpoints = snapshot["endpoints"].values()
    batches = sum(e["batches"] for e in endpoints)
    return {
        "serving.batches": batches,
        "serving.batch_size_mean": (
            sum(e["mean_batch_size"] * e["batches"] for e in endpoints) / batches if batches else 0.0
        ),
        "serving.queue_depth_max": snapshot["queue"]["max_depth"],
        "serving.rejected": sum(e["rejected"] for e in endpoints),
        "serving.expired": sum(e["deadline_expired"] for e in endpoints),
        "serving.worker_crashes": snapshot["workers"]["crashes"],
    }


def _replay_kernels(store, tracer: Tracer, batches, request_ids: set) -> dict:
    """Replay the dispatched batches through ``execute_batch`` in-process.

    The pool's workers are separate processes the trace cannot see into,
    so each batch composition observed at dispatch is run again on a
    session of this process; every request of the batch is charged the
    batch's kernel time.
    """
    from repro import GitTables
    from repro.serving.endpoints import execute_batch

    session = GitTables.load(store)
    with tracer.paused():
        _ = session.search_engine, session.completer
    kernel_of: dict = {}
    for endpoint, key, payloads, ids in batches:
        if not set(ids) & request_ids:
            continue
        start = time.perf_counter()
        with tracer.span("serving.kernel"):
            execute_batch(session, endpoint, key, payloads)
        elapsed = time.perf_counter() - start
        for request_id in ids:
            kernel_of[request_id] = elapsed
    return kernel_of


def _oracle_part(store: str, requests: list) -> dict:
    from repro import GitTables

    return single_shot(GitTables.load(store), requests)


def _parallel_oracle(store: str, requests: list) -> dict:
    """:func:`lifecycle.single_shot` over two fresh interpreters, one half each.

    The serving pool is closed by then, so both cores are free; each
    interpreter answers its half on a session of its own.
    """
    import multiprocessing

    distinct = list(dict.fromkeys(requests))
    halves = [distinct[: len(distinct) // 2], distinct[len(distinct) // 2:]]
    with multiprocessing.get_context("spawn").Pool(ORACLE_PROCESSES) as pool:
        parts = pool.starmap(_oracle_part, [(store, half) for half in halves])
    return {key: value for part in parts for key, value in part.items()}


def cold(store: str, seed: int, hot_share: float) -> dict:
    session, service, first, first_answer, cold_start_s = _cold_start(
        store, RequestMaker(f"{seed}-serve", hot_share), SERVE_WORKERS
    )
    service.close()
    _check(first_answer == single_shot(session, [first])[first],
           "cold-start answer differs from the single-shot call")
    return {"metrics": {"cold_start_s": cold_start_s}, "attempted": 1, "failed": 0, "layers": {}}


def serve(store: str, seed: int, seconds: float, hot_share: float, tracer: Tracer | None) -> dict:
    inst = instrument(tracer) if tracer is not None else None
    try:
        return _serve(store, seed, seconds, hot_share, tracer, inst)
    finally:
        if inst is not None:
            inst.restore()


def _serve(store, seed, seconds, hot_share, tracer, inst) -> dict:
    requests = RequestMaker(f"{seed}-serve", hot_share)
    session, service, first, first_answer, cold_start_s = _cold_start(store, requests, SERVE_WORKERS)
    admit = None
    if tracer is not None:
        def admit(outcome):
            return tracer.span("serving.admission", request_id=id(outcome))

    try:
        submit = submitter(service)
        OpenLoop(submit, answer_digest, requests.mixed(200), FIXED_RATE).run()
        fixed = OpenLoop(submit, answer_digest, requests.mixed(int(FIXED_RATE * seconds)), FIXED_RATE,
                         admit_span=admit).run()
        log_phase(fixed)

        def rung(rate):
            attempt = OpenLoop(submit, answer_digest, requests.mixed(RUNG_REQUESTS), rate,
                               admit_span=admit).run()
            log_phase(attempt)
            return attempt

        rungs = climb(rung, LADDER)
        snapshot = service.metrics()
    finally:
        service.close()

    phases = [fixed, *rungs]
    served = [o for phase in phases for o in phase.outcomes]
    _check(not fixed.generator_behind, "generator fell behind in the fixed-rate window")
    oracle = _parallel_oracle(store, [first] + [o.request for o in served])
    _check(first_answer == oracle[first], "cold-start answer differs from the single-shot call")
    mismatched = sum(1 for o in served if o.ok and o.digest != oracle[o.request])
    _check(mismatched == 0, f"{mismatched} served answers differ from single-shot calls")

    latencies = fixed.latencies_ms
    result = {
        "metrics": {
            "cold_start_s": cold_start_s,
            "latency_p50_ms": percentile_ms(latencies, 50.0),
            "latency_p99_ms": percentile_ms(latencies, 99.0),
            "max_rps": max_rps(phases),
        },
        "attempted": 1 + len(served),
        "failed": sum(phase.failed for phase in phases),
        "layers": {},
    }
    if tracer is not None:
        kernel_of = _replay_kernels(store, tracer, inst.batches, {id(o) for o in served})
        answered = [o for o in served if o.ok and id(o) in kernel_of]
        kernels = sorted(kernel_of[id(o)] for o in answered)
        waits = sorted((o.done - o.due) - kernel_of[id(o)] for o in answered)
        layers = _serving_layers(snapshot)
        layers["serving.admission_s"] = nearest_rank(sorted(o.admit_s for o in served), 50.0)
        layers["serving.kernel_s"] = nearest_rank(kernels, 50.0) if kernels else 0.0
        layers["serving.wait_s"] = nearest_rank(waits, 50.0) if waits else 0.0
        layers["generator.lateness_ms"] = nearest_rank(sorted(fixed.lateness_s), 50.0) * 1000.0
        result["layers"] = layers
    return result


def trickle(store: str, seed: int) -> dict:
    from repro import GitTables

    requests = RequestMaker(f"{seed}-grow").novel_searches(int(TRICKLE_RATE * TRICKLE_MAX_SECONDS))
    session = GitTables.load(store)
    before = single_shot(session, requests)
    pool = session.serve(workers=GROW_WORKERS)
    try:
        loop = OpenLoop(submitter(pool), answer_digest, requests, TRICKLE_RATE,
                        min_requests=TRICKLE_MIN_REQUESTS).start()
        try:
            print("ready", flush=True)
            sys.stdin.readline()
        finally:
            loop.stop()
            result = loop.join()
        snapshot = pool.metrics()
    finally:
        pool.close()
    log_phase(result)
    _check(not result.generator_behind, "generator fell behind during the grow trickle")
    after = single_shot(GitTables.load(store), [o.request for o in result.outcomes])
    stale = sum(
        1 for o in result.outcomes
        if o.ok and o.digest != before[o.request] and o.digest != after[o.request]
    )
    _check(stale == 0, f"{stale} answers during growth match neither the pre- nor post-extend call")
    layers = {key: value for key, value in _serving_layers(snapshot).items()
              if key in ("serving.rejected", "serving.expired", "serving.worker_crashes")}
    layers["serving.reloads"] = sum(snapshot["workers"]["artifact_reloads"].values())
    return {
        "metrics": {
            "grow_latency_p50_ms": percentile_ms(result.latencies_ms, 50.0),
            "latency_p95_ms": percentile_ms(result.latencies_ms, 95.0),
        },
        "attempted": len(result.outcomes),
        "failed": result.failed,
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    mode, store, seed, seconds, hot_share, dump_dir = argv
    tracer = Tracer(dump_dir) if dump_dir != "-" else None
    try:
        if mode == "cold":
            result = cold(store, int(seed), float(hot_share))
        elif mode == "serve":
            result = serve(store, int(seed), float(seconds), float(hot_share), tracer)
        else:
            result = trickle(store, int(seed))
    except CheckFailed as failure:
        print(json.dumps({"check_failed": str(failure)}))
        return 1
    if tracer is not None:
        tracer.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
