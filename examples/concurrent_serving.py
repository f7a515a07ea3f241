"""Example: concurrent micro-batched query serving over a saved store.

Demonstrates the serving layer (``repro.serving``) end to end:

* build a small corpus, save it to a sharded store, and reload it —
  the save also publishes the mmap'd index artifacts the serving
  workers resolve on startup;
* serve a burst of concurrent ``search`` requests through a 2-worker
  micro-batched :class:`~repro.serving.service.QueryService`, showing
  that the coalesced responses are byte-identical to single-shot calls;
* read the metrics snapshot: per-endpoint QPS, the batch-size
  histogram the coalescer produced, and p50/p95/p99 latency.

Run with::

    python examples/concurrent_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import GitTables
from repro.experiments.context import get_context


def main() -> None:
    context = get_context(scale="small")
    print("Building GitTables corpus...")
    corpus = context.gittables
    print(f"  {len(corpus)} tables in the corpus")

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "corpus"
        print(f"\nSaving to a sharded store ({store_dir.name}/)...")
        GitTables.from_corpus(corpus).save(store_dir)
        session = GitTables.load(store_dir)

        queries = [
            "status and sales amount per product",
            "employee salary and hire date",
            "species isolated per country",
            "customer address and phone",
            "monthly revenue per region",
            "temperature sensor reading log",
        ]

        print("\n== Concurrent serving (2 workers, micro-batched) ==")
        # A 10 ms linger keeps the first window open until the whole
        # burst below has arrived, so it rides one kernel batch; under
        # sustained load batches form without it, while workers are busy.
        with session.serve(workers=2, max_wait_ms=10.0) as service:
            print(f"  worker pids: {service.worker_pids()}")
            # Submit the whole burst up front; the batcher coalesces it.
            futures = [service.submit_search(query, k=3) for query in queries]
            for query, future in zip(queries, futures):
                results = future.result(timeout=120)
                top = results[0].schema[:5] if results else []
                print(f"  {query!r} -> {', '.join(top)}")
                assert results == session.search(query, k=3), "must be bit-identical"

            snapshot = service.metrics()

        stats = snapshot["endpoints"]["search"]
        latency = stats["latency_ms"]
        print("\n== Metrics snapshot ==")
        print(f"  completed: {stats['completed']}  (QPS {stats['qps']:.0f})")
        print(f"  batch-size histogram: {stats['batch_size_histogram']}")
        print(
            f"  latency p50 {latency['p50']:.1f}ms  "
            f"p95 {latency['p95']:.1f}ms  p99 {latency['p99']:.1f}ms"
        )
        workers = snapshot["workers"]
        print(f"  workers alive: {workers['alive']}/{workers['configured']}")

    print("\nAll served responses matched single-shot calls exactly.")


if __name__ == "__main__":
    main()
