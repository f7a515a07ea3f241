#!/usr/bin/env python3
"""The corpus-lifecycle benchmark: build, serve and grow one GitTables store.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced run.
``--trace 1`` first runs the same workload and seed untraced in a child
process, then runs it again with every layer instrumented, and prints
the per-layer metrics, the ungated measurements of the untraced pass
(:data:`UNGATED`) and ``trace.overhead.<metric>`` (traced minus
untraced) for each end-to-end metric; the spans go to
``.perfbench-out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check prints that object with ``"correct": false`` and exits
1; a run that cannot start (no ``src/repro`` next to this directory)
exits 2 without printing one. See README.md for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = Path(".perfbench-work")
OUT_DIR = Path(".perfbench-out")

#: End-to-end metric -> unit; every --trace 0 run reports all of them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
    "latency_p50_ms": "ms",
    "grow_latency_p50_ms": "ms",
}

#: Measured every run but too noisy across seeds on a small shared
#: machine to gate on (see README.md); the traced run reports them, as
#: measured by its untraced pass.
UNGATED = {
    "build_tables_per_s": "1/s",
    "max_rps": "1/s",
    "latency_p99_ms": "ms",
    "latency_p95_ms": "ms",
    "extend_tables_per_s": "1/s",
    "compact_s": "s",
}

#: Per-layer metric -> unit; every --trace 1 run reports all of them.
PER_LAYER = {
    "github.instance_s": "s",
    "github.requests": "count",
    "core.extraction.self_s": "s",
    "core.extraction.files_out": "count",
    "core.parsing.self_s": "s",
    "dataframe.parse.self_s": "s",
    "dataframe.sniff_s": "s",
    "dataframe.parse.files": "count",
    "dataframe.parse.failed": "count",
    "dataframe.parse.useful_ratio": "ratio",
    "core.filtering.self_s": "s",
    "core.filtering.dropped_license": "count",
    "core.filtering.dropped_other": "count",
    "core.annotation.self_s": "s",
    "core.annotation.columns": "count",
    "core.curation.self_s": "s",
    "pipeline.overhead_s": "s",
    "storage.sharded.commit_s": "s",
    "storage.sharded.commits": "count",
    "storage.sharded.bytes_written": "bytes",
    "storage.fsyncs": "count",
    "storage.columnar.build_s": "s",
    "storage.artifacts.publish_s": "s",
    "storage.artifacts.bytes_published": "bytes",
    "storage.artifacts.load_s": "s",
    "storage.artifacts.misses": "count",
    "storage.artifacts.prune_s": "s",
    "embeddings.encode_s": "s",
    "embeddings.keys": "count",
    "applications.search_s": "s",
    "applications.complete_s": "s",
    "applications.refresh_s": "s",
    "serving.admission_s": "s",
    "serving.kernel_s": "s",
    "serving.wait_s": "s",
    "serving.batches": "count",
    "serving.batch_size_mean": "count",
    "serving.queue_depth_max": "count",
    "serving.rejected": "count",
    "serving.expired": "count",
    "serving.worker_crashes": "count",
    "serving.reloads": "count",
    "storage.parallel.extend_s": "s",
    "storage.compaction.bytes_rewritten": "bytes",
    "storage.compaction.shards_after": "count",
    "generator.lateness_ms": "ms",
    **UNGATED,
    **{f"trace.overhead.{name}": unit for name, unit in END_TO_END.items()},
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _emit(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> None:
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _untraced_child(args) -> tuple[dict, dict]:
    """Run the same workload untraced in a fresh interpreter; its result and details line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"untraced pass exited {completed.returncode}")
    details = next(json.loads(line) for line in lines if '"build_counters"' in line)
    return json.loads(lines[-1]), details


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from lifecycle import WORKLOADS, CheckFailed, Run
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    untraced, details = (None, None) if not args.trace else _untraced_child(args)
    work_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    tracer = Tracer(work_dir / "child-spans") if args.trace else None
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work_dir, tracer=tracer)
    correct = True
    try:
        run.execute()
    except CheckFailed as failure:
        print(f"perfbench: correctness check failed: {failure}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not args.trace:
        print(json.dumps({"build_counters": run.build_counters, "measured": run.metrics}))
        _emit(correct, run.attempted, run.failed, run.metrics, END_TO_END)
        return 0 if correct else 1

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    if correct and json.loads(json.dumps(run.build_counters)) != details["build_counters"]:
        print("perfbench: build counters differ between two runs of one seed", file=sys.stderr)
        correct = False
    correct = correct and untraced["correct"]
    layers = dict(run.layers)
    layers.update({name: details["measured"][name] for name in UNGATED if name in details["measured"]})
    for name in END_TO_END:
        if name in run.metrics:
            layers[f"trace.overhead.{name}"] = run.metrics[name] - untraced["metrics"][name]["value"]
    _emit(correct, run.attempted + untraced["attempted"], run.failed + untraced["failed"], layers, PER_LAYER)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
