"""Tests for the benchmark's own arithmetic; run with ``python3 -m pytest perfbench``."""

import json
import math
from pathlib import Path

import pytest

import run
from loadgen import (
    LATENCY_LIMIT_MS, Outcome, PhaseResult, backlog_grows, climb, due_latency_ms,
    max_rps, nearest_rank, percentile_ms, samples_beyond, tail_percentile,
)
from tracing import Instrumentation, Span, Tracer, covered_length, self_times


# -- the percentile rule ------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(10) is None


def test_samples_beyond_matches_nearest_rank():
    values = list(range(1, 1001))
    assert nearest_rank(values, 99.0) == 990
    assert samples_beyond(1000, 99.0) == sum(1 for v in values if v > 990)


def test_percentile_refuses_an_undersized_sample():
    with pytest.raises(ValueError):
        percentile_ms([1.0] * 999, 99.0)
    assert percentile_ms([1.0] * 1000, 99.0) == 1.0


def test_failed_requests_count_as_missing_the_limit():
    latencies = [1.0] * 985 + [math.inf] * 15
    assert percentile_ms(latencies, 99.0) == math.inf


# -- due-time latency ---------------------------------------------------------


def test_latency_is_timed_from_the_due_time():
    late_send = Outcome(index=0, request=("search", "q"), due=1.0, sent=1.5, done=1.6)
    assert due_latency_ms(late_send) == pytest.approx(600.0)


def test_failed_or_unanswered_requests_have_infinite_latency():
    failed = Outcome(index=0, request=("search", "q"), due=1.0, sent=1.0, done=1.1,
                     error=RuntimeError("rejected"))
    unanswered = Outcome(index=1, request=("search", "q"), due=1.0, sent=1.0)
    assert due_latency_ms(failed) == math.inf
    assert due_latency_ms(unanswered) == math.inf


# -- backlog, rungs and the max_rps ladder ------------------------------------


def _rung(rate: float, latency_ms: float, backlog_slope: float = 0.0, lateness_s: float = 0.0,
          n: int = 1000) -> PhaseResult:
    outcomes = []
    for i in range(n):
        due = i / rate
        outcomes.append(Outcome(index=i, request=("search", str(i)), due=due, sent=due + lateness_s,
                                done=due + latency_ms / 1000.0))
    backlog = [(i / rate, int(5 + backlog_slope * i / rate)) for i in range(n)]
    return PhaseResult(rate=rate, outcomes=outcomes, backlog=backlog)


def test_backlog_growth_is_judged_against_the_offered_rate():
    flat = [(t / 10.0, 7) for t in range(100)]
    assert not backlog_grows(flat, rate=1000.0)
    climbing = [(t / 10.0, int(100 * t / 10.0)) for t in range(100)]
    assert backlog_grows(climbing, rate=1000.0)
    assert not backlog_grows(climbing, rate=10000.0)


def test_rung_passes_only_within_limit_without_backlog_or_late_generator():
    assert _rung(500.0, LATENCY_LIMIT_MS / 2).passes()
    assert not _rung(500.0, LATENCY_LIMIT_MS * 2).passes()
    assert not _rung(500.0, 5.0, backlog_slope=100.0).passes()
    assert not _rung(500.0, 5.0, lateness_s=0.05).passes()


def test_max_rps_is_the_achieved_rate_of_the_highest_passing_rung():
    rungs = [_rung(200.0, 5.0), _rung(400.0, 5.0), _rung(800.0, 500.0), _rung(1000.0, 5.0)]
    assert max_rps(rungs) == pytest.approx(rungs[3].achieved_rate())
    assert rungs[3].achieved_rate() == pytest.approx(1000 / (999 / 1000.0 + 0.005))
    assert max_rps([_rung(200.0, 500.0)]) == 0.0


def test_ladder_retries_a_failed_rate_and_stops_after_two_failed_rates():
    calls = []
    # rate -> latency of each successive attempt at that rate
    script = {100.0: [5.0], 200.0: [500.0, 5.0], 300.0: [500.0, 500.0], 400.0: [5.0],
              500.0: [500.0, 500.0], 600.0: [500.0, 500.0], 700.0: [5.0]}

    def run_rung(rate):
        calls.append(rate)
        return _rung(rate, script[rate][calls.count(rate) - 1])

    attempts = climb(run_rung, sorted(script))
    assert calls == [100.0, 200.0, 200.0, 300.0, 300.0, 400.0, 500.0, 500.0, 600.0, 600.0]
    assert max_rps(attempts) == pytest.approx(attempts[5].achieved_rate())


# -- spans and self time ------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("p", "parent", 0.0, 10.0),
        Span("a", "child", 1.0, 3.0, parent="p"),
        Span("b", "child", 2.0, 5.0, parent="p"),  # overlaps a (another thread)
        Span("c", "child", 8.0, 12.0, parent="p"),  # runs past the parent's end
        Span("g", "grandchild", 1.5, 2.5, parent="a"),
    ]
    own = self_times(spans)
    assert own["parent"] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own["child"] == pytest.approx((2.0 - 1.0) + 3.0 + 4.0)
    assert own["grandchild"] == pytest.approx(1.0)


def test_covered_length_merges_overlaps():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered_length([(0, 2)], 5, 10) == 0.0


def test_tracer_records_parent_and_request_id(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.span("outer"):
        with tracer.span("admission", request_id=7):
            assert tracer.current_request_id() == 7
            with tracer.span("inner"):
                assert tracer.current_request_id() == 7
        assert tracer.current_request_id() is None
        with tracer.paused():
            with tracer.span("hidden"):
                pass
    by_name = {span.name: span for span in tracer.spans}
    assert set(by_name) == {"outer", "admission", "inner"}
    assert by_name["inner"].parent == by_name["admission"].id
    assert by_name["admission"].parent == by_name["outer"].id
    assert by_name["admission"].request_id == 7


def test_dumped_spans_are_absorbed_once(tmp_path):
    child = Tracer(tmp_path)
    with child.span("work"):
        child.count("files", 3)
    child.dump()
    parent = Tracer(tmp_path)
    assert parent.absorb_children() == 1
    assert parent.absorb_children() == 0
    assert [span.name for span in parent.spans] == ["work"]
    assert parent.counts["files"] == 3


def test_wrappers_record_and_restore(tmp_path):
    class Layer:
        def work(self, items):
            return len(items)

        @classmethod
        def make(cls):
            return cls()

    tracer = Tracer(tmp_path)
    inst = Instrumentation(tracer)
    inst.wrap(Layer, "work", "layer.work", on_call=lambda a, k: tracer.count("keys", len(a[1])))
    inst.wrap(Layer, "make", "layer.make")
    assert Layer.make().work([1, 2, 3]) == 3
    assert [span.name for span in tracer.spans] == ["layer.make", "layer.work"]
    assert tracer.counts["keys"] == 3
    inst.restore()
    Layer.make().work([1])
    assert len(tracer.spans) == 2


# -- the contract file --------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(__import__("lifecycle").WORKLOADS)
