"""Open-loop request generation and the latency rules the benchmark reports.

The generator is *open loop*: one thread sends each request when it is
due, whether or not earlier ones have been answered, the way independent
users arrive. Latency is timed from the due time, not from the moment
the request was actually handed to the service, so a stall in the
generator or in admission is charged to every request it delays. The
generator also reports how late it sent (``lateness``); a phase whose
median lateness exceeds :data:`MAX_MEDIAN_LATENESS_S` is invalid,
because the offered rate was not the one it claims.

Everything here is pure arithmetic on timestamps except
:class:`OpenLoop`, so the rules are unit-tested on synthetic inputs.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

#: Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reportable only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10
#: Latency limit (on p99) a ladder rung must meet.
LATENCY_LIMIT_MS = 50.0
#: A rung's backlog "grows" when outstanding requests rise faster than
#: this share of the offered rate (requests per second per request/s).
BACKLOG_GROWTH_SHARE = 0.05
#: A phase is invalid when the generator's median lateness exceeds this.
MAX_MEDIAN_LATENESS_S = 0.005
#: How long the generator waits for the last answers of a phase.
DRAIN_TIMEOUT_S = 60.0


def nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of an ascending list (nearest-rank rule)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9))


def tail_percentile(n: int) -> float | None:
    """The highest reportable percentile for ``n`` samples, or None.

    That is the highest entry of :data:`PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` samples above it: p99 needs 1000 samples,
    p95 needs 200.
    """
    best = None
    for q in PERCENTILES:
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def percentile_ms(latencies_ms: list[float], q: float) -> float:
    """``q``-th percentile of a latency sample, refusing an under-sized one.

    Failed requests enter the sample as ``inf``: they miss every limit.
    """
    highest = tail_percentile(len(latencies_ms))
    if highest is None or q > highest:
        raise ValueError(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; have {len(latencies_ms)} samples"
        )
    return nearest_rank(sorted(latencies_ms), q)


@dataclass
class Outcome:
    """One request of an open-loop phase."""

    index: int
    request: tuple
    due: float
    sent: float = 0.0
    admit_s: float = 0.0
    done: float | None = None
    #: Digest of the answer (the answer itself is dropped at once, so the
    #: benchmark does not grow the heap the service's threads share).
    digest: bytes | None = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.done is not None and self.error is None


def due_latency_ms(outcome: Outcome) -> float:
    """Latency from the due time; ``inf`` for a failed or unanswered request."""
    if not outcome.ok:
        return math.inf
    return (outcome.done - outcome.due) * 1000.0


def backlog_slope(samples: list[tuple[float, int]]) -> float:
    """Least-squares slope (requests/s) of outstanding requests over time."""
    if len(samples) < 2:
        return 0.0
    n = len(samples)
    mean_t = sum(t for t, _ in samples) / n
    mean_q = sum(q for _, q in samples) / n
    var_t = sum((t - mean_t) ** 2 for t, _ in samples)
    if var_t <= 0.0:
        return 0.0
    return sum((t - mean_t) * (q - mean_q) for t, q in samples) / var_t


def backlog_grows(samples: list[tuple[float, int]], rate: float) -> bool:
    """True when the outstanding-request count climbs with the offered rate."""
    return backlog_slope(samples) > BACKLOG_GROWTH_SHARE * rate


@dataclass
class PhaseResult:
    """What one open-loop phase measured."""

    rate: float
    outcomes: list[Outcome]
    backlog: list[tuple[float, int]] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        return [due_latency_ms(outcome) for outcome in self.outcomes]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def lateness_s(self) -> list[float]:
        return [outcome.sent - outcome.due for outcome in self.outcomes]

    @property
    def generator_behind(self) -> bool:
        lateness = sorted(self.lateness_s)
        return bool(lateness) and nearest_rank(lateness, 50.0) > MAX_MEDIAN_LATENESS_S

    def achieved_rate(self) -> float:
        """Answered requests per second, from the first due time to the last answer."""
        answered = [outcome.done for outcome in self.outcomes if outcome.ok]
        if not answered:
            return 0.0
        span = max(answered) - self.outcomes[0].due
        return len(answered) / span if span > 0 else 0.0

    def passes(self) -> bool:
        """The ladder rule: p99 within the limit, no growing backlog, generator on time."""
        if self.generator_behind or backlog_grows(self.backlog, self.rate):
            return False
        return percentile_ms(self.latencies_ms, 99.0) <= LATENCY_LIMIT_MS


#: Attempts a ladder rate gets before it counts as failed.
RUNG_ATTEMPTS = 2
#: The ladder ends after this many failed rates in a row.
FAILED_RATES_TO_STOP = 2


def climb(run_rung, rates) -> list[PhaseResult]:
    """Run the capacity ladder; returns every attempt in the order run.

    ``run_rung(rate)`` runs one rung. A rate whose first attempt fails
    gets a second one, and the ladder ends after two failed rates in a
    row: one stall of a shared machine should not decide the capacity
    of the service.
    """
    attempts: list[PhaseResult] = []
    failed_in_a_row = 0
    for rate in rates:
        passed = False
        for _ in range(RUNG_ATTEMPTS):
            attempt = run_rung(rate)
            attempts.append(attempt)
            if attempt.passes():
                passed = True
                break
        failed_in_a_row = 0 if passed else failed_in_a_row + 1
        if failed_in_a_row == FAILED_RATES_TO_STOP:
            break
    return attempts


def max_rps(rungs: list[PhaseResult]) -> float:
    """Achieved rate of the highest passing rung; 0.0 when none passes.

    The value is the *achieved* answered-request rate on that rung, not
    its nominal rate.
    """
    passing = [rung.achieved_rate() for rung in rungs if rung.passes()]
    return max(passing, default=0.0)


class OpenLoop:
    """One generator thread sending ``requests`` at ``rate`` per second.

    ``submit(request)`` must return a future and may raise (a refused
    request counts as failed); ``digest(answer)`` condenses each answer
    for the correctness check. ``admit_span(outcome)`` optionally wraps
    the submit call (the traced run records an admission span there).
    ``stop`` ends the schedule early once ``min_requests`` were sent —
    the grow phase keeps its trickle running exactly as long as the
    writes it overlaps.
    """

    def __init__(self, submit, digest, requests: list[tuple], rate: float, admit_span=None,
                 min_requests: int | None = None) -> None:
        self._submit = submit
        self._digest = digest
        self._requests = requests
        self._rate = float(rate)
        self._admit_span = admit_span
        self._min_requests = len(requests) if min_requests is None else min_requests
        self._lock = threading.Lock()
        self._outstanding = 0
        self._sending_done = False
        self._all_done = threading.Event()
        self._stop = threading.Event()
        self.result = PhaseResult(rate=self._rate, outcomes=[])
        self._thread = threading.Thread(target=self._run, name="perfbench-open-loop", daemon=True)

    def start(self) -> "OpenLoop":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sending once at least ``min_requests`` were sent."""
        self._stop.set()

    def join(self) -> PhaseResult:
        self._thread.join()
        if not self._all_done.wait(DRAIN_TIMEOUT_S):
            raise TimeoutError("open-loop requests still unanswered after the drain timeout")
        return self.result

    def run(self) -> PhaseResult:
        return self.start().join()

    def _finish(self, outcome: Outcome, future) -> None:
        outcome.done = time.perf_counter()
        try:
            outcome.digest = self._digest(future.result())
        except Exception as error:  # every failure kind counts the same
            outcome.error = error
        with self._lock:
            self._outstanding -= 1
            if self._outstanding == 0 and self._sending_done:
                self._all_done.set()

    def _run(self) -> None:
        outcomes = self.result.outcomes
        backlog = self.result.backlog
        start = time.perf_counter()
        try:
            for index, request in enumerate(self._requests):
                if index >= self._min_requests and self._stop.is_set():
                    break
                due = start + index / self._rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome = Outcome(index=index, request=request, due=due)
                outcomes.append(outcome)
                outcome.sent = time.perf_counter()
                with self._lock:
                    self._outstanding += 1
                    backlog.append((outcome.sent - start, self._outstanding))
                try:
                    if self._admit_span is None:
                        future = self._submit(request)
                    else:
                        with self._admit_span(outcome):
                            future = self._submit(request)
                except Exception as error:
                    outcome.done = time.perf_counter()
                    outcome.error = error
                    with self._lock:
                        self._outstanding -= 1
                    continue
                outcome.admit_s = time.perf_counter() - outcome.sent
                # The outcome must not reference its future: the future's
                # callback references the outcome, and the cycle would
                # leave every request as garbage that only the cyclic
                # collector frees, in pauses that land on the latency tail.
                future.add_done_callback(lambda f, o=outcome: self._finish(o, f))
        finally:
            with self._lock:
                self._sending_done = True
                if self._outstanding == 0:
                    self._all_done.set()
