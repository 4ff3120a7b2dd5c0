"""SLO burn-rate monitors: deterministic latency histograms + alerts.

Per benchmark, the monitor keeps

* a **log-bucket latency histogram** — bucket ``i`` covers latencies in
  ``[1ms * 2^(i/4), 1ms * 2^((i+1)/4))``, i.e. four buckets per doubling
  starting at 1 ms. Bucketing is pure integer math on the latency value,
  so same-seed runs build byte-identical histograms; and
* **windowed burn rates** — the SLO-miss rate over a fast
  (:data:`FAST_WINDOW_S`) and a slow (:data:`SLOW_WINDOW_S`) trailing
  window, divided by :data:`TARGET_MISS_RATE` (the error budget). A
  burn above 1 means the budget is being consumed faster than
  provisioned.

Crossing a burn threshold emits a ``slo_burn_fast`` / ``slo_burn_slow``
trace instant on the frontend track (rising edge only — alerts don't
refire while the condition persists), and the epoch-metrics exporter
counts those instants into ``slo_fast_burns`` / ``slo_slow_burns``
columns via the shared registry.

The monitor observes workflow-end events through the tracer (see
``Tracer.workflow_end``) and never touches simulation state, so
attaching one keeps runs bit-identical.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List

#: Lowest histogram bucket boundary (seconds) and buckets per doubling.
_BASE_S = 1e-3
_BUCKETS_PER_DOUBLING = 4

#: Multi-window multi-burn-rate alerting policy (SRE-style).
#: Error budget: the provisioned SLO-miss rate per benchmark.
TARGET_MISS_RATE = 0.1
FAST_WINDOW_S = 5.0
SLOW_WINDOW_S = 30.0
#: Burn thresholds: fast window trips on sharp budget consumption,
#: slow window on sustained consumption at (or above) budget rate.
FAST_BURN = 4.0
SLOW_BURN = 1.0
#: Minimum observations in a window before it may alert.
MIN_SAMPLES = 5


def bucket_index(latency_s: float) -> int:
    """Deterministic log-bucket index for a latency (>= 0)."""
    if latency_s < _BASE_S:
        return 0
    return 1 + int(math.floor(
        _BUCKETS_PER_DOUBLING * math.log2(latency_s / _BASE_S)))


def bucket_bounds(index: int) -> tuple:
    """The ``[lo, hi)`` latency range of a bucket, in seconds."""
    if index <= 0:
        return (0.0, _BASE_S)
    return (_BASE_S * 2 ** ((index - 1) / _BUCKETS_PER_DOUBLING),
            _BASE_S * 2 ** (index / _BUCKETS_PER_DOUBLING))


class LogBucketHistogram:
    """A sparse log-bucket latency histogram (4 buckets per doubling)."""

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0

    def observe(self, latency_s: float) -> None:
        index = bucket_index(latency_s)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1

    def percentile(self, q: float) -> float:
        """Estimated latency at quantile ``q`` (upper bucket bound)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return bucket_bounds(index)[1]
        return bucket_bounds(max(self.buckets))[1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "buckets": {str(i): self.buckets[i]
                        for i in sorted(self.buckets)},
            "p50_est_s": self.percentile(0.50),
            "p99_est_s": self.percentile(0.99),
        }


class _BenchmarkWindow:
    """Per-benchmark state: trailing events, histogram, alert edges."""

    def __init__(self) -> None:
        #: (t, met) workflow completions, oldest first.
        self.events: deque = deque()
        self.histogram = LogBucketHistogram()
        self.fast_alerting = False
        self.slow_alerting = False
        self.fast_alerts = 0
        self.slow_alerts = 0


class BurnRateMonitor:
    """Tracks per-benchmark SLO burn and emits threshold-crossing alerts."""

    def __init__(self) -> None:
        #: run → benchmark → window state.
        self._runs: Dict[int, Dict[str, _BenchmarkWindow]] = {}
        self._run = 0

    def begin_run(self, run: int, label: str) -> None:
        self._run = run
        self._runs.setdefault(run, {})

    def _window(self, benchmark: str) -> _BenchmarkWindow:
        per_run = self._runs.setdefault(self._run, {})
        state = per_run.get(benchmark)
        if state is None:
            state = per_run[benchmark] = _BenchmarkWindow()
        return state

    def _burn(self, state: _BenchmarkWindow, now: float,
              window_s: float) -> tuple:
        """(burn rate, sample count) over the trailing window."""
        cutoff = now - window_s
        total = 0
        missed = 0
        for t, met in reversed(state.events):
            if t < cutoff:
                break
            total += 1
            if not met:
                missed += 1
        if total == 0:
            return 0.0, 0
        return (missed / total) / TARGET_MISS_RATE, total

    def observe(self, tracer, benchmark: str, t: float, met: bool,
                latency_s: float = 0.0) -> None:
        """One workflow completion; called from ``Tracer.workflow_end``."""
        state = self._window(benchmark)
        state.events.append((t, met))
        state.histogram.observe(latency_s)
        # Prune anything older than the slow window.
        cutoff = t - SLOW_WINDOW_S
        while state.events and state.events[0][0] < cutoff:
            state.events.popleft()

        fast, n_fast = self._burn(state, t, FAST_WINDOW_S)
        slow, n_slow = self._burn(state, t, SLOW_WINDOW_S)
        fast_hot = n_fast >= MIN_SAMPLES and fast >= FAST_BURN
        slow_hot = n_slow >= MIN_SAMPLES and slow >= SLOW_BURN
        # Rising-edge alerts only: one instant per excursion.
        if fast_hot and not state.fast_alerting:
            state.fast_alerts += 1
            tracer.instant("slo_burn_fast", "frontend",
                           benchmark=benchmark, burn=round(fast, 4),
                           window_s=FAST_WINDOW_S, samples=n_fast)
        if slow_hot and not state.slow_alerting:
            state.slow_alerts += 1
            tracer.instant("slo_burn_slow", "frontend",
                           benchmark=benchmark, burn=round(slow, 4),
                           window_s=SLOW_WINDOW_S, samples=n_slow)
        state.fast_alerting = fast_hot
        state.slow_alerting = slow_hot

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        runs: List[Dict[str, Any]] = []
        for run in sorted(self._runs):
            benchmarks = {}
            for name in sorted(self._runs[run]):
                state = self._runs[run][name]
                benchmarks[name] = {
                    "fast_alerts": state.fast_alerts,
                    "slow_alerts": state.slow_alerts,
                    "histogram": state.histogram.to_dict(),
                }
            runs.append({"run": run, "benchmarks": benchmarks})
        return {
            "config": {
                "target_miss_rate": TARGET_MISS_RATE,
                "fast_window_s": FAST_WINDOW_S,
                "slow_window_s": SLOW_WINDOW_S,
                "fast_burn": FAST_BURN,
                "slow_burn": SLOW_BURN,
                "min_samples": MIN_SAMPLES,
            },
            "runs": runs,
        }
