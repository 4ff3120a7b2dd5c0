"""Frontend admission control: token buckets and brownout shedding.

The admission controller sits in front of :meth:`Cluster.submit_workflow`.
Its decisions depend only on simulation time and the cluster's live EWT
signal, so guarded runs stay deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.guard.config import AdmissionConfig

#: Shed reasons (also the ``reason`` arg of the ``shed`` trace instant).
SHED_BROWNOUT = "brownout"          # best-effort work during a brownout
SHED_RATE_LIMIT = "rate_limit"      # best-effort bucket empty
SHED_OVERLOAD = "overload"          # SLO-bearing bucket empty at level 2


class TokenBucket:
    """A deterministic token bucket refilled by simulation time."""

    def __init__(self, rate_rps: float, burst: float):
        if rate_rps <= 0:
            raise ValueError(f"rate must be positive: {rate_rps}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1: {burst}")
        self.rate_rps = rate_rps
        self.burst = burst
        self._tokens = burst
        self._last_refill_s = 0.0

    def _refill(self, now: float) -> None:
        elapsed = now - self._last_refill_s
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate_rps)
        self._last_refill_s = now

    def peek(self, now: float) -> float:
        """Tokens available at ``now`` (without consuming any)."""
        self._refill(now)
        return self._tokens

    def take(self, now: float) -> bool:
        """Consume one token if available; False means rate-limited."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Per-benchmark token buckets plus EWT-driven brownout levels."""

    def __init__(self, config: AdmissionConfig):
        self.config = config
        self._buckets: Dict[str, TokenBucket] = {}
        #: Current brownout level (0 = normal); updated on every decision.
        self.level = 0
        #: Shed counts by (benchmark, reason).
        self.shed_counts: Dict[Tuple[str, str], int] = {}

    def bucket(self, benchmark: str) -> TokenBucket:
        if benchmark not in self._buckets:
            self._buckets[benchmark] = TokenBucket(self.config.rate_rps,
                                                   self.config.burst)
        return self._buckets[benchmark]

    def brownout_level(self, ewt_per_core_s: float) -> int:
        low, high = self.config.brownout_ewt_s
        if ewt_per_core_s >= high:
            return 2
        if ewt_per_core_s >= low:
            return 1
        return 0

    def is_best_effort(self, benchmark: str) -> bool:
        return benchmark in self.config.best_effort

    def admit(self, benchmark: str, now: float, ewt_per_core_s: float,
              force_best_effort: bool = False) -> Optional[str]:
        """Admit one workflow arrival, or return the shed reason.

        Best-effort work is shed first: it is bucket-limited at every
        brownout level and dropped outright at level >= 1. SLO-bearing
        work is only rate-limited at level 2 — so below saturation (EWT
        under the thresholds) no SLO-bearing workflow is ever shed.

        ``force_best_effort`` demotes this one arrival into the
        best-effort class regardless of configuration — the tenancy
        layer's "over-budget tenants shed first" wiring.
        """
        self.level = self.brownout_level(ewt_per_core_s)
        if force_best_effort or self.is_best_effort(benchmark):
            if self.level >= 1:
                return self._shed(benchmark, SHED_BROWNOUT)
            if not self.bucket(benchmark).take(now):
                return self._shed(benchmark, SHED_RATE_LIMIT)
            return None
        if self.level >= 2 and not self.bucket(benchmark).take(now):
            return self._shed(benchmark, SHED_OVERLOAD)
        return None

    def _shed(self, benchmark: str, reason: str) -> str:
        key = (benchmark, reason)
        self.shed_counts[key] = self.shed_counts.get(key, 0) + 1
        return reason

    def snapshot(self, benchmark: str, now: float) -> Dict[str, object]:
        """Decision-state summary for decision records.

        Peeking refills the benchmark's bucket, so only traced runs
        call this.
        """
        return {"brownout_level": self.level,
                "tokens": round(self.bucket(benchmark).peek(now), 4),
                "best_effort": self.is_best_effort(benchmark)}
