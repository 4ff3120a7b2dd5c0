"""Synthetic Azure-Functions-like invocation traces.

Calibrated to the statistics the paper quotes from the production traces
(Sections III-5 and VIII-A):

* heavy-tailed function popularity — in a 10 s window ~119 distinct
  functions run, a function is invoked 14 times on average, and the top
  decile exceeds 113 invocations;
* burstiness — "the same function is invoked many times in a short
  period", with up to 33 concurrent invocations of one function;
* churn — the distinct-function count per window (Fig. 7) rises from ~3
  (mean, 1 s windows in a small cluster) to dozens in 10 s windows.

The generator superimposes, per function, a low-rate background Poisson
process and Poisson-arriving *bursts* of geometrically-sized invocation
trains with sub-second spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.traces.trace import Trace, TraceEvent

#: Lognormal jitter sigma around the Zipf rank weights.
POPULARITY_SIGMA = 0.3


@dataclass(frozen=True)
class AzureTraceConfig:
    """Knobs of the synthetic trace generator (the popularity jitter is
    :data:`POPULARITY_SIGMA`)."""

    n_functions: int = 400
    duration_s: float = 600.0
    #: Mean per-function background arrival rate, Hz (before popularity).
    base_rate_hz: float = 0.08
    #: Zipf exponent of rank-based popularity (1.3 reproduces the quoted
    #: "top 12 functions account for 76 % of invocations").
    zipf_exponent: float = 1.3
    #: Per-function burst arrival rate, Hz (scales with popularity).
    burst_rate_hz: float = 0.02
    #: Mean invocations per burst (geometric).
    burst_size_mean: float = 12.0
    #: Mean spacing between invocations inside a burst, seconds.
    burst_spacing_s: float = 0.05
    #: Cluster-wide load-spike rate, Hz (0 disables). During a spike
    #: window every function's background rate is multiplied — this is
    #: what produces the paper's extreme "36 distinct functions in one
    #: second" tail, which per-function-independent bursts cannot reach.
    spike_rate_hz: float = 0.0
    #: Spike window length, seconds.
    spike_duration_s: float = 1.0
    #: Rate multiplier during a spike.
    spike_boost: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_functions < 1:
            raise ValueError("need at least one function")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        for attr in ("base_rate_hz", "burst_rate_hz", "burst_size_mean",
                     "burst_spacing_s", "zipf_exponent"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.spike_rate_hz < 0:
            raise ValueError("spike_rate_hz must be non-negative")
        if self.spike_rate_hz > 0 and (self.spike_duration_s <= 0
                                       or self.spike_boost <= 1.0):
            raise ValueError("spikes need positive duration and boost > 1")

    @classmethod
    def small_cluster(cls, duration_s: float = 600.0,
                      seed: int = 0) -> "AzureTraceConfig":
        """The Fig. 7 setting: a small cluster with modest churn
        (~3 distinct functions per second on average, up to ~36)."""
        return cls(n_functions=120, duration_s=duration_s,
                   base_rate_hz=0.03, zipf_exponent=1.1,
                   burst_rate_hz=0.004, burst_size_mean=10.0,
                   burst_spacing_s=0.08,
                   spike_rate_hz=0.01, spike_duration_s=1.0,
                   spike_boost=12.0, seed=seed)

    @classmethod
    def evaluation(cls, duration_s: float = 600.0,
                   seed: int = 0) -> "AzureTraceConfig":
        """The Section VIII-A setting: ~119 distinct functions per 10 s
        window, mean 14 invocations per function per window, bursty."""
        return cls(n_functions=150, duration_s=duration_s,
                   base_rate_hz=0.35, zipf_exponent=1.3,
                   burst_rate_hz=0.056, burst_size_mean=14.0,
                   burst_spacing_s=0.04, seed=seed)


def _poisson_arrivals(rng: np.random.Generator, rate_hz: float,
                      duration_s: float) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on [0, duration)."""
    n = rng.poisson(rate_hz * duration_s)
    return np.sort(rng.uniform(0.0, duration_s, size=n))


def generate_azure_trace(config: AzureTraceConfig) -> Trace:
    """Generate a synthetic trace; function names are ``fn000`` ... ."""
    rng = np.random.default_rng(config.seed)
    ranks = np.arange(1, config.n_functions + 1, dtype=float)
    popularity = ranks ** -config.zipf_exponent
    popularity *= np.exp(
        POPULARITY_SIGMA * rng.standard_normal(config.n_functions))
    popularity /= popularity.mean()  # so base_rate_hz is the mean rate
    spikes = _poisson_arrivals(rng, config.spike_rate_hz,
                               config.duration_s)
    events: List[TraceEvent] = []
    for i in range(config.n_functions):
        name = f"fn{i:03d}"
        weight = popularity[i]
        for t in _poisson_arrivals(
                rng, config.base_rate_hz * weight, config.duration_s):
            events.append(TraceEvent(float(t), name))
        for burst_start in _poisson_arrivals(
                rng, config.burst_rate_hz * weight, config.duration_s):
            size = rng.geometric(1.0 / config.burst_size_mean)
            gaps = rng.exponential(config.burst_spacing_s, size=size)
            t = burst_start
            for gap in gaps:
                t += gap
                if t >= config.duration_s:
                    break
                events.append(TraceEvent(float(t), name))
        # Cluster-wide load spikes hit every function simultaneously.
        for spike_start in spikes:
            extra_rate = (config.base_rate_hz * weight
                          * (config.spike_boost - 1.0))
            n_extra = rng.poisson(extra_rate * config.spike_duration_s)
            for offset in rng.uniform(0.0, config.spike_duration_s,
                                      size=n_extra):
                t = float(spike_start + offset)
                if t < config.duration_s:
                    events.append(TraceEvent(t, name))
    return Trace(events, config.duration_s)


def map_to_benchmarks(trace: Trace, benchmarks: Sequence[str],
                      ) -> Trace:
    """Assign benchmarks to the most popular trace functions (§VIII-A).

    The paper selects the 12 most popular functions (76 % of invocations)
    and assigns one evaluated benchmark to each. Returns the restricted and
    renamed trace. Popularity rank *k* maps to ``benchmarks[k]``, so order
    the list lightest-first for a realistic short-functions-are-popular
    mix.
    """
    if not benchmarks:
        raise ValueError("need at least one benchmark to map")
    popular = trace.benchmarks()[:len(benchmarks)]
    if len(popular) < len(benchmarks):
        raise ValueError(
            f"trace has only {len(popular)} distinct functions,"
            f" cannot map {len(benchmarks)} benchmarks")
    mapping: Dict[str, str] = dict(zip(popular, benchmarks))
    return trace.restrict_to(popular).rename(mapping)
