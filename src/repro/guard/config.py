"""Guard tunables: admission, breakers, safe mode, checkpoints.

A :class:`GuardConfig` switches on the graceful-degradation machinery of
``repro.guard``. Every sub-policy is independently optional: any of the
four sections may be ``None``, and a :class:`Cluster` built without a
``GuardConfig`` at all runs the exact pre-guard code paths (the
regression suite pins this down to the byte).

All guard decisions are pure functions of simulation time and observed
counters — no random draws — so guarded runs are exactly as deterministic
as unguarded ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple


def _require_finite(name: str, value: float) -> None:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite: {value}")


@dataclass(frozen=True)
class AdmissionConfig:
    """Frontend admission control and brownout load shedding.

    Two mechanisms compose:

    * **token buckets** — one bucket per benchmark, refilled at
      ``rate_rps`` with ``burst`` capacity, enforced on best-effort work
      always and on SLO-bearing work only at the deepest brownout level;
    * **brownout levels** — the cluster's estimated wait time per core
      (the EWT signal the dispatchers already maintain) is compared to
      ``brownout_ewt_s``: level 0 below the first threshold, level 1
      between the two (best-effort work is shed), level 2 above the
      second (SLO-bearing work is rate-limited to the bucket too).

    Best-effort work is always dropped before SLO-bearing work: a
    benchmark listed in ``best_effort`` is shed at any brownout level
    >= 1 and is bucket-limited even at level 0.
    """

    #: Sustained admission rate per benchmark, workflows/second.
    rate_rps: float = 50.0
    #: Bucket capacity (burst headroom above the sustained rate).
    burst: float = 25.0
    #: (level-1, level-2) EWT-per-core thresholds, seconds.
    brownout_ewt_s: Tuple[float, float] = (1.0, 3.0)
    #: Benchmarks treated as best-effort (shed first in a brownout).
    best_effort: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _require_finite("rate_rps", self.rate_rps)
        _require_finite("burst", self.burst)
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive: {self.rate_rps}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1 token: {self.burst}")
        if len(self.brownout_ewt_s) != 2:
            raise ValueError("brownout_ewt_s needs exactly two thresholds")
        low, high = self.brownout_ewt_s
        _require_finite("brownout_ewt_s[0]", low)
        _require_finite("brownout_ewt_s[1]", high)
        if not 0 < low <= high:
            raise ValueError(
                f"brownout thresholds must satisfy 0 < low <= high:"
                f" {self.brownout_ewt_s}")


@dataclass(frozen=True)
class BreakerConfig:
    """Per-function circuit breakers at the frontend.

    A breaker trips **open** when, within the trailing ``window_s``, at
    least ``min_failures`` attempt failures (crash-aborted attempts,
    written-off timeouts, and — optionally — deadline misses) occurred
    and they make up at least ``failure_rate`` of the attempts. While
    open, invocations of the function fail fast instead of feeding the
    retry loop. After ``open_for_s`` the breaker goes **half-open** and
    admits one probe invocation: success closes the breaker, failure
    re-opens it for another ``open_for_s``.
    """

    window_s: float = 10.0
    min_failures: int = 3
    failure_rate: float = 0.5
    open_for_s: float = 5.0
    #: Count deadline misses of successful attempts as failures too.
    count_deadline_misses: bool = False

    def __post_init__(self) -> None:
        for name in ("window_s", "failure_rate", "open_for_s"):
            _require_finite(name, getattr(self, name))
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive: {self.window_s}")
        if self.min_failures < 1:
            raise ValueError(
                f"min_failures must be >= 1: {self.min_failures}")
        if not 0 < self.failure_rate <= 1:
            raise ValueError(
                f"failure_rate must be in (0, 1]: {self.failure_rate}")
        if self.open_for_s <= 0:
            raise ValueError(
                f"open_for_s must be positive: {self.open_for_s}")


@dataclass(frozen=True)
class SafeModeConfig:
    """Control-plane fallbacks: solver budget, predictor sanity, pinning.

    * ``milp_node_budget`` caps the labels (partial plans) one
      ``solve_milp`` call may build; a solve that exhausts the budget
      makes the Workflow Controller fall back to the proportional split
      (the same policy Baseline+PowerCtrl uses) until the next
      ``T_update``.
    * Predictions (``T_Run`` / ``T_Block`` / ``Energy``) are screened:
      NaN, negative, non-finite, or values more than ``prediction_rel_max``
      times the last known-good prediction (or above
      ``prediction_abs_max_s`` seconds / joules outright) are replaced by
      the last known-good value and counted as mispredictions.
    * A function whose profile has not absorbed a new observation for
      ``dpt_staleness_s`` seconds has an untrustworthy Delay-Power Table
      row; its dispatches are pinned to the top frequency (the paper's
      always-safe level) until fresh data arrives.
    """

    #: Label budget per deadline-split solve (None = unbudgeted).
    milp_node_budget: Optional[int] = 2_000
    #: Relative sanity bound against the last known-good prediction.
    prediction_rel_max: float = 20.0
    #: Absolute sanity bound (seconds or joules, matching the quantity).
    prediction_abs_max_s: float = 600.0
    #: Profile staleness bound before frequency pinning (None = no pinning).
    dpt_staleness_s: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.milp_node_budget is not None and self.milp_node_budget < 1:
            raise ValueError(
                f"milp_node_budget must be >= 1: {self.milp_node_budget}")
        _require_finite("prediction_rel_max", self.prediction_rel_max)
        _require_finite("prediction_abs_max_s", self.prediction_abs_max_s)
        if self.prediction_rel_max <= 1:
            raise ValueError(
                f"prediction_rel_max must be > 1: {self.prediction_rel_max}")
        if self.prediction_abs_max_s <= 0:
            raise ValueError(
                f"prediction_abs_max_s must be positive:"
                f" {self.prediction_abs_max_s}")
        if self.dpt_staleness_s is not None:
            _require_finite("dpt_staleness_s", self.dpt_staleness_s)
            if self.dpt_staleness_s <= 0:
                raise ValueError(
                    f"dpt_staleness_s must be positive:"
                    f" {self.dpt_staleness_s}")


@dataclass(frozen=True)
class CheckpointConfig:
    """Node-controller checkpoints and the refresh watchdog.

    Every ``period_s`` each node controller snapshots its transient
    control state (pool levels and core targets, smoothed demand). A
    crash-recovered controller (the ``repro.faults`` reboot hook) restores
    the latest snapshot instead of rebooting to cold state — unless the
    snapshot is older than ``max_staleness_s``, in which case cold state
    is safer than stale state. The watchdog forces a pool refresh on any
    controller that has not refreshed for ``watchdog_factor`` times its
    configured period (a stuck control loop under overload).
    """

    period_s: float = 1.0
    max_staleness_s: float = 10.0
    watchdog_factor: float = 3.0

    def __post_init__(self) -> None:
        for name in ("period_s", "max_staleness_s", "watchdog_factor"):
            _require_finite(name, getattr(self, name))
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive: {self.period_s}")
        if self.max_staleness_s <= 0:
            raise ValueError(
                f"max_staleness_s must be positive: {self.max_staleness_s}")
        if self.watchdog_factor < 1:
            raise ValueError(
                f"watchdog_factor must be >= 1: {self.watchdog_factor}")


@dataclass(frozen=True)
class GuardConfig:
    """The full graceful-degradation policy of one cluster.

    Any section left ``None`` disables that guard; a cluster with no
    ``GuardConfig`` at all runs the pre-guard code byte-for-byte.
    """

    admission: Optional[AdmissionConfig] = None
    breaker: Optional[BreakerConfig] = None
    safe_mode: Optional[SafeModeConfig] = None
    checkpoint: Optional[CheckpointConfig] = None

    @classmethod
    def full(cls, **overrides) -> "GuardConfig":
        """Every guard enabled at its default operating point."""
        values = {
            "admission": AdmissionConfig(),
            "breaker": BreakerConfig(),
            "safe_mode": SafeModeConfig(),
            "checkpoint": CheckpointConfig(),
        }
        values.update(overrides)
        return cls(**values)
