"""Configuration for the cancellation & retry-budget layer (repro.cancel).

Everything is opt-in: a :class:`CancelConfig` with both sections ``None``
(or no config at all) leaves every code path byte-identical to the
original platform. Like the guard layer, all decisions derived from these
knobs are pure functions of simulation time and counters — no random
draws — so armed runs stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


def _require_finite(name: str, value: float) -> None:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DeadlineConfig:
    """Deadline propagation & cooperative cancellation.

    The doom line of a workflow is ``arrival + SLO + slack_s``: once the
    platform can prove an attempt cannot finish by then, running it any
    longer only burns joules. A deadline arms every cancel point of
    :class:`repro.cancel.runtime.CancelRuntime`: queued jobs are dropped
    at dequeue when their remaining work cannot fit before the doom
    line, hedged losers and timed-out attempts are killed instead of
    running on as abandoned work, and a chain whose doom line passed
    stops at the next stage boundary.
    """

    #: Grace beyond the workflow SLO before work is declared doomed.
    slack_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("slack_s", self.slack_s)
        if self.slack_s < 0:
            raise ValueError(f"slack_s must be >= 0, got {self.slack_s}")


@dataclass(frozen=True)
class RetryBudgetConfig:
    """A cluster-wide retry-token bucket layered under ReliabilityPolicy.

    Retries across the whole cluster are capped at ``ratio`` of the first
    attempts observed in the previous window (never below ``floor``), so
    per-invocation retry policies cannot compound into a retry storm.
    """

    #: Retries allowed per first-attempt (0.1 = retries <= 10% of load).
    ratio: float = 0.1
    #: Window over which first attempts are counted and the token pool is
    #: re-primed.
    window_s: float = 10.0
    #: Minimum tokens per window, so a near-idle cluster can still retry.
    floor: int = 3

    def __post_init__(self) -> None:
        _require_finite("ratio", self.ratio)
        _require_finite("window_s", self.window_s)
        if self.ratio <= 0:
            raise ValueError(f"ratio must be positive, got {self.ratio}")
        if self.window_s <= 0:
            raise ValueError(
                f"window_s must be positive, got {self.window_s}")
        if self.floor < 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")


@dataclass(frozen=True)
class CancelConfig:
    """Top-level opt-in switch for the cancellation layer.

    Each section arms one mechanism; a section left ``None`` keeps that
    mechanism's code paths byte-identical to the unarmed platform.
    """

    deadline: Optional[DeadlineConfig] = None
    retry_budget: Optional[RetryBudgetConfig] = None

    @classmethod
    def full(cls, **overrides) -> "CancelConfig":
        """Every mechanism armed with its defaults (test/demo helper)."""
        params = {
            "deadline": DeadlineConfig(),
            "retry_budget": RetryBudgetConfig(),
        }
        params.update(overrides)
        return cls(**params)
