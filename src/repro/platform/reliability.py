"""Frontend reliability policies (the recovery half of ``repro.faults``).

A :class:`ReliabilityPolicy` tells the cluster frontend how to shepherd an
invocation to completion when nodes can crash or stall: retry with
exponential backoff plus jitter, an optional per-attempt timeout after
which the attempt is written off (it keeps executing — that energy is
wasted work, charged to retries), and optional hedged re-dispatch of a
slow attempt to a second node, first completion wins.

With no policy configured the frontend uses the original fire-and-wait
path untouched, so enabling ``repro.faults`` is strictly opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: How long the frontend waits before re-checking for an up node when the
#: whole cluster is down (rare; keeps the retry loop deterministic).
ALL_DOWN_POLL_S = 0.05


@dataclass(frozen=True)
class ReliabilityPolicy:
    """How the frontend retries, times out, and hedges invocations."""

    #: Re-dispatch attempts after the first one (0 = fail immediately on
    #: loss).
    max_retries: int = 4
    #: First backoff delay; attempt ``n`` waits
    #: ``backoff_base_s * backoff_multiplier**(n-1)``, jittered.
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    #: Uniform multiplicative jitter: the delay is scaled by a factor in
    #: ``[1 - jitter, 1 + jitter]`` (0 = deterministic backoff).
    backoff_jitter: float = 0.1
    #: Give up on an attempt after this many seconds (None = wait forever;
    #: crashed attempts are detected immediately either way).
    invocation_timeout_s: Optional[float] = None
    #: Launch one duplicate attempt on another node once the primary has
    #: run this long (None = no hedging).
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("backoff_base_s", "backoff_multiplier",
                     "backoff_jitter"):
            value = getattr(self, name)
            if math.isnan(value) or math.isinf(value):
                raise ValueError(f"{name} must be finite: {value}")
        for name in ("invocation_timeout_s", "hedge_after_s"):
            value = getattr(self, name)
            if value is not None and (math.isnan(value) or math.isinf(value)):
                raise ValueError(f"{name} must be finite: {value}")
        if self.max_retries < 0:
            raise ValueError(f"negative max_retries {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(f"negative backoff base {self.backoff_base_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff multiplier must be >= 1: {self.backoff_multiplier}")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff jitter must be in [0, 1): {self.backoff_jitter}")
        if (self.invocation_timeout_s is not None
                and self.invocation_timeout_s <= 0):
            raise ValueError(
                f"invocation timeout must be positive:"
                f" {self.invocation_timeout_s}")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ValueError(
                f"hedge delay must be positive: {self.hedge_after_s}")

    def backoff_s(self, attempt: int, jitter_draw: float = 0.0) -> float:
        """Backoff before retry ``attempt`` (1-based).

        ``jitter_draw`` is a uniform draw in [-1, 1] from the caller's
        deterministic stream.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        return delay * (1.0 + self.backoff_jitter * jitter_draw)
