"""Per-function circuit breakers (closed / open / half-open).

A breaker watches one function's attempt outcomes at the frontend and
fails invocations fast while the function is known-bad, so the retry
machinery of :class:`repro.platform.reliability.ReliabilityPolicy` cannot
amplify an outage into a retry storm. Transitions are driven purely by
simulation time and outcome counts — no randomness.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.guard.config import BreakerConfig

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One function's breaker state machine."""

    def __init__(self, config: BreakerConfig, name: str = "",
                 observer=None):
        self.config = config
        self.name = name
        #: Optional transition observer ``(name, old, new)`` — the
        #: verify layer's legality monitor. None keeps transitions on
        #: the plain assignment path.
        self.observer = observer
        self.state = CLOSED
        #: Trailing attempt outcomes: (time, is_failure).
        self._outcomes: Deque[Tuple[float, bool]] = deque()
        self._opened_at: Optional[float] = None
        #: A half-open probe is in flight (only one is admitted).
        self._probe_in_flight = False
        #: Times the breaker tripped open (including re-opens).
        self.open_count = 0

    def _set_state(self, new_state: str) -> None:
        old = self.state
        self.state = new_state
        if self.observer is not None and old != new_state:
            self.observer(self.name, old, new_state)

    # ------------------------------------------------------------------
    # Outcome ingestion
    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        horizon = now - self.config.window_s
        while self._outcomes and self._outcomes[0][0] < horizon:
            self._outcomes.popleft()

    def record_failure(self, now: float) -> None:
        """One attempt failed (crash-abort, timeout, or counted miss)."""
        if self.state == HALF_OPEN:
            # The probe failed: back to open, restart the cooldown.
            self._trip(now)
            return
        self._outcomes.append((now, True))
        self._prune(now)
        if self.state == CLOSED and self._should_trip():
            self._trip(now)

    def record_success(self, now: float) -> None:
        """One attempt produced the invocation's result."""
        if self.state == HALF_OPEN:
            self._reset()
            return
        self._outcomes.append((now, False))
        self._prune(now)

    def _should_trip(self) -> bool:
        failures = sum(1 for _, failed in self._outcomes if failed)
        if failures < self.config.min_failures:
            return False
        return failures >= self.config.failure_rate * len(self._outcomes)

    def _trip(self, now: float) -> None:
        self._set_state(OPEN)
        self._opened_at = now
        self._probe_in_flight = False
        self._outcomes.clear()
        self.open_count += 1

    def _reset(self) -> None:
        self._set_state(CLOSED)
        self._opened_at = None
        self._probe_in_flight = False
        self._outcomes.clear()

    def snapshot(self) -> Dict[str, object]:
        """Decision-state summary for decision records (read-only)."""
        failures = sum(1 for _, failed in self._outcomes if failed)
        return {"state": self.state,
                "window_attempts": len(self._outcomes),
                "window_failures": failures,
                "open_count": self.open_count}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """May one attempt of this function be dispatched now?

        While open, returns False until ``open_for_s`` has elapsed; the
        first allowed call after the cooldown is the half-open probe, and
        further calls fail fast until the probe resolves.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.config.open_for_s:
                return False
            self._set_state(HALF_OPEN)
            self._probe_in_flight = False
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True


class BreakerBoard:
    """The frontend's breakers, one per function, created lazily."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        #: Transition observer handed to every breaker (see
        #: :attr:`CircuitBreaker.observer`). Arming a verifier sets it
        #: and back-fills the breakers created so far.
        self.observer = None
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, function_name: str) -> CircuitBreaker:
        if function_name not in self._breakers:
            self._breakers[function_name] = CircuitBreaker(
                self.config, name=function_name, observer=self.observer)
        return self._breakers[function_name]

    def states(self) -> Dict[str, str]:
        return {name: breaker.state
                for name, breaker in sorted(self._breakers.items())}
