"""Phi-accrual failure detection and the frontend's membership table.

The detector is the adaptive accrual detector of Hayashibara et al.
(2004), as deployed in Cassandra/Akka: rather than a binary
timeout, it emits a continuous suspicion level

    phi(t) = -log10 P(a heartbeat still arrives after t)

under a normal model of recent inter-arrival times. Small phi means the
silence is ordinary; phi growing past a threshold means the silence is
statistically inconsistent with the node being alive. Because the
simulation's heartbeats are metronome-regular, the interval standard
deviation is floored (``min_std_s``) — otherwise one delayed heartbeat
would read as an infinite-sigma event.

Everything here is pure bookkeeping over timestamps handed in by the
runtime; no clock or randomness is touched, which is what makes
suspicion timestamps bit-repeatable across runs.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Membership states.
ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"

#: Cap on phi so the metric stays finite when the tail underflows.
_PHI_CAP = 300.0

#: Trailing heartbeat intervals kept per node.
DETECTOR_WINDOW = 32
#: Floor on the interval standard deviation, seconds.
MIN_INTERVAL_STD_S = 0.02


class PhiAccrualDetector:
    """Per-member heartbeat history and the phi suspicion level."""

    def __init__(self, expected_interval_s: float,
                 window: int = DETECTOR_WINDOW,
                 min_std_s: float = MIN_INTERVAL_STD_S):
        if expected_interval_s <= 0:
            raise ValueError(
                f"expected_interval_s must be positive: {expected_interval_s}")
        self.expected_interval_s = expected_interval_s
        self.window = window
        self.min_std_s = min_std_s
        self._intervals: Dict[str, Deque[float]] = {}
        self._last: Dict[str, float] = {}

    def register(self, name: str, now: float) -> None:
        """Start tracking a member; silence is counted from ``now``."""
        self._last.setdefault(name, now)

    def heartbeat(self, name: str, now: float) -> None:
        """Record one heartbeat arrival."""
        last = self._last.get(name)
        if last is not None and now > last:
            window = self._intervals.setdefault(
                name, deque(maxlen=self.window))
            window.append(now - last)
        self._last[name] = now

    def last_arrival(self, name: str) -> Optional[float]:
        return self._last.get(name)

    def phi(self, name: str, now: float) -> float:
        """Suspicion level for ``name`` given silence up to ``now``."""
        last = self._last.get(name)
        if last is None:
            return 0.0
        window = self._intervals.get(name)
        if window:
            mean = sum(window) / len(window)
            variance = sum((x - mean) ** 2 for x in window) / len(window)
            std = math.sqrt(variance)
        else:
            mean = self.expected_interval_s
            std = self.min_std_s
        std = max(std, self.min_std_s)
        elapsed = now - last
        if elapsed <= mean:
            return 0.0
        # P(interval > elapsed) for a normal(mean, std) interval model.
        tail = 0.5 * math.erfc((elapsed - mean) / (std * math.sqrt(2.0)))
        if tail <= 0.0:
            return _PHI_CAP
        return min(-math.log10(tail), _PHI_CAP)


class MembershipTable:
    """The frontend's view of which node controllers are alive.

    State machine per member: ``alive -> suspected`` when phi crosses
    the threshold, ``suspected -> dead`` after ``dead_after_s`` more
    silence, and either non-alive state back to ``alive`` as soon as a
    fresh heartbeat pulls phi back under the threshold. Every transition
    is recorded with its timestamp — the determinism suite diffs these
    lists across same-seed runs.
    """

    def __init__(self, detector: PhiAccrualDetector, phi_threshold: float,
                 dead_after_s: float):
        self.detector = detector
        self.phi_threshold = phi_threshold
        self.dead_after_s = dead_after_s
        self._state: Dict[str, str] = {}
        self._suspected_at: Dict[str, float] = {}
        #: (time, member, new_state) transition log, in order.
        self.transitions: List[Tuple[float, str, str]] = []

    def state(self, name: str) -> str:
        return self._state.get(name, ALIVE)

    def suspected_at(self, name: str) -> Optional[float]:
        return self._suspected_at.get(name)

    def evaluate(self, name: str, now: float) -> Optional[str]:
        """Advance the member's state machine; returns a new state or None."""
        current = self.state(name)
        phi = self.detector.phi(name, now)
        if current == ALIVE:
            if phi > self.phi_threshold:
                self._suspected_at[name] = now
                return self._transition(name, SUSPECTED, now)
            return None
        if phi <= self.phi_threshold:
            self._suspected_at.pop(name, None)
            return self._transition(name, ALIVE, now)
        if (current == SUSPECTED
                and now - self._suspected_at[name] >= self.dead_after_s):
            return self._transition(name, DEAD, now)
        return None

    def _transition(self, name: str, state: str, now: float) -> str:
        self._state[name] = state
        self.transitions.append((now, name, state))
        return state

    def snapshot(self) -> Tuple[Tuple[float, str, str], ...]:
        """Immutable transition log for cross-run comparison."""
        return tuple(self.transitions)
