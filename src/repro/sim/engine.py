"""The event loop (clock + heap) of the discrete-event kernel."""

from __future__ import annotations

import heapq
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER
from repro.verify.invariants import NULL_VERIFIER
from repro.sim.events import NORMAL, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment: simulation clock plus an ordered event heap.

    Events at equal timestamps fire ordered by (priority, sequence number),
    which makes runs fully deterministic.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Observability hook (repro.obs). The shared null tracer makes
        #: every instrumentation point a no-op; ``Tracer.bind(env)``
        #: swaps in a recording tracer stamped with this clock.
        self.trace = NULL_TRACER
        #: Degradation hook (repro.guard). None keeps every guard
        #: instrumentation point on the pre-guard code path; a cluster
        #: built with a GuardConfig installs its GuardRuntime here.
        self.guard = None
        #: Link model hook (repro.ha). None means every simulated message
        #: always delivers (the pre-HA code path); a cluster built with an
        #: HAConfig installs a LinkTable here, which partition faults cut
        #: and heal.
        self.links = None
        #: High-availability hook (repro.ha). None keeps every HA
        #: instrumentation point (membership-aware dispatch, lease
        #: fencing, re-dispatch) on the pre-HA code path.
        self.ha = None
        #: Decision audit hook (repro.obs.audit). None means control-plane
        #: decision points skip building audit records entirely;
        #: ``AuditLog.bind(env)`` installs a recording log here.
        self.audit = None
        #: Multi-tenancy hook (repro.tenancy). None keeps budget
        #: enforcement, the power-cap governor, and frequency/core
        #: clamps on the pre-tenancy code path; a cluster built with a
        #: TenancyConfig installs its TenancyRuntime here.
        self.tenancy = None
        #: Cancellation hook (repro.cancel). None keeps doom checks,
        #: cooperative cancellation, and the retry budget on the
        #: pre-cancel code path; a cluster built with a CancelConfig
        #: installs its CancelRuntime here.
        self.cancel = None
        #: Invariant-monitor hook (repro.verify). The shared null
        #: verifier makes every check point a no-op;
        #: ``Verifier.bind(env)`` swaps in a recording verifier. A bound
        #: verifier only reads simulation state, so verified runs stay
        #: bit-identical to the seed.
        self.verify = NULL_VERIFIER

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def active_process_target(self) -> Optional[Event]:
        """The active process's wait target (kernel internal)."""
        if self._active_process is None:
            return None
        return self._active_process._target

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event for manual triggering."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Sequence[Event]) -> AllOf:
        """Event that fires when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Sequence[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue a triggered event to be processed after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if the heap is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        verify = self.verify
        if verify.enabled:
            verify.on_step(self._now)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An event failed and nobody was listening: surface the error.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the next event lies beyond it.
        """
        if until is not None:
            until = float(until)
            if until < self._now:
                raise ValueError(
                    f"until={until} lies in the past (now={self._now})")
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until
