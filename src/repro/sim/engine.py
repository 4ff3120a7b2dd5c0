"""The event loop (clock + heap) of the discrete-event kernel."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER
from repro.verify.invariants import NULL_VERIFIER
from repro.sim.events import NORMAL, URGENT, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


def _fire(event: Event) -> None:
    """Process one triggered event: run its callbacks, then surface an
    undelivered failure."""
    callbacks, event.callbacks = event.callbacks, None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        # An event failed and nobody was listening: surface the error.
        raise event._value


class Environment:
    """Execution environment: simulation clock plus an ordered event heap.

    Events at equal timestamps fire ordered by (priority, sequence number),
    which makes runs fully deterministic. A heap entry is ``(time,
    priority, seq, fn, arg)`` and firing it calls ``fn(arg)``: a
    triggered :class:`Event` is pushed with :func:`_fire`, and a plain
    timer (:meth:`call_later`, :meth:`call_at`, :meth:`call_soon`) with
    its own callback, so it costs no event object.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[Any], None],
                                Any]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Observability hook (repro.obs). The shared null tracer makes
        #: every instrumentation point and control-plane decision record
        #: a no-op; ``Tracer.bind(env)`` swaps in a recording tracer
        #: stamped with this clock.
        self.trace = NULL_TRACER
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
        heapq.heappush(self._queue,
                       (self._now + delay, priority, self._eid, _fire, event))

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` seconds from now.

        It takes the same place in the firing order as a ``timeout(delay)``
        created at this point, without building an event.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._eid += 1
        heapq.heappush(self._queue,
                       (self._now + delay, NORMAL, self._eid, fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Call ``fn(arg)`` at the absolute time ``when``.

        An absolute time keeps a sum computed by the caller (say, a start
        time plus a duration) exact, where ``call_later`` would add the
        delay to the clock once more.
        """
        if when < self._now:
            raise ValueError(f"time {when} lies in the past (now={self._now})")
        self._eid += 1
        heapq.heappush(self._queue, (when, NORMAL, self._eid, fn, arg))

    def call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``fn(arg)`` now, before any NORMAL event at this time.

        It takes the place in the firing order of a process started at
        this point.
        """
        self._eid += 1
        heapq.heappush(self._queue, (self._now, URGENT, self._eid, fn, arg))

    def peek(self) -> float:
        """Timestamp of the next event, or ``inf`` if the heap is empty."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process exactly one event, advancing the clock to it."""
        try:
            self._now, _, _, fn, arg = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        verify = self.verify
        if verify.enabled:
            verify.on_step(self._now)
        fn(arg)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or the clock reaches ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the next event lies beyond it.
        """
        queue = self._queue
        step = self.step
        if until is None:
            while queue:
                step()
            return
        until = float(until)
        if until < self._now:
            raise ValueError(
                f"until={until} lies in the past (now={self._now})")
        while queue and queue[0][0] <= until:
            step()
        self._now = until
