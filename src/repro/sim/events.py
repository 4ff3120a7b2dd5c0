"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence: it starts *untriggered*, is
*triggered* (succeed or fail) exactly once, and is later *processed* by the
environment, at which point its callbacks run. Processes wait on events by
yielding them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Environment

#: Scheduling priorities. URGENT events (interrupts, immediate resumptions)
#: at a timestamp fire before NORMAL events at the same timestamp.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: untriggered -> triggered (``succeed``/``fail``) -> processed
    (callbacks invoked by the environment). Callbacks are plain callables
    receiving the event itself.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set when a failure's exception was delivered to someone; an
        #: undelivered failure is re-raised at the end of the run so that
        #: errors never pass silently.
        self._defused = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"

    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's payload (or the exception, for failed events)."""
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=NORMAL)
        return self


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: Any):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    def __init__(self, env: "Environment", events: Sequence[Event]):
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must belong to one environment")
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)
        if not self._events and not self.triggered:
            self.succeed(self._collect())

    def _collect(self) -> dict:
        # Only *processed* events count as outcomes: a Timeout carries its
        # value from construction (it is "triggered" early) but has not
        # happened until the event loop processes it.
        return {
            event: event.value
            for event in self._events
            if event.processed and event.ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every constituent event has succeeded.

    Its value maps each event to its value. Fails as soon as any
    constituent fails.
    """

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Succeeds when at least one constituent event has succeeded."""

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self.succeed(self._collect())
