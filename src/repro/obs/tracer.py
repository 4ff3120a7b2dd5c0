"""Invocation-lifecycle tracing: typed span/event records.

A :class:`Tracer` accumulates three kinds of records, all stamped with
simulation time read from the bound :class:`repro.sim.Environment`:

* **spans** — durations with a begin and an end: whole invocations
  (``kind="invocation"``), their queue/cold-start/run/block phases
  (``kind="phase"``), and end-to-end workflows (``kind="workflow"``);
* **instants** — point events: preemptions, frequency transitions,
  container boots/kills, injected faults, retries and hedges, and the
  control-plane decisions (:meth:`Tracer.decision`), which
  ``audit.jsonl`` is rendered from;
* **counters** — sampled numeric time series: pool sizes, per-node power
  draw, EWT, outstanding jobs.

Instrumentation hooks throughout the platform call ``env.trace.<hook>``.
By default ``env.trace`` is the shared :data:`NULL_TRACER`, whose hooks
are all no-ops, so untraced runs pay nothing beyond an attribute lookup
and an empty call — and, because the tracer only *reads* simulation
state, traced runs produce bit-identical metrics to untraced runs.

This module deliberately imports nothing from the rest of ``repro`` so
the sim kernel can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


#: Span phases of an invocation, in the paper's terminology: ``queue``
#: maps to T_Queue, ``run`` to T_Run, ``block`` to T_Block; ``cold_start``
#: is the container-boot setup work preceding the first run segment.
PHASES = ("queue", "cold_start", "run", "block")


@dataclass
class SpanRecord:
    """A closed (or still-open) duration in one traced run."""

    run: int
    kind: str           # "invocation" | "phase" | "workflow"
    name: str           # function / phase / benchmark name
    uid: int            # job id or workflow id (unique within kind+run)
    t0: float
    t1: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.t1 if self.t1 is not None else self.t0) - self.t0


@dataclass(frozen=True)
class InstantRecord:
    """A point event on one track."""

    run: int
    name: str
    track: str
    t: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterRecord:
    """One sample of a numeric time series on one track."""

    run: int
    track: str
    series: str
    t: float
    value: float


class NullTracer:
    """The shared do-nothing tracer: every hook is a no-op.

    Installed as ``Environment.trace`` by default so instrumentation
    points never need a None check. ``enabled`` lets hot paths skip
    argument computation entirely.
    """

    enabled = False
    #: Optional energy-attribution ledger (``repro.obs.ledger``). None on
    #: the null tracer — and on real tracers built without one — so the
    #: hardware accrual points pay a single attribute check.
    ledger = None
    #: Optional SLO burn-rate monitor (``repro.obs.burnrate``).
    burnrate = None
    #: Optional progressive-fingerprint recorder
    #: (``repro.obs.fingerprint``). Like the ledger and burn-rate
    #: monitor it only reads recorded state after a run finishes, so
    #: attaching one keeps runs bit-identical.
    fingerprint = None

    def bind(self, env) -> None:
        pass

    def begin_run(self, label: str) -> None:
        pass

    def link(self, workflow_uid, job_uid) -> None:
        """Record that workflow ``workflow_uid`` dispatched job ``job_uid``."""

    def invocation_begin(self, uid, name, **args) -> None:
        pass

    def invocation_end(self, uid, status, **args) -> None:
        pass

    def phase(self, uid, name, **args) -> None:
        pass

    def workflow_begin(self, uid, name, **args) -> None:
        pass

    def workflow_end(self, uid, status, **args) -> None:
        pass

    def instant(self, name, track, **args) -> None:
        pass

    def decision(self, kind, actor, *, inputs=None, action=None,
                 alternatives=(), reason="", workflow_uid=None,
                 job_uid=None) -> None:
        pass

    def counter(self, track, series, value) -> None:
        pass


#: The one shared null tracer (hooks dispatch through this when no real
#: tracer is installed).
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records spans, instants, and counters across one or more runs.

    One tracer may observe several clusters in sequence (e.g. the three
    systems of an experiment): :meth:`begin_run` opens a new run scope
    (closing any spans the previous run left open) and :meth:`bind`
    attaches the tracer to that run's environment, which is where all
    timestamps come from.
    """

    enabled = True

    def __init__(self, counter_period_s: float = 0.5, ledger=None,
                 burnrate=None, fingerprint=None):
        if counter_period_s <= 0:
            raise ValueError(
                f"counter period must be positive: {counter_period_s}")
        #: Period of the read-only counter sampler armed by traced runs.
        self.counter_period_s = counter_period_s
        #: Attached energy ledger / burn-rate monitor / progressive
        #: fingerprint recorder (all opt-in; all only *read* simulation
        #: state, so attaching them keeps runs bit-identical).
        self.ledger = ledger
        self.burnrate = burnrate
        self.fingerprint = fingerprint
        if ledger is not None:
            ledger.attach(self)
        #: Labels of the runs seen so far, in order.
        self.run_labels: List[str] = []
        self.spans: List[SpanRecord] = []
        self.instants: List[InstantRecord] = []
        self.counters: List[CounterRecord] = []
        #: Workflow → job dispatch links as (run, workflow_uid, job_uid).
        self.wf_links: List[tuple] = []
        self._env = None
        self._run = -1
        #: Latest timestamp seen per run (used to close dangling spans).
        self.run_end_s: List[float] = []
        # Open spans of the current run, by uid.
        self._open_invocations: Dict[int, SpanRecord] = {}
        self._open_phases: Dict[int, SpanRecord] = {}
        self._open_workflows: Dict[int, SpanRecord] = {}

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._env is None:
            raise RuntimeError("tracer is not bound to an environment")
        return self._env.now

    def bind(self, env) -> None:
        """Attach to ``env``: timestamps come from it, hooks route here."""
        self._env = env
        env.trace = self

    def begin_run(self, label: str) -> None:
        """Open a new run scope (e.g. one system of an experiment)."""
        self.finish_run()
        self._run += 1
        self.run_labels.append(label)
        self.run_end_s.append(0.0)
        if self.ledger is not None:
            self.ledger.begin_run(self._run, label)
        if self.burnrate is not None:
            self.burnrate.begin_run(self._run, label)

    def finish_run(self) -> None:
        """Close spans the run left open (jobs still in flight at drain).

        Idempotent; called automatically by :meth:`begin_run` and by the
        exporters.
        """
        if self._run < 0:
            return
        end = self.run_end_s[self._run]
        if self._env is not None:
            # The run may end with a silent stretch (drain with no hooks
            # firing); the environment clock has the true end time.
            end = max(end, self._env.now)
        self.run_end_s[self._run] = end
        for table in (self._open_phases, self._open_invocations,
                      self._open_workflows):
            for span in table.values():
                span.t1 = end
                span.args.setdefault("status", "unfinished")
            table.clear()

    def _stamp(self) -> float:
        t = self.now
        if self._run < 0:
            # Hooks fired before any begin_run: open an anonymous run so
            # nothing is ever silently dropped.
            self._run = 0
            self.run_labels.append("run")
            self.run_end_s.append(0.0)
        if t > self.run_end_s[self._run]:
            self.run_end_s[self._run] = t
        return t

    # ------------------------------------------------------------------
    # Invocation spans and phases
    # ------------------------------------------------------------------
    def invocation_begin(self, uid: int, name: str, **args) -> None:
        t = self._stamp()
        span = SpanRecord(self._run, "invocation", name, uid, t, args=args)
        self._open_invocations[uid] = span
        self.spans.append(span)

    def invocation_end(self, uid: int, status: str, **args) -> None:
        t = self._stamp()
        self._close_phase(uid, t)
        span = self._open_invocations.pop(uid, None)
        if span is None:
            return  # duplicate end (idempotent abort) or begin untraced
        span.t1 = t
        span.args.update(args)
        span.args["status"] = status

    def phase(self, uid: int, name: str, **args) -> None:
        """The invocation ``uid`` enters phase ``name`` now."""
        t = self._stamp()
        self._close_phase(uid, t)
        span = SpanRecord(self._run, "phase", name, uid, t, args=args)
        self._open_phases[uid] = span
        self.spans.append(span)

    def _close_phase(self, uid: int, t: float) -> None:
        open_phase = self._open_phases.pop(uid, None)
        if open_phase is not None:
            open_phase.t1 = t

    # ------------------------------------------------------------------
    # Workflow spans
    # ------------------------------------------------------------------
    def workflow_begin(self, uid: int, name: str, **args) -> None:
        t = self._stamp()
        span = SpanRecord(self._run, "workflow", name, uid, t, args=args)
        self._open_workflows[uid] = span
        self.spans.append(span)

    def workflow_end(self, uid: int, status: str, **args) -> None:
        t = self._stamp()
        span = self._open_workflows.pop(uid, None)
        if span is None:
            return
        span.t1 = t
        span.args.update(args)
        span.args["status"] = status
        if self.burnrate is not None:
            met = status == "completed" and bool(
                span.args.get("met_slo", True))
            self.burnrate.observe(self, span.name, t, met,
                                  latency_s=span.duration_s)

    def link(self, workflow_uid: int, job_uid: int) -> None:
        """Cross-link a dispatched job to its workflow (uid ↔ uid)."""
        if self._run < 0:
            self._stamp()
        self.wf_links.append((self._run, workflow_uid, job_uid))

    # ------------------------------------------------------------------
    # Instants and counters
    # ------------------------------------------------------------------
    def instant(self, name: str, track: str, **args) -> None:
        t = self._stamp()  # before reading _run: may open the first run
        self.instants.append(InstantRecord(self._run, name, track, t, args))

    def decision(self, kind: str, actor: str, *,
                 inputs: Optional[Dict[str, Any]] = None,
                 action: Optional[Dict[str, Any]] = None,
                 alternatives: Sequence[Dict[str, Any]] = (),
                 reason: str = "",
                 workflow_uid: Optional[int] = None,
                 job_uid: Optional[int] = None) -> None:
        """Record one control-plane decision (``repro.obs.audit.KINDS``).

        The decision is an instant named ``kind`` on the ``actor``'s
        track whose args are its "why" record: the inputs the decider
        saw, the action it took, the alternatives it rejected, a reason,
        and the workflow/job uid where one applies. The args are copies,
        so later changes to the caller's dicts do not reach the record.
        """
        self.instant(kind, actor, inputs=dict(inputs or {}),
                     action=dict(action or {}),
                     alternatives=[dict(a) for a in alternatives],
                     reason=reason, workflow_uid=workflow_uid,
                     job_uid=job_uid)

    def counter(self, track: str, series: str, value: float) -> None:
        t = self._stamp()
        self.counters.append(
            CounterRecord(self._run, track, series, t, float(value)))

    # ------------------------------------------------------------------
    # Introspection helpers (used by exporters and tests)
    # ------------------------------------------------------------------
    def spans_of(self, kind: str, run: Optional[int] = None
                 ) -> List[SpanRecord]:
        return [s for s in self.spans
                if s.kind == kind and (run is None or s.run == run)]

    def instants_named(self, name: str, run: Optional[int] = None
                       ) -> List[InstantRecord]:
        return [i for i in self.instants
                if i.name == name and (run is None or i.run == run)]
