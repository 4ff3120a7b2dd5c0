"""A function invocation in flight.

A :class:`Job` walks through its spec's segments under a scheduler: run
segments execute on cores (possibly across preemptions and frequency
changes), block segments park the job off-core. The job accumulates the
measured ``T_Queue`` / ``T_Run`` / ``T_Block`` / energy breakdown the
paper's History Tables are built from.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.hardware.work import WorkUnit
from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment

def _next_job_id(env: Environment) -> int:
    """Job ids are allocated per environment, starting at 0 each run.

    A process-global counter would leak across runs: the second cluster
    of an experiment would number its jobs from where the first stopped,
    and two identical runs would record different ids in their traces.
    Per-run ids keep the within-run ordering (all seniority tie-breaking
    is unchanged) while making every run's ids — and therefore its trace
    file — reproducible.
    """
    counter = getattr(env, "_job_ids", None)
    if counter is None:
        counter = env._job_ids = itertools.count()
    return next(counter)


class Job:
    """One function invocation moving through a node."""

    # Besides its own, a job carries attributes other layers set on it:
    # ``attempt``, ``abandoned`` (the frontend), ``doom_deadline_s`` and
    # ``cancelled`` (``cancel.tag_job``, ``cancel_attempt``), ``ha_node``
    # (``ha.tag_job``), the cold-start fields ``setup_work``,
    # ``cold_start``, ``_segment_index`` and ``on_setup_done`` (the
    # node's container plumbing), and the dispatch decision
    # ``chosen_freq_ghz``, ``registered_run_seconds``, ``boosted``,
    # ``wanted_lower_freq`` and ``dispatch_correction`` (the
    # dispatchers).
    __slots__ = (
        "env", "job_id", "spec", "benchmark", "arrival_s", "deadline_s",
        "setup_work", "cold_start", "on_setup_done", "is_prewarm",
        "aborted", "abandoned", "cancelled", "doom_deadline_s", "attempt",
        "ha_node", "dispatch_correction", "seniority", "_segment_index",
        "_current_work", "t_queue", "t_run", "t_block", "energy_j",
        "_queue_entered", "freq_run_seconds", "_running_at",
        "chosen_freq_ghz", "registered_run_seconds", "boosted",
        "wanted_lower_freq", "completion_time", "done")

    def __init__(self, env: Environment, spec: InvocationSpec,
                 benchmark: str, arrival_s: float,
                 deadline_s: Optional[float] = None,
                 setup_work: Optional[WorkUnit] = None,
                 seniority_time_s: Optional[float] = None):
        if arrival_s < 0:
            raise ValueError(f"negative arrival time {arrival_s}")
        self.env = env
        self.job_id = _next_job_id(env)
        self.spec = spec
        self.benchmark = benchmark
        self.arrival_s = arrival_s
        #: Absolute completion deadline (None = no deadline / best effort).
        self.deadline_s = deadline_s
        #: Cold-start work to execute before the first run segment.
        self.setup_work = setup_work
        self.cold_start = setup_work is not None
        #: Called once when the cold-start setup completes (container ready).
        self.on_setup_done: Optional[callable] = None
        #: Prewarm pseudo-jobs boot a container but carry no real work;
        #: they are excluded from latency metrics and profiling.
        self.is_prewarm = False
        #: Set when a node crash killed this attempt: it will never run to
        #: completion, and late wake-ups (block timers, container events)
        #: must ignore it.
        self.aborted = False
        #: Set when the frontend gave up on this attempt (per-invocation
        #: timeout, or it lost a hedge race) while it keeps executing; its
        #: completion is wasted work charged to retry energy.
        self.abandoned = False
        #: Set when the cancellation layer (repro.cancel) killed this
        #: attempt: unlike ``abandoned`` it stops executing — the pool
        #: removed it — and its remaining energy is reclaimed. Always
        #: False when no CancelConfig is armed.
        self.cancelled = False
        #: Absolute doom line attached by repro.cancel (workflow SLO
        #: deadline + slack). None = never doom-checked.
        self.doom_deadline_s: Optional[float] = None
        #: Retry attempt index assigned by the reliability layer (0 = the
        #: first try).
        self.attempt = 0
        #: The node the HA layer tagged this attempt with (None while HA
        #: is inert).
        self.ha_node = None
        #: Optional corrective-action hook (paper Section V): called by the
        #: scheduler at every dispatch with the planned frequency; returns
        #: the (possibly raised) frequency to actually run at, letting the
        #: system recover from queueing mispredictions mid-flight.
        self.dispatch_correction: Optional[callable] = None

        #: Seniority for old-preempts-young. An invocation belonging to a
        #: multi-function application inherits the *application's* arrival
        #: time (a late-stage function of an old request is an old job),
        #: with the id as a deterministic tie-breaker.
        base = arrival_s if seniority_time_s is None else seniority_time_s
        self.seniority = (base, self.job_id)

        # Segment cursor. -1 = setup work pending.
        self._segment_index = -1 if setup_work is not None else 0
        self._current_work: Optional[WorkUnit] = None

        # Measured breakdown.
        self.t_queue = 0.0
        self.t_run = 0.0
        self.t_block = 0.0
        self.energy_j = 0.0
        self._queue_entered: Optional[float] = None
        #: Run-seconds spent at each frequency (Fig. 15 histogram data).
        self.freq_run_seconds: Dict[float, float] = {}
        self._running_at: Optional[float] = None

        #: Chosen dispatch frequency (set by the system when it decides).
        self.chosen_freq_ghz: Optional[float] = None
        #: Expected on-core seconds registered with the FPS (EWT bookkeeping).
        self.registered_run_seconds: Optional[float] = None
        #: Set when the dispatcher had to boost this job to meet its deadline.
        self.boosted = False
        #: Set when the job would have fit a lower-frequency pool that did
        #: not exist (elastic-pool demotion signal).
        self.wanted_lower_freq = False

        self.completion_time: Optional[float] = None
        self.done = Event(env)
        env.trace.invocation_begin(self.job_id, self.function_name,
                                   benchmark=benchmark,
                                   arrival_s=arrival_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Job {self.job_id} {self.function_name}"
                f" seg={self._segment_index}>")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def function_name(self) -> str:
        return self.spec.function_name

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    # ------------------------------------------------------------------
    # Segment cursor (driven by the scheduler)
    # ------------------------------------------------------------------
    def current_work(self) -> WorkUnit:
        """The run work the scheduler should execute next.

        The work unit persists across preemptions (it is consumed in
        place), so calling this repeatedly during one segment returns the
        same partially-consumed unit.
        """
        if self.finished:
            raise RuntimeError(f"{self!r} already finished")
        if self._current_work is None:
            if self._segment_index == -1:
                self._current_work = self.setup_work
            else:
                segment = self.spec.segments[self._segment_index]
                if not isinstance(segment, RunSegment):
                    raise RuntimeError(
                        f"{self!r} is at a block segment, not runnable")
                self._current_work = segment.work
        return self._current_work

    def advance(self) -> Optional[BlockSegment]:
        """Move past the just-completed run segment.

        Returns the following block segment if the job now blocks, or None
        if the job is complete (the caller marks completion) or the next
        segment is a run segment (setup → first run).
        """
        if self._current_work is None or not self._current_work.done:
            raise RuntimeError(
                f"{self!r}: advance() before the current work finished")
        was_setup = self._segment_index == -1
        self._current_work = None
        self._segment_index += 1
        if was_setup and self.on_setup_done is not None:
            self.on_setup_done()
        if self._segment_index >= len(self.spec.segments):
            return None
        segment = self.spec.segments[self._segment_index]
        if isinstance(segment, BlockSegment):
            return segment
        return None

    def skip_block(self) -> None:
        """Move the cursor past the current block segment (after waiting)."""
        segment = self.spec.segments[self._segment_index]
        if not isinstance(segment, BlockSegment):
            raise RuntimeError(f"{self!r} is not at a block segment")
        self._segment_index += 1

    @property
    def is_complete(self) -> bool:
        """True when the cursor has moved past the last segment."""
        return self._segment_index >= len(self.spec.segments)

    def remaining_run_seconds(self, freq_ghz: float) -> float:
        """Ground-truth on-core seconds left at ``freq_ghz`` (oracle view)."""
        total = 0.0
        if self._current_work is not None:
            total += self._current_work.duration(freq_ghz)
        elif self._segment_index == -1 and self.setup_work is not None:
            total += self.setup_work.duration(freq_ghz)
        elif (not self.is_complete
              and isinstance(self.spec.segments[self._segment_index],
                             RunSegment)):
            total += self.spec.segments[self._segment_index].work.duration(
                freq_ghz)
        for segment in self.spec.segments[max(self._segment_index + 1, 0):]:
            if isinstance(segment, RunSegment):
                total += segment.work.duration(freq_ghz)
        return total

    # ------------------------------------------------------------------
    # Accounting hooks
    # ------------------------------------------------------------------
    def record_run(self, dt: float, joules: float) -> None:
        """Called by the core while this job executes (sink protocol)."""
        self.t_run += dt
        self.energy_j += joules
        if self._running_at is not None:
            self.freq_run_seconds[self._running_at] = (
                self.freq_run_seconds.get(self._running_at, 0.0) + dt)

    def note_dispatch(self, freq_ghz: float) -> None:
        """Close the queueing interval: the job starts running."""
        if self._queue_entered is not None:
            self.t_queue += self.env.now - self._queue_entered
            self._queue_entered = None
        self._running_at = freq_ghz
        self.env.trace.phase(
            self.job_id,
            "cold_start" if self._segment_index == -1 else "run",
            freq_ghz=freq_ghz)

    def note_enqueue(self, pool: Optional[str] = None) -> None:
        """Open a queueing interval: the job waits for a core in ``pool``."""
        if self._queue_entered is None:
            self._queue_entered = self.env.now
            if pool is None:
                self.env.trace.phase(self.job_id, "queue")
            else:
                self.env.trace.phase(self.job_id, "queue", pool=pool)
        self._running_at = None

    def note_block(self, seconds: float) -> None:
        self.t_block += seconds
        self._running_at = None
        self.env.trace.phase(self.job_id, "block", seconds=seconds)

    def complete(self) -> None:
        """Mark the job finished and fire its completion event."""
        if self.finished:
            raise RuntimeError(f"{self!r} completed twice")
        if self.aborted:
            raise RuntimeError(f"{self!r} was aborted; it cannot complete")
        if not self.is_complete:
            raise RuntimeError(f"{self!r} has segments left")
        if self.env.verify.enabled:
            # Cancelled work must never run to completion; deliberately
            # not an exception so the verifier (not a crash) reports a
            # cancel-leak as a first-class invariant violation.
            self.env.verify.on_job_complete(self)
        self.completion_time = self.env.now
        if self.env.trace.enabled:
            self.env.trace.invocation_end(
                self.job_id, "completed",
                latency_s=self.latency_s, t_queue=self.t_queue,
                t_run=self.t_run, t_block=self.t_block,
                energy_j=self.energy_j, cold_start=self.cold_start,
                prewarm=self.is_prewarm, abandoned=self.abandoned,
                met_deadline=self.met_deadline, attempt=self.attempt,
                chosen_freq_ghz=self.chosen_freq_ghz)
        self.done.succeed(self)

    def abort(self) -> None:
        """Kill this attempt (node crash): it will never complete.

        The ``done`` event still fires — with the job as payload — so a
        reliability loop waiting on it wakes up and can re-dispatch;
        ``finished`` stays False, which is how waiters tell success from
        loss. Idempotent.
        """
        if self.finished:
            raise RuntimeError(f"{self!r} already finished; cannot abort")
        self.aborted = True
        if self.env.trace.enabled:
            # Idempotent like abort itself: a duplicate end is ignored.
            self.env.trace.invocation_end(
                self.job_id, "aborted",
                t_queue=self.t_queue, t_run=self.t_run,
                t_block=self.t_block, energy_j=self.energy_j,
                cold_start=self.cold_start, prewarm=self.is_prewarm,
                attempt=self.attempt)
        if not self.done.triggered:
            self.done.succeed(self)

    def cancel(self) -> None:
        """Kill this attempt deliberately (repro.cancel): it is doomed.

        Same contract as :meth:`abort` — the ``done`` event fires with
        the job as payload so waiting loops wake, and ``finished`` stays
        False — but the distinct flag keeps crash losses and deliberate
        kills separable in metrics and the energy ledger. Idempotent.
        """
        if self.finished:
            raise RuntimeError(f"{self!r} already finished; cannot cancel")
        self.cancelled = True
        if self.env.trace.enabled:
            self.env.trace.invocation_end(
                self.job_id, "cancelled",
                t_queue=self.t_queue, t_run=self.t_run,
                t_block=self.t_block, energy_j=self.energy_j,
                cold_start=self.cold_start, prewarm=self.is_prewarm,
                attempt=self.attempt)
        if not self.done.triggered:
            self.done.succeed(self)

    # ------------------------------------------------------------------
    # Derived results
    # ------------------------------------------------------------------
    @property
    def latency_s(self) -> float:
        """End-to-end latency (arrival to completion)."""
        if self.completion_time is None:
            raise RuntimeError(f"{self!r} has not completed")
        return self.completion_time - self.arrival_s

    @property
    def met_deadline(self) -> bool:
        if self.completion_time is None:
            raise RuntimeError(f"{self!r} has not completed")
        if self.deadline_s is None:
            return True
        return self.completion_time <= self.deadline_s + 1e-9
