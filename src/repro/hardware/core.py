"""A simulated CPU core.

A core executes one :class:`~repro.hardware.work.WorkUnit` at a time at its
current frequency, metering energy as it goes. The API is shaped by what
the three evaluated systems' schedulers need:

* ``start(work, ...)`` — begin executing; an optional ``pre_overhead_s``
  occupies the core *before* work begins (context-switch cost, or the
  10–20 ms sandboxed frequency-switch of Baseline+PowerCtrl).
* ``preempt()`` — stop the current job, returning its remaining work
  (consumed exactly; work is conserved).
* ``set_frequency(freq, cost_s)`` — change frequency; while busy the
  running job stalls for ``cost_s`` and then continues at the new speed
  (the elastic-pool refresh path).

Energy accrual is incremental: every state change closes the previous
segment at the power it ran at (idle, or active) and attributes active
energy to the running consumer, mirroring the paper's power-model
apportionment. A run segment costs one timer: its completion is
scheduled once, at the absolute time the work ends. A pre-overhead or a
stall is the stretch of the segment before ``_work_since``, so the next
accrual splits it off by arithmetic as transition energy.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.sim.engine import Environment

class Core:
    """One core of a simulated server."""

    def __init__(self, env: Environment, core_id: int, power: PowerModel,
                 meter: EnergyMeter, frequency_ghz: float,
                 ipc_factor: float = 1.0):
        if frequency_ghz <= 0:
            raise ValueError(f"frequency must be positive: {frequency_ghz}")
        if ipc_factor <= 0:
            raise ValueError(f"ipc_factor must be positive: {ipc_factor}")
        self.env = env
        self.core_id = core_id
        self.power = power
        self.meter = meter
        #: Microarchitectural speed factor (Section VI-E3 heterogeneity):
        #: work retires at ``frequency x ipc_factor`` effective GHz while
        #: power still follows the nominal frequency.
        self.ipc_factor = ipc_factor
        self._frequency = frequency_ghz
        #: Watts of an idle core, of an active one at the current
        #: frequency (refreshed by :meth:`set_frequency`) and of the DRAM
        #: activity one busy core adds.
        self._idle_w = power.core_idle_power()
        self._active_w = power.core_active_power(frequency_ghz)
        self._dram_w = power.dram_active_power(1)
        #: Start of the accounting segment the next accrual closes.
        self._segment_since = env.now
        self._work: Optional[WorkUnit] = None
        #: When the running job's work starts (or restarts) retiring:
        #: later than ``now`` during a pre-overhead or a stall.
        self._work_since = 0.0
        self._consumer: Optional[str] = None
        self._sink: Any = None
        self._on_complete: Optional[Callable[["Core"], None]] = None
        #: Invalidates stale completion timers after a preemption or a
        #: frequency change.
        self._token = 0
        #: Statistics.
        self.completed_runs = 0
        self.frequency_switches = 0
        #: Attribution tags, maintained by the owning server/scheduler and
        #: read only by the opt-in energy ledger (repro.obs.ledger):
        #: the node track ("node<i>"), the owning pool's name, and the
        #: blocked job a run-to-completion pool holds this core idle for.
        self.track = ""
        self.pool: Optional[str] = None
        self.blocked_hold: Any = None

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def frequency(self) -> float:
        """Current core frequency in GHz."""
        return self._frequency

    @property
    def effective_ghz(self) -> float:
        """Work-retirement rate: nominal frequency x IPC factor."""
        return self._frequency * self.ipc_factor

    @property
    def busy(self) -> bool:
        """True while a job occupies the core (including its overhead)."""
        return self._work is not None

    @property
    def consumer(self) -> Optional[str]:
        """Name of the consumer currently attributed, if any."""
        return self._consumer

    @property
    def sink(self) -> Any:
        """The opaque per-run object handed to :meth:`start`, if running."""
        return self._sink

    def remaining_time(self) -> float:
        """Seconds until the current job finishes at the current frequency.

        Includes any in-flight transition stall. Zero when idle.
        """
        if self._work is None:
            return 0.0
        duration = self._work.duration(self.effective_ghz)
        now = self.env.now
        if now < self._work_since:
            return (self._work_since - now) + duration
        return max(0.0, duration - (now - self._work_since))

    # ------------------------------------------------------------------
    # Energy accrual
    # ------------------------------------------------------------------
    def _accrue(self) -> None:
        """Close the current accounting segment.

        A busy core's segment is transition energy up to ``_work_since``
        (the pre-overhead or stall) and active energy after it.
        """
        t0 = self._segment_since
        now = self.env.now
        self._segment_since = now
        if now <= t0:
            return
        ledger = self.env.trace.ledger
        if self._work is None:
            idle_j = self._idle_w * (now - t0)
            self.meter.add("core_idle", idle_j)
            if ledger is not None:
                if self.blocked_hold is not None:
                    ledger.record_core(self, t0, now, idle_j,
                                       "blocked_hold", self.blocked_hold)
                else:
                    ledger.record_core(self, t0, now, idle_j, "idle")
            return
        work_since = self._work_since
        if t0 < work_since:
            t1 = now if now < work_since else work_since
            switch_j = self._active_w * (t1 - t0)
            self.meter.add("dvfs_overhead", switch_j)
            if ledger is not None:
                ledger.record_core(self, t0, t1, switch_j, "freq_switch",
                                   self._sink)
            if now <= work_since:
                return
            t0 = work_since
        dt = now - t0
        active_j = self._active_w * dt
        self.meter.add("core_active", active_j)
        dram_j = self._dram_w * dt
        self.meter.add("dram", dram_j)
        if self._consumer is not None:
            self.meter.attribute(self._consumer, active_j + dram_j)
        if self._sink is not None and hasattr(self._sink, "record_run"):
            self._sink.record_run(dt, active_j + dram_j)
        if ledger is not None:
            # Setup segments (container boot) are still pending their
            # first advance(), which is what _segment_index == -1 means.
            raw = ("active_setup"
                   if getattr(self._sink, "_segment_index", 0) == -1
                   else "active_run")
            ledger.record_core(self, t0, now, active_j + dram_j, raw,
                               self._sink)

    def finalize(self) -> None:
        """Accrue energy up to the present (call at end of simulation)."""
        self._accrue()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self, work: WorkUnit, consumer: str,
              on_complete: Callable[["Core"], None],
              sink: Any = None, pre_overhead_s: float = 0.0) -> None:
        """Begin executing ``work``, calling ``on_complete(core)`` at the end.

        ``pre_overhead_s`` seconds of non-productive occupancy (context
        switch and/or sandboxed frequency switch) precede the work; their
        energy lands in the ``dvfs_overhead`` component.
        """
        if self._work is not None:
            raise RuntimeError(f"core {self.core_id} is already busy")
        if pre_overhead_s < 0:
            raise ValueError(f"negative pre_overhead {pre_overhead_s}")
        self._accrue()
        self._token += 1
        self._work = work
        self._consumer = consumer
        self._sink = sink
        self._on_complete = on_complete
        self._work_since = self.env.now + pre_overhead_s
        self._schedule_completion()

    def _schedule_completion(self) -> None:
        self.env.call_at(
            self._work_since + self._work.duration(self.effective_ghz),
            self._complete, self._token)

    def _complete(self, token: int) -> None:
        if token != self._token:
            return  # stale timer from before a preemption / freq change
        self._accrue()
        work = self._work
        work.consume(self.effective_ghz, work.duration(self.effective_ghz))
        self._work = None
        self._consumer = None
        self._sink = None
        self.completed_runs += 1
        on_complete, self._on_complete = self._on_complete, None
        on_complete(self)

    def _consume_elapsed(self) -> None:
        """Retire the work done since ``_work_since`` at the current speed
        (none while a pre-overhead or stall is still running)."""
        elapsed = self.env.now - self._work_since
        if elapsed > 0:
            self._work.consume(
                self.effective_ghz,
                min(elapsed, self._work.duration(self.effective_ghz)))

    def preempt(self) -> WorkUnit:
        """Stop the running job; return its (exactly consumed) remainder."""
        if self._work is None:
            raise RuntimeError(f"core {self.core_id} is idle; nothing to preempt")
        self._token += 1  # invalidate the outstanding completion
        self._accrue()
        self._consume_elapsed()
        work = self._work
        self._work = None
        self._consumer = None
        self._sink = None
        self._on_complete = None
        return work

    def set_frequency(self, freq_ghz: float, cost_s: float = 0.0) -> None:
        """Change the core frequency, stalling the current job for ``cost_s``.

        With ``cost_s == 0`` the change is free (used when the cost is
        modelled elsewhere, e.g. folded into ``pre_overhead_s``).
        """
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive: {freq_ghz}")
        if cost_s < 0:
            raise ValueError(f"negative transition cost {cost_s}")
        if abs(freq_ghz - self._frequency) < 1e-12:
            return
        self.frequency_switches += 1
        self._accrue()
        if self._work is None:
            self._frequency = freq_ghz
            self._active_w = self.power.core_active_power(freq_ghz)
            if cost_s > 0:
                # An idle core's transition: charge the overhead energy but
                # do not model occupancy (nothing was waiting on this core).
                switch_j = self._active_w * cost_s
                self.meter.add("dvfs_overhead", switch_j)
                ledger = self.env.trace.ledger
                if ledger is not None:
                    ledger.record_core(self, self.env.now,
                                       self.env.now + cost_s, switch_j,
                                       "freq_switch")
            return
        # Busy path: consume the work done so far at the old speed, stall,
        # then continue at the new speed. A pre-overhead still running is
        # replaced by the stall.
        self._consume_elapsed()
        self._frequency = freq_ghz
        self._active_w = self.power.core_active_power(freq_ghz)
        self._token += 1
        self._work_since = self.env.now + cost_s
        self._schedule_completion()
