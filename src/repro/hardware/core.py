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
segment at the power of the mode it ran in (idle / active / transition) and
attributes active energy to the running consumer, mirroring the paper's
power-model apportionment.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.sim.engine import Environment

#: Core accounting modes.
IDLE = "idle"
ACTIVE = "active"
TRANSITION = "transition"


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
        self._mode = IDLE
        self._mode_since = env.now
        self._work: Optional[WorkUnit] = None
        self._work_since = 0.0
        self._consumer: Optional[str] = None
        self._sink: Any = None
        self._on_complete: Optional[Callable[["Core"], None]] = None
        #: Invalidates stale completion/transition timeouts after preemption.
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
        stall = max(0.0, self._work_since - self.env.now)
        if self._mode == TRANSITION:
            return stall + self._work.duration(self.effective_ghz)
        elapsed = self.env.now - self._work_since
        return max(0.0, self._work.duration(self.effective_ghz) - elapsed)

    # ------------------------------------------------------------------
    # Energy accrual
    # ------------------------------------------------------------------
    def _accrue(self) -> None:
        """Close the current accounting segment at its mode's power."""
        t0 = self._mode_since
        dt = self.env.now - t0
        self._mode_since = self.env.now
        if dt <= 0:
            return
        ledger = self.env.trace.ledger
        if self._mode == IDLE:
            idle_j = self.power.core_idle_power() * dt
            self.meter.add("core_idle", idle_j)
            if ledger is not None:
                if self.blocked_hold is not None:
                    ledger.record_core(self, t0, self.env.now, idle_j,
                                       "blocked_hold", self.blocked_hold)
                else:
                    ledger.record_core(self, t0, self.env.now, idle_j,
                                       "idle")
            return
        active_j = self.power.core_active_power(self._frequency) * dt
        if self._mode == TRANSITION:
            self.meter.add("dvfs_overhead", active_j)
            if ledger is not None:
                ledger.record_core(self, t0, self.env.now, active_j,
                                   "freq_switch", self._sink)
            return
        self.meter.add("core_active", active_j)
        dram_j = self.power.dram_active_power(1) * dt
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
            ledger.record_core(self, t0, self.env.now,
                               active_j + dram_j, raw, self._sink)

    def _set_mode(self, mode: str) -> None:
        self._accrue()
        self._mode = mode

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
        if self.busy:
            raise RuntimeError(f"core {self.core_id} is already busy")
        if pre_overhead_s < 0:
            raise ValueError(f"negative pre_overhead {pre_overhead_s}")
        self._token += 1
        token = self._token
        self._work = work
        self._consumer = consumer
        self._sink = sink
        self._on_complete = on_complete
        if pre_overhead_s > 0:
            self._set_mode(TRANSITION)
            self._work_since = self.env.now + pre_overhead_s
            overhead_done = self.env.timeout(pre_overhead_s)
            overhead_done.callbacks.append(
                lambda ev, token=token: self._begin_work(token))
        else:
            self._set_mode(ACTIVE)
            self._work_since = self.env.now
            self._schedule_completion(token)

    def _begin_work(self, token: int) -> None:
        if token != self._token or self._work is None:
            return  # preempted while stalled; nothing to do
        self._set_mode(ACTIVE)
        self._work_since = self.env.now
        self._schedule_completion(token)

    def _schedule_completion(self, token: int) -> None:
        duration = self._work.duration(self.effective_ghz)
        done = self.env.timeout(duration)
        done.callbacks.append(
            lambda ev, token=token: self._complete(token))

    def _complete(self, token: int) -> None:
        if token != self._token or self._work is None:
            return  # stale timeout from before a preemption / freq change
        self._accrue()
        self._work.consume(self.effective_ghz,
                           self._work.duration(self.effective_ghz))
        self._work = None
        self._consumer = None
        self._sink = None
        self._set_mode(IDLE)
        self.completed_runs += 1
        on_complete, self._on_complete = self._on_complete, None
        on_complete(self)

    def preempt(self) -> WorkUnit:
        """Stop the running job; return its (exactly consumed) remainder."""
        if self._work is None:
            raise RuntimeError(f"core {self.core_id} is idle; nothing to preempt")
        self._token += 1  # invalidate outstanding timeouts
        self._accrue()
        if self._mode == ACTIVE:
            elapsed = self.env.now - self._work_since
            if elapsed > 0:
                self._work.consume(
                    self.effective_ghz,
                    min(elapsed, self._work.duration(self.effective_ghz)))
        work = self._work
        self._work = None
        self._consumer = None
        self._sink = None
        self._on_complete = None
        self._set_mode(IDLE)
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
        if self._work is None:
            self._accrue()
            self._frequency = freq_ghz
            if cost_s > 0:
                # An idle core's transition: charge the overhead energy but
                # do not model occupancy (nothing was waiting on this core).
                switch_j = self.power.core_active_power(freq_ghz) * cost_s
                self.meter.add("dvfs_overhead", switch_j)
                ledger = self.env.trace.ledger
                if ledger is not None:
                    ledger.record_core(self, self.env.now,
                                       self.env.now + cost_s, switch_j,
                                       "freq_switch")
            return
        # Busy path: close the active segment, consume the work done so
        # far at the old speed, stall, then continue at the new speed.
        self._accrue()
        if self._mode == ACTIVE:
            elapsed = self.env.now - self._work_since
            if elapsed > 0:
                self._work.consume(
                    self.effective_ghz,
                    min(elapsed, self._work.duration(self.effective_ghz)))
        self._frequency = freq_ghz
        self._token += 1
        token = self._token
        if cost_s > 0:
            self._mode = TRANSITION
            self._work_since = self.env.now + cost_s
            stall_done = self.env.timeout(cost_s)
            stall_done.callbacks.append(
                lambda ev, token=token: self._begin_work(token))
        else:
            self._mode = ACTIVE
            self._work_since = self.env.now
            self._schedule_completion(token)
