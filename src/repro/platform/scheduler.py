"""Core-pool scheduling.

One :class:`CorePoolScheduler` drives a set of cores at (nominally) one
frequency — exactly the paper's Frequency Pool Scheduler (Section VI-C):
user-level, FIFO, an older ready job preempts the youngest running job,
negligible scheduling overhead, and Estimated-Wait-Time counters
(EWT += expected ``T_Run`` on registration, −= on completion;
``T_Queue ≈ EWT / n_cores``).

The same class, configured differently, also implements the baselines:

* ``switch_on_idle=False`` gives the run-to-completion model of
  Gemini-style controllers (the core is held through a job's I/O blocks);
* ``per_job_frequency=True`` re-programs the core to each job's chosen
  frequency at dispatch, paying ``switch_cost`` (a drawn sandboxed-
  userspace cost for Baseline+PowerCtrl, the fixed kernel-path cost for
  EcoFaaS boosts).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.hardware.core import Core
from repro.platform.job import Job
from repro.sim.engine import Environment

#: Default process context-switch cost, seconds (a few µs, Section VI-C).
CONTEXT_SWITCH_S = 5e-6


class LoadTally:
    """The sum of the ``load`` counters of a node's pools, kept by the
    pools as they change it, so the load balancer reads it in O(1)."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


@dataclass
class SchedulerStats:
    """Counters a pool reports to the node controller every refresh."""

    served: int = 0
    total_wait_s: float = 0.0
    boosted: int = 0
    wanted_lower_freq: int = 0
    preemptions: int = 0
    frequency_switches: int = 0

    def reset(self) -> "SchedulerStats":
        """Return a copy and zero the live counters (end of a window)."""
        snapshot = SchedulerStats(
            self.served, self.total_wait_s, self.boosted,
            self.wanted_lower_freq, self.preemptions, self.frequency_switches)
        self.served = 0
        self.total_wait_s = 0.0
        self.boosted = 0
        self.wanted_lower_freq = 0
        self.preemptions = 0
        self.frequency_switches = 0
        return snapshot


class CorePoolScheduler:
    """A FIFO, preemptive, user-level scheduler over a pool of cores."""

    def __init__(self, env: Environment, cores: List[Core],
                 frequency_ghz: float, name: str = "pool",
                 context_switch_s: float = CONTEXT_SWITCH_S,
                 switch_on_idle: bool = True,
                 preemptive: bool = True,
                 per_job_frequency: bool = False,
                 switch_cost: Union[float, Callable[[], float]] = 0.0,
                 freq_change_cost_s: float = 0.0,
                 on_complete: Optional[Callable[[Job], None]] = None,
                 on_core_released: Optional[Callable[[Core], None]] = None,
                 cost_scale: Callable[[], float] = lambda: 1.0,
                 block_latency: Callable[[], float] = lambda: 1.0,
                 clamp_freq: Optional[Callable[[float], float]] = None,
                 drop_doomed: Optional[Callable[..., bool]] = None,
                 tally: Optional[LoadTally] = None):
        if context_switch_s < 0:
            raise ValueError(f"negative context switch cost {context_switch_s}")
        if freq_change_cost_s < 0:
            raise ValueError(f"negative freq change cost {freq_change_cost_s}")
        self.env = env
        self.name = name
        self.frequency_ghz = frequency_ghz
        self.context_switch_s = context_switch_s
        self.switch_on_idle = switch_on_idle
        self.preemptive = preemptive
        self.per_job_frequency = per_job_frequency
        # The per-dispatch frequency-switch cost: fixed seconds, or a
        # callable that draws one per switch.
        if callable(switch_cost):
            self.switch_cost_s, self._draw_switch_cost = 0.0, switch_cost
        else:
            self.switch_cost_s, self._draw_switch_cost = switch_cost, None
        self.freq_change_cost_s = freq_change_cost_s
        self.on_complete = on_complete
        self.on_core_released = on_core_released
        #: Node hooks, neutral by default. Faults (repro.faults):
        #: ``cost_scale`` multiplies every frequency-transition cost (a
        #: stalled DVFS driver) and ``block_latency`` every block segment
        #: (an RPC latency spike). Layers (repro.platform.layers), None
        #: while the layer is inert: ``clamp_freq`` caps every dispatch
        #: frequency (the power cap) and ``drop_doomed`` drops a queued
        #: head past its doom line.
        self.cost_scale = cost_scale
        self.block_latency = block_latency
        self.clamp_freq = clamp_freq
        self.drop_doomed = drop_doomed
        self.stats = SchedulerStats()

        self._cores: List[Core] = []
        #: Occupancy counters, kept as jobs and cores come and go so a
        #: read is O(1): ``load`` is every job the pool is responsible
        #: for (queued + running + blocked) and ``n_cores`` the size of
        #: ``cores``. Moves between queued, running and blocked leave
        #: ``load`` alone. Every change to ``load`` is made to ``tally``
        #: too, which the pool shares with its node's other pools.
        self.load = 0
        self.tally = tally if tally is not None else LoadTally()
        self.n_cores = 0
        self._available: List[Core] = []
        self._pending_removal: Set[int] = set()
        #: Ready queue ordered by seniority (oldest first).
        self._ready: List[Tuple[Tuple[float, int], Job]] = []
        #: Jobs currently on a core, keyed by core id.
        self._running: Dict[int, Job] = {}
        #: Jobs parked in a block segment, keyed by job id (they will need
        #: a core again — unless a crash aborts them first).
        self._blocked_jobs: Dict[int, Job] = {}
        #: Estimated-Wait-Time counter: Σ expected *remaining* T_Run of
        #: queued, running, and blocked jobs.
        self._ewt_s = 0.0
        self._ewt_amounts: Dict[int, float] = {}
        self._t_run_at_dispatch: Dict[int, float] = {}
        for core in cores:
            self.add_core(core, set_frequency=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cores(self) -> List[Core]:
        return list(self._cores)

    @property
    def queue_length(self) -> int:
        return len(self._ready)

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def blocked_count(self) -> int:
        return len(self._blocked_jobs)

    @property
    def outstanding(self) -> int:
        """Jobs queued or running (blocked jobs are not counted)."""
        return self.queue_length + self.running_count

    @property
    def ewt_seconds(self) -> float:
        """The raw Estimated-Wait-Time counter (Σ expected T_Run)."""
        return max(0.0, self._ewt_s)

    def estimated_queue_seconds(self) -> float:
        """The paper's T_Queue estimate: EWT / pool size."""
        if not self.n_cores:
            return float("inf")
        return self.ewt_seconds / self.n_cores

    # ------------------------------------------------------------------
    # Elasticity (node controller interface)
    # ------------------------------------------------------------------
    def add_core(self, core: Core, set_frequency: bool = True) -> None:
        """Adopt a core into the pool, retuning it to the pool frequency."""
        if any(c.core_id == core.core_id for c in self._cores):
            raise ValueError(f"core {core.core_id} already in pool {self.name}")
        self._pending_removal.discard(core.core_id)
        self._cores.append(core)
        self.n_cores += 1
        core.pool = self.name
        if set_frequency and abs(core.frequency - self.frequency_ghz) > 1e-12:
            if self.env.trace.enabled:
                self.env.trace.instant(
                    "freq_transition", self.name, core=core.core_id,
                    from_ghz=core.frequency, to_ghz=self.frequency_ghz,
                    reason="adopt")
            core.set_frequency(
                self.frequency_ghz,
                cost_s=self.freq_change_cost_s * self.cost_scale())
            self.stats.frequency_switches += 1
        if core.busy:
            raise ValueError(f"core {core.core_id} joined pool while busy")
        self._available.append(core)
        self.env.trace.counter(self.name, "pool_size", self.n_cores)
        self._dispatch()

    def release_idle_core(self) -> Optional[Core]:
        """Give up one idle core immediately, or None if all are busy."""
        if not self._available:
            return None
        core = self._available.pop()
        self._cores.remove(core)
        self.n_cores -= 1
        core.pool = None
        self.env.trace.counter(self.name, "pool_size", self.n_cores)
        return core

    def request_core_removal(self) -> bool:
        """Mark one busy core for removal once its current job finishes.

        Returns False when every core is already pending removal.
        """
        for core in self._cores:
            if core.core_id not in self._pending_removal:
                if core.busy:
                    self._pending_removal.add(core.core_id)
                    return True
        return False

    def set_frequency(self, freq_ghz: float,
                      cost_s: Optional[float] = None) -> None:
        """Retune the whole pool (the elastic refresh path).

        Busy cores stall for ``cost_s`` (defaults to the pool's kernel
        cost) and continue at the new speed.
        """
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive: {freq_ghz}")
        if abs(freq_ghz - self.frequency_ghz) < 1e-12:
            return
        actual_cost = (self.freq_change_cost_s if cost_s is None
                       else cost_s) * self.cost_scale()
        if self.env.trace.enabled:
            self.env.trace.instant(
                "freq_transition", self.name, from_ghz=self.frequency_ghz,
                to_ghz=freq_ghz, n_cores=self.n_cores, reason="retune")
        self.frequency_ghz = freq_ghz
        for core in self._cores:
            core.set_frequency(freq_ghz, cost_s=actual_cost)
        self.stats.frequency_switches += self.n_cores

    # ------------------------------------------------------------------
    # Job intake
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Register a job for execution in this pool."""
        if job.registered_run_seconds is None:
            # Fall back to the oracle view when no prediction was attached.
            job.registered_run_seconds = job.remaining_run_seconds(
                self.frequency_ghz)
        amount = job.registered_run_seconds
        self._ewt_s += amount
        self._ewt_amounts[job.job_id] = amount
        if job.boosted:
            self.stats.boosted += 1
        if job.wanted_lower_freq:
            self.stats.wanted_lower_freq += 1
        if self.env.trace.enabled:
            self.env.trace.counter(self.name, "ewt_s", self.ewt_seconds)
            self.env.trace.counter(self.name, "queue_len",
                                   len(self._ready) + 1)
        job.note_enqueue(pool=self.name)
        heapq.heappush(self._ready, (job.seniority, job))
        self.load += 1
        self.tally.count += 1
        self._dispatch()

    def drain_ready(self) -> List[Job]:
        """Remove and return every job still waiting in the ready queue.

        Their EWT contributions move with them (the caller re-submits each
        job elsewhere). Running and blocked jobs are not touched.
        """
        drained = []
        while self._ready:
            _, job = heapq.heappop(self._ready)
            remaining = self._ewt_amounts.pop(job.job_id, None)
            if remaining is not None:
                self._ewt_s -= remaining
                job.registered_run_seconds = remaining
            drained.append(job)
        self.load -= len(drained)
        self.tally.count -= len(drained)
        return drained

    def abort_all(self) -> List[Job]:
        """Tear down the pool's whole job population (node crash).

        Queued, running, and blocked jobs are all lost: running cores are
        preempted, EWT counters and per-job bookkeeping are zeroed, and
        every lost job is returned marked ``aborted`` (so its late block
        timers are ignored and its ``done`` event fires for any waiting
        reliability loop). The cores stay in the pool, idle.
        """
        lost: List[Job] = []
        while self._ready:
            _, job = heapq.heappop(self._ready)
            lost.append(job)
        for core_id in list(self._running):
            core = next(c for c in self._cores if c.core_id == core_id)
            lost.append(self._running.pop(core_id))
            core.preempt()
        lost.extend(self._blocked_jobs.values())
        self._blocked_jobs.clear()
        self.tally.count -= self.load
        self.load = 0
        self._ewt_s = 0.0
        self._ewt_amounts.clear()
        self._t_run_at_dispatch.clear()
        self._pending_removal.clear()
        self._available = list(self._cores)
        for core in self._cores:
            core.blocked_hold = None
        for job in lost:
            job.abort()
        return lost

    def cancel_job(self, job: Job) -> bool:
        """Remove one job from this pool and mark it cancelled.

        The targeted counterpart of :meth:`abort_all` (repro.cancel):
        covers all three residences — queued (dropped from the ready
        heap), running (its core is preempted and freed), and blocked
        (removed from the books; the pending wake timer finds the
        cancelled flag and ignores it). EWT bookkeeping is released like
        a completion. Returns False when the job is not in this pool.
        """
        if job.finished or job.aborted or job.cancelled:
            return False
        for index, (_, queued) in enumerate(self._ready):
            if queued is job:
                self._ready.pop(index)
                heapq.heapify(self._ready)
                self.load -= 1
                self.tally.count -= 1
                self._ewt_s -= self._ewt_amounts.pop(job.job_id, 0.0)
                self._t_run_at_dispatch.pop(job.job_id, None)
                job.cancel()
                return True
        for core_id, running in list(self._running.items()):
            if running is job:
                core = next(c for c in self._cores if c.core_id == core_id)
                del self._running[core_id]
                self.load -= 1
                self.tally.count -= 1
                core.preempt()
                self._consume_ewt(job)
                self._ewt_s -= self._ewt_amounts.pop(job.job_id, 0.0)
                job.cancel()
                self._core_freed(core)
                return True
        if job.job_id in self._blocked_jobs:
            del self._blocked_jobs[job.job_id]
            self.load -= 1
            self.tally.count -= 1
            self._ewt_s -= self._ewt_amounts.pop(job.job_id, 0.0)
            self._t_run_at_dispatch.pop(job.job_id, None)
            core = next((c for c in self._cores if c.blocked_hold is job),
                        None)
            job.cancel()
            if core is not None:
                # Run-to-completion mode held the core through the block;
                # release it now instead of at the ignored wake-up.
                core.blocked_hold = None
                self._core_freed(core)
            return True
        return False

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _job_frequency(self, job: Job) -> float:
        if self.per_job_frequency and job.chosen_freq_ghz is not None:
            return job.chosen_freq_ghz
        return self.frequency_ghz

    def _dispatch(self) -> None:
        drop_doomed = self.drop_doomed
        while self._ready:
            head = self._ready[0][1]
            if drop_doomed is not None and drop_doomed(self, head):
                continue
            core = self._pick_core(head)
            if core is None:
                return
            _, job = heapq.heappop(self._ready)
            self._start_on(core, job)

    def _pick_core(self, candidate: Job) -> Optional[Core]:
        """An idle core, or a core running a younger job to preempt."""
        if self._available:
            return self._available.pop()
        if not self.preemptive:
            return None
        youngest_core = None
        youngest_seniority = None
        for core_id, running in self._running.items():
            if youngest_seniority is None or running.seniority > youngest_seniority:
                youngest_seniority = running.seniority
                youngest_core = core_id
        if youngest_core is None or youngest_seniority <= candidate.seniority:
            return None
        core = next(c for c in self._cores if c.core_id == youngest_core)
        victim = self._running.pop(youngest_core)
        if self.env.trace.enabled:
            self.env.trace.instant(
                "preemption", self.name, core=youngest_core,
                victim=victim.job_id, victim_fn=victim.function_name,
                winner=candidate.job_id, winner_fn=candidate.function_name)
        core.preempt()
        self._consume_ewt(victim)
        victim.note_enqueue(pool=self.name)
        heapq.heappush(self._ready, (victim.seniority, victim))
        self.stats.preemptions += 1
        return core

    def _start_on(self, core: Core, job: Job,
                  context_switch: bool = True) -> None:
        target_freq = self._job_frequency(job)
        if self.per_job_frequency and job.dispatch_correction is not None:
            target_freq = job.dispatch_correction(target_freq)
        # Every path that decides a core's speed — dispatch choice,
        # boost, correction — runs through here, so this one clamp
        # enforces the power cap.
        if self.clamp_freq is not None:
            target_freq = self.clamp_freq(target_freq)
        pre_overhead = self.context_switch_s if context_switch else 0.0
        if abs(core.frequency - target_freq) > 1e-12:
            # The frequency change occupies the core before work starts
            # (sandboxed path for PowerCtrl, kernel path for boosts).
            if self.env.trace.enabled:
                self.env.trace.instant(
                    "freq_transition", self.name, core=core.core_id,
                    from_ghz=core.frequency, to_ghz=target_freq,
                    job=job.job_id, reason="dispatch")
            draw = self._draw_switch_cost
            switch_s = draw() if draw is not None else self.switch_cost_s
            pre_overhead += switch_s * self.cost_scale()
            core.set_frequency(target_freq, cost_s=0.0)
            self.stats.frequency_switches += 1
        self._running[core.core_id] = job
        job.note_dispatch(target_freq)
        self._t_run_at_dispatch[job.job_id] = job.t_run
        core.start(job.current_work(), consumer=job.benchmark,
                   on_complete=self._on_core_done, sink=job,
                   pre_overhead_s=pre_overhead)

    def _consume_ewt(self, job: Job) -> None:
        """Shrink the job's EWT share by the run time it just consumed.

        The EWT counter estimates *future* pool work; a job that has
        already executed most of its run segments should only contribute
        its remainder (otherwise blocked jobs inflate T_Queue estimates).
        """
        used = job.t_run - self._t_run_at_dispatch.pop(job.job_id, job.t_run)
        amount = self._ewt_amounts.get(job.job_id, 0.0)
        decrement = min(amount, max(0.0, used))
        self._ewt_s -= decrement
        if job.job_id in self._ewt_amounts:
            self._ewt_amounts[job.job_id] = amount - decrement

    def _on_core_done(self, core: Core) -> None:
        job = self._running.pop(core.core_id)
        self._consume_ewt(job)
        block = job.advance()
        if block is not None:
            block_s = block.seconds * self.block_latency()
            job.note_block(block_s)
            self._blocked_jobs[job.job_id] = job
            if self.switch_on_idle:
                self._core_freed(core)
                self.env.call_later(block_s, self._unblock_requeue, job)
            else:
                # Run-to-completion: the core idles but stays held.
                core.blocked_hold = job
                self.env.call_later(block_s, self._unblock_resume,
                                    (core, job))
            return
        if job.is_complete:
            self.load -= 1
            self.tally.count -= 1
            self._finish(core, job)
            return
        # Setup (cold start) finished; continue into the first run segment
        # on the same core without a context switch.
        self._running[core.core_id] = job
        self._t_run_at_dispatch[job.job_id] = job.t_run
        core.start(job.current_work(), consumer=job.benchmark,
                   on_complete=self._on_core_done, sink=job)

    def _unblock_requeue(self, job: Job) -> None:
        if job.aborted or job.cancelled:
            # The node crashed (or the cancel layer killed the job) while
            # it was blocked; it is already off the pool's books.
            return
        del self._blocked_jobs[job.job_id]
        job.skip_block()
        job.note_enqueue(pool=self.name)
        heapq.heappush(self._ready, (job.seniority, job))
        self._dispatch()

    def _unblock_resume(self, held: Tuple[Core, Job]) -> None:
        core, job = held
        if job.aborted or job.cancelled:
            return
        del self._blocked_jobs[job.job_id]
        job.skip_block()
        job.note_dispatch(core.frequency)
        self._running[core.core_id] = job
        self._t_run_at_dispatch[job.job_id] = job.t_run
        # start() accrues the held-idle segment first, so the hold tag must
        # still be visible to the ledger there; clear it afterwards.
        core.start(job.current_work(), consumer=job.benchmark,
                   on_complete=self._on_core_done, sink=job)
        core.blocked_hold = None

    def _finish(self, core: Core, job: Job) -> None:
        self._ewt_s -= self._ewt_amounts.pop(job.job_id, 0.0)
        self.stats.served += 1
        self.stats.total_wait_s += job.t_queue
        if self.env.trace.enabled:
            self.env.trace.counter(self.name, "ewt_s", self.ewt_seconds)
        job.complete()
        if self.on_complete is not None:
            self.on_complete(job)
        self._core_freed(core)

    def _core_freed(self, core: Core) -> None:
        if core.core_id in self._pending_removal:
            self._pending_removal.discard(core.core_id)
            self._cores.remove(core)
            self.n_cores -= 1
            core.pool = None
            self.env.trace.counter(self.name, "pool_size", self.n_cores)
            if self.on_core_released is not None:
                self.on_core_released(core)
            return
        self._available.append(core)
        self._dispatch()
