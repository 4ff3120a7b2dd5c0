"""The Energy-Aware Function Dispatcher (Sections VI-B, VI-D).

One dispatcher manages one function's container on one node. For every
invocation it:

1. predicts ``T_Run(f)`` / ``T_Block`` / ``Energy(f)`` from the function's
   profile (EWMA or input-aware MLP), applying any configured
   overprediction error (the Fig. 19 knob);
2. estimates ``T_Queue`` per core pool from the pool's EWT counter;
3. registers the invocation with the cheapest pool whose frequency still
   meets the function's absolute deadline;
4. when no pool fits, applies the three escalation strategies of Section
   VI-D in order: boost only this invocation at its turn; temporarily
   raise a whole pool; or take the shortest queue at the maximum
   frequency.

Cold invocations (no usable profile yet) run at the highest frequency, as
the paper prescribes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.predictor import FrequencyProfile
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.workloads.model import FunctionModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import EcoFaaSNode


class EnergyAwareDispatcher:
    """Per-function, per-node frequency selection and pool registration."""

    def __init__(self, node: "EcoFaaSNode", fn_model: FunctionModel):
        self.node = node
        self.fn_model = fn_model
        self.machine_type = node.server.machine_type
        self.profile: FrequencyProfile = node.store.profile(
            fn_model, self.machine_type)
        #: Counters for Section VIII-style reporting.
        self.registered = 0
        self.boost_strategy_counts = [0, 0, 0]

    # ------------------------------------------------------------------
    # Prediction wrappers
    # ------------------------------------------------------------------
    def _overpredict(self, value: float) -> float:
        return value * (1.0 + self.node.config.overprediction_error)

    def _sanitize(self, kind: str, value: float,
                  freq: Optional[float] = None) -> float:
        """Safe mode (repro.guard): screen one prediction if armed.

        The guard's per-level label (``kind@freq``) is only built when
        the guard is armed.
        """
        guard = self.node.env.guard
        if guard is None:
            return value
        label = kind if freq is None else f"{kind}@{freq:.2f}"
        return guard.sanitize_prediction(self.fn_model.name, label, value,
                                         self.node.track)

    def _predict_t_run(self, freq: float, job: Job) -> float:
        return self._sanitize("t_run", self._overpredict(
            self.node.store.predict_t_run(
                self.fn_model.name, self.machine_type, freq,
                job.spec.features)), freq)

    def _predict_t_block(self, job: Job) -> float:
        return self._sanitize("t_block", self.node.store.predict_t_block(
            self.fn_model.name, self.machine_type, job.spec.features))

    def _predict_energy(self, freq: float, job: Job) -> float:
        return self._sanitize("energy", self.node.store.predict_energy(
            self.fn_model.name, self.machine_type, freq,
            job.spec.features), freq)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, job: Job) -> None:
        """Choose a frequency and a pool for ``job`` and submit it."""
        self.registered += 1
        ready = self.node.store.ready(self.fn_model.name,
                                      self.machine_type)
        if not ready or job.cold_start or job.deadline_s is None:
            # No trustworthy profile, a critical-path cold start, or a
            # best-effort request: highest possible frequency (Section
            # VI-B / VI-E1).
            self._submit_at_max(job)
            return
        guard = self.node.env.guard
        if guard is not None and guard.dpt_stale(self.fn_model.name):
            # Safe mode: the profile has gone stale — pin to the top
            # frequency (always deadline-safe) until fresh data arrives.
            guard.record_freq_pin(self.fn_model.name, self.node.track)
            self._submit_at_max(job)
            return
        self._register_profiled(job)

    def _submit_at_max(self, job: Job) -> None:
        scale = self.node.scale
        pools = self.node.active_pools()
        pool = pools[-1]  # highest frequency available
        job.chosen_freq_ghz = scale.max
        if self.node.store.ready(self.fn_model.name, self.machine_type):
            job.registered_run_seconds = self._predict_t_run(scale.max, job)
        else:
            job.registered_run_seconds = 0.0
        if abs(pool.frequency_ghz - scale.max) > 1e-12:
            job.boosted = True  # the job forces the core up at its turn
        self._submit(pool, job)

    def _submit(self, pool: CorePoolScheduler, job: Job) -> None:
        """Register with the pool, accounting demand where the job was
        actually placed (the node controller sizes pools from placement,
        then shifts levels using the boost / wanted-lower signals)."""
        tenancy = self.node.env.tenancy
        if tenancy is not None:
            # Power-cap ceiling (repro.tenancy): demand accounting and
            # EWT must reflect the speed the job will actually get.
            job.chosen_freq_ghz = tenancy.clamp_freq(job.chosen_freq_ghz)
        self.node.note_demand(job.chosen_freq_ghz,
                              job.registered_run_seconds or 0.0)
        pool.submit(job)

    def _register_profiled(self, job: Job) -> None:
        scale = self.node.scale
        now = self.node.env.now
        t_block = self._predict_t_block(job)
        budget = (job.deadline_s - now) * self.node.config.deadline_margin
        pools = self.node.active_pools()
        job.dispatch_correction = self._make_correction(job, t_block)

        # The function's pool-independent optimal level (for demand stats
        # and the wanted-lower signal): cheapest level that would fit *had
        # an uncongested pool at that level existed* — this is the paper's
        # "could have been executed at a lower frequency if an appropriate
        # core pool had been available" signal, so current congestion must
        # not silence it (otherwise a node that collapsed to one hot pool
        # would never learn to recreate low-frequency pools).
        desired = scale.max
        for level in scale.levels:
            level_queue = self.node.store.level_queue_estimate(level)
            if (level_queue + self._predict_t_run(level, job) + t_block
                    <= budget):
                desired = level
                break
        if desired < min(p.frequency_ghz for p in pools) - 1e-12:
            job.wanted_lower_freq = True

        # Normal path: cheapest feasible existing pool (pools are sorted by
        # frequency, and lower frequency == lower energy).
        for pool in pools:
            t_run = self._predict_t_run(pool.frequency_ghz, job)
            if (pool.estimated_queue_seconds() + t_run + t_block
                    <= budget):
                job.chosen_freq_ghz = pool.frequency_ghz
                job.registered_run_seconds = t_run
                self._submit(pool, job)
                return
        self._escalate(job, pools, t_block, budget)

    def _escalate(self, job: Job, pools: List[CorePoolScheduler],
                  t_block: float, budget: float) -> None:
        """The three strategies of Section VI-D, in order."""
        scale = self.node.scale
        # A deadline that is unreachable even at the top frequency with an
        # empty queue cannot be rescued: run the job at max on the
        # shortest queue, but do NOT punish a whole pool (raising a cold
        # pool's frequency for a lost cause would wreck every co-located
        # energy decision until the next refresh).
        if self._predict_t_run(scale.max, job) + t_block > budget:
            best = min(pools, key=lambda p: p.estimated_queue_seconds())
            job.chosen_freq_ghz = scale.max
            job.boosted = True
            job.registered_run_seconds = self._predict_t_run(scale.max, job)
            self.boost_strategy_counts[2] += 1
            self._submit(best, job)
            return
        # Strategy 1: keep the queue at pool speed, boost only this job
        # when its turn comes.
        for pool in pools:
            queue = pool.estimated_queue_seconds()
            for level in scale.at_or_above(pool.frequency_ghz)[1:]:
                if queue + self._predict_t_run(level, job) + t_block <= budget:
                    job.chosen_freq_ghz = level
                    job.boosted = True
                    job.registered_run_seconds = self._predict_t_run(
                        level, job)
                    self.boost_strategy_counts[0] += 1
                    self._submit(pool, job)
                    return
        # Strategy 2: raise a whole pool so queued jobs drain faster too.
        for pool in pools:
            queue = pool.estimated_queue_seconds()
            for level in scale.at_or_above(pool.frequency_ghz)[1:]:
                scaled_queue = queue * pool.frequency_ghz / level
                if (scaled_queue + self._predict_t_run(level, job) + t_block
                        <= budget):
                    self.node.raise_pool_frequency(pool, level)
                    job.chosen_freq_ghz = level
                    job.boosted = True
                    job.registered_run_seconds = self._predict_t_run(
                        level, job)
                    self.boost_strategy_counts[1] += 1
                    self._submit(pool, job)
                    return
        # Strategy 3: the deadline is likely lost — shortest queue at the
        # highest frequency limits the damage.
        best = min(pools, key=lambda p:
                   p.estimated_queue_seconds() * p.frequency_ghz / scale.max)
        self.node.raise_pool_frequency(best, scale.max)
        job.chosen_freq_ghz = scale.max
        job.boosted = True
        job.registered_run_seconds = self._predict_t_run(scale.max, job)
        self.boost_strategy_counts[2] += 1
        self._submit(best, job)

    def _make_correction(self, job: Job, t_block_pred: float):
        """The paper's corrective action (Section V): at each dispatch,
        raise this invocation's frequency if the time already lost to
        queueing makes the planned frequency miss the deadline."""
        scale = self.node.scale

        def correct(planned_freq: float) -> float:
            if job.deadline_s is None:
                return planned_freq
            budget_left = job.deadline_s - self.node.env.now
            remaining_block = max(0.0, t_block_pred - job.t_block)
            predicted_total = self._predict_t_run(planned_freq, job)
            if predicted_total > 0:
                progress = min(1.0, job.t_run / predicted_total)
            else:
                progress = 1.0
            for level in scale.at_or_above(planned_freq):
                remaining_run = (self._predict_t_run(level, job)
                                 * (1.0 - progress))
                if remaining_run + remaining_block <= budget_left:
                    return level
            return scale.max

        return correct

    # ------------------------------------------------------------------
    # Profiling (Section VI-B: handlers measure and save every execution)
    # ------------------------------------------------------------------
    def record_completion(self, job: Job) -> None:
        """Fold a finished invocation back into the profile."""
        self.node.store.queue_ewma(self.fn_model.name).update(job.t_queue)
        if job.chosen_freq_ghz is not None:
            self.node.store.level_queue_ewma(
                job.chosen_freq_ghz).update(job.t_queue)
        if not job.freq_run_seconds:
            return
        if job.cold_start:
            # The measured T_Run includes container boot; mixing it into
            # the warm-execution profile would poison every prediction.
            return
        # Attribute the measurement to the frequency the job mostly ran at.
        dominant = max(job.freq_run_seconds, key=job.freq_run_seconds.get)
        self.profile.observe(dominant, job.t_run, job.t_block,
                             job.energy_j, job.spec.features)
        self.node.store.note_observation()
        guard = self.node.env.guard
        if guard is not None:
            guard.note_observation(self.fn_model.name)
