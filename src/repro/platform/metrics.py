"""Run metrics: per-function and end-to-end records, percentiles, rollups."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.platform.job import Job


def percentile(values: Iterable[float], p: float) -> float:
    """The p-th percentile (0-100) of ``values``.

    Accepts any iterable — lists, tuples, numpy arrays, and one-shot
    generators are all coerced to a flat float array first. An empty
    ``values`` yields NaN — "no data", distinguishable from a genuine
    0.0 latency — so partial runs (e.g. chaos experiments where a
    benchmark never completed) roll up without raising.
    """
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {p}")
    if not hasattr(values, "__len__"):
        values = list(values)  # a generator supports neither len nor reuse
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return float("nan")
    return float(np.percentile(array, p))


@dataclass(frozen=True)
class FunctionRecord:
    """The measured outcome of one function invocation."""

    benchmark: str
    function: str
    arrival_s: float
    latency_s: float
    t_queue_s: float
    t_run_s: float
    t_block_s: float
    energy_j: float
    cold_start: bool
    chosen_freq_ghz: Optional[float]
    met_deadline: bool
    freq_run_seconds: Dict[float, float]

    @classmethod
    def from_job(cls, job: Job) -> "FunctionRecord":
        return cls(
            benchmark=job.benchmark,
            function=job.function_name,
            arrival_s=job.arrival_s,
            latency_s=job.latency_s,
            t_queue_s=job.t_queue,
            t_run_s=job.t_run,
            t_block_s=job.t_block,
            energy_j=job.energy_j,
            cold_start=job.cold_start,
            chosen_freq_ghz=job.chosen_freq_ghz,
            met_deadline=job.met_deadline,
            freq_run_seconds=dict(job.freq_run_seconds),
        )


@dataclass(frozen=True)
class WorkflowRecord:
    """The measured outcome of one end-to-end application invocation."""

    benchmark: str
    arrival_s: float
    latency_s: float
    slo_s: float

    @property
    def met_slo(self) -> bool:
        return self.latency_s <= self.slo_s + 1e-9


class MetricsCollector:
    """Accumulates records during a run and answers rollup queries.

    One collector belongs to one run: every :class:`Cluster` constructs a
    fresh instance. A collector that *is* reused across runs (custom
    harnesses carrying one through a sweep) must call :meth:`reset`
    between them, or reliability counters from one run leak into the
    next's rollups.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every record list and counter (reuse across runs)."""
        self.function_records: List[FunctionRecord] = []
        self.workflow_records: List[WorkflowRecord] = []
        # Reliability counters (repro.faults). All stay zero on fault-free
        # runs.
        #: Re-dispatched attempts (the frontend retried an invocation).
        self.retries = 0
        #: Hedged duplicate attempts launched.
        self.hedges = 0
        #: Attempts written off by the per-invocation timeout.
        self.timeouts = 0
        #: Injected faults that actually hit something, by kind.
        self.failures: Dict[str, int] = {}
        #: Outage durations of every completed crash→reboot cycle.
        self.recovery_times_s: List[float] = []
        #: In-flight (non-prewarm) jobs aborted by node crashes.
        self.jobs_lost_to_crash = 0
        #: Crash-lost jobs whose invocation was later completed by another
        #: attempt (re-dispatch or a surviving hedge).
        self.crash_redispatches = 0
        #: Invocations abandoned after exhausting every retry.
        self.lost_invocations = 0
        #: Workflows that failed because one invocation was lost for good.
        self.failed_workflows = 0
        #: Energy burned by attempts that did not produce the result used:
        #: crash-lost partial executions plus abandoned attempts that ran
        #: to completion anyway.
        self.retry_energy_j = 0.0
        #: Abandoned attempts that finished executing after being written
        #: off.
        self.abandoned_completions = 0
        # Guard counters (repro.guard). All stay zero on unguarded runs.
        #: Workflows shed at admission, by reason (brownout / rate_limit /
        #: overload).
        self.shed_workflows: Dict[str, int] = {}
        #: Workflows shed at admission, by benchmark.
        self.shed_by_benchmark: Dict[str, int] = {}
        #: Circuit-breaker trips (closed/half-open -> open).
        self.breaker_opens = 0
        #: Invocations failed fast because their function's breaker was
        #: open.
        self.breaker_fast_fails = 0
        #: Pathological predictions caught and replaced by the guard.
        self.mispredictions = 0
        #: MILP solves that hit the node budget and fell back to the
        #: proportional split.
        self.milp_fallbacks = 0
        #: Dispatches pinned to the top frequency on a stale profile.
        self.freq_pins = 0
        #: Controller checkpoints snapshotted.
        self.checkpoints_taken = 0
        #: Reboots resumed from a fresh checkpoint.
        self.checkpoint_restores = 0
        #: Stuck control loops kicked by the watchdog.
        self.watchdog_kicks = 0
        # High-availability counters (repro.ha). All stay zero without an
        # HAConfig.
        #: Heartbeats dropped because the node was down or its uplink cut.
        self.ha_heartbeats_lost = 0
        #: Membership transitions alive -> suspected.
        self.ha_suspicions = 0
        #: Suspicions of nodes whose process was actually alive.
        self.ha_false_suspicions = 0
        #: Per-suspicion delay from the first missed heartbeat, seconds.
        self.ha_suspicion_latencies_s: List[float] = []
        #: Stranded invocations re-dispatched via the idempotency journal.
        self.ha_redispatches = 0
        #: Surviving duplicate copies fenced when a re-dispatched key won.
        self.ha_duplicates_fenced = 0
        #: Completions recorded for an already-completed key (must stay 0).
        self.ha_duplicate_completions = 0
        #: Stale-epoch control decisions rejected by consumers.
        self.ha_fenced_decisions = 0
        #: Control decisions frozen because no believed leader was
        #: reachable from the consumer.
        self.ha_frozen_decisions = 0
        #: Leader elections after a lease expiry.
        self.ha_failovers = 0
        #: Per-failover delay from leader loss to the new lease, seconds.
        self.ha_failover_times_s: List[float] = []
        #: Successful leader lease renewals.
        self.ha_lease_renewals = 0
        #: Breaker charges skipped because the failing node was suspected
        #: (the node's fault, not the function's).
        self.breaker_node_blames = 0
        # Tenancy counters (repro.tenancy). All stay zero without a
        # TenancyConfig.
        #: Budget-enforcement decisions (sheds, throttled admits, drops).
        self.tenant_throttles = 0
        #: Power-cap governor actuation changes (tightens + releases).
        self.power_cap_steps = 0
        #: Actuation steps that tightened the ladder (draw over cap).
        self.power_cap_tightens = 0
        #: Actuation steps that released the ladder (draw under the
        #: release threshold).
        self.power_cap_releases = 0
        # Cancellation counters (repro.cancel). All stay zero without a
        # CancelConfig.
        #: In-flight attempts the cancel layer killed (hedged losers,
        #: timed-out attempts, doomed siblings, dequeue drops).
        self.cancelled_attempts = 0
        #: Joules those attempts had already burned when killed (charged
        #: work — the ledger's ``cancelled`` bucket).
        self.cancelled_energy_j = 0.0
        #: Estimated run-seconds reclaimed by killing them early (oracle
        #: remaining work at the top frequency).
        self.cancelled_reclaimed_s = 0.0
        #: Queued jobs dropped at dispatch because their remaining work
        #: could no longer fit before the doom line.
        self.doomed_drops = 0
        #: Workflows written off mid-chain once their doom line passed
        #: (a sub-count of ``failed_workflows``).
        self.doomed_workflows = 0
        #: Retries denied because the cluster-wide token window was spent.
        self.retry_budget_denials = 0
        #: Retry tokens retired because the granted retry never dispatched.
        self.retry_budget_refunds = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_job(self, job: Job) -> None:
        if job.abandoned:
            # A written-off attempt ran to completion anyway: its energy is
            # retry waste, and it must not contribute a latency record (the
            # winning attempt already did, or the invocation was lost).
            self.retry_energy_j += job.energy_j
            self.abandoned_completions += 1
            return
        self.function_records.append(FunctionRecord.from_job(job))

    def record_workflow(self, benchmark: str, arrival_s: float,
                        latency_s: float, slo_s: float) -> None:
        self.workflow_records.append(
            WorkflowRecord(benchmark, arrival_s, latency_s, slo_s))

    def record_retry(self) -> None:
        self.retries += 1

    def record_hedge(self) -> None:
        self.hedges += 1

    def record_timeout(self) -> None:
        self.timeouts += 1

    def record_failure(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def record_crash(self, lost_jobs: int, lost_energy_j: float) -> None:
        """A node crashed, killing ``lost_jobs`` in-flight jobs."""
        self.record_failure("node_crash")
        self.jobs_lost_to_crash += lost_jobs
        self.retry_energy_j += lost_energy_j

    def record_recovery(self, downtime_s: float) -> None:
        """A crashed node finished rebooting after ``downtime_s``."""
        if downtime_s < 0:
            raise ValueError(f"negative downtime {downtime_s}")
        self.recovery_times_s.append(downtime_s)

    def record_workflow_failure(self, benchmark: str) -> None:
        self.failed_workflows += 1
        self.record_failure(f"workflow:{benchmark}")

    def record_workflow_doomed(self, benchmark: str) -> None:
        """A workflow was written off as doomed (repro.cancel).

        Doomed is a sub-case of failed — it counts into both, so the
        lifecycle-conservation equation is unchanged by the cancel layer.
        """
        self.failed_workflows += 1
        self.doomed_workflows += 1
        self.record_failure(f"workflow:{benchmark}")

    def record_shed(self, benchmark: str, reason: str) -> None:
        """Admission control dropped one workflow arrival."""
        self.shed_workflows[reason] = self.shed_workflows.get(reason, 0) + 1
        self.shed_by_benchmark[benchmark] = (
            self.shed_by_benchmark.get(benchmark, 0) + 1)

    def shed_count(self, reason: Optional[str] = None) -> int:
        if reason is not None:
            return self.shed_workflows.get(reason, 0)
        return sum(self.shed_workflows.values())

    # ------------------------------------------------------------------
    # Reliability rollups
    # ------------------------------------------------------------------
    def mttr_s(self) -> float:
        """Mean time to recover across crash→reboot cycles (0.0 if none)."""
        if not self.recovery_times_s:
            return 0.0
        return float(np.mean(self.recovery_times_s))

    def failure_count(self, kind: Optional[str] = None) -> int:
        if kind is not None:
            return self.failures.get(kind, 0)
        return sum(self.failures.values())

    # ------------------------------------------------------------------
    # High-availability rollups (repro.ha)
    # ------------------------------------------------------------------
    def ha_false_positive_rate(self) -> float:
        """Fraction of suspicions whose node was actually alive."""
        if self.ha_suspicions == 0:
            return 0.0
        return self.ha_false_suspicions / self.ha_suspicions

    def ha_mean_suspicion_latency_s(self) -> float:
        """Mean first-missed-heartbeat -> suspicion delay (0.0 if none)."""
        if not self.ha_suspicion_latencies_s:
            return 0.0
        return float(np.mean(self.ha_suspicion_latencies_s))

    def ha_mean_failover_s(self) -> float:
        """Mean leader-loss -> new-lease delay (0.0 if none)."""
        if not self.ha_failover_times_s:
            return 0.0
        return float(np.mean(self.ha_failover_times_s))

    # ------------------------------------------------------------------
    # End-to-end rollups (what the figures report)
    # ------------------------------------------------------------------
    def _workflow_latencies(self, benchmark: Optional[str]) -> List[float]:
        return [r.latency_s for r in self.workflow_records
                if benchmark is None or r.benchmark == benchmark]

    def latency_avg(self, benchmark: Optional[str] = None) -> float:
        """Mean end-to-end latency; 0.0 when no workflow completed."""
        values = self._workflow_latencies(benchmark)
        if not values:
            return 0.0
        return float(np.mean(values))

    def latency_p99(self, benchmark: Optional[str] = None) -> float:
        """Tail latency as the paper defines it (99th percentile).

        NaN when no workflow completed (see :func:`percentile`).
        """
        values = self._workflow_latencies(benchmark)
        return percentile(values, 99.0)

    def slo_violation_rate(self, benchmark: Optional[str] = None) -> float:
        """Fraction of completed workflows that blew their SLO.

        0.0 when no workflow completed (nothing violated nothing).
        """
        records = [r for r in self.workflow_records
                   if benchmark is None or r.benchmark == benchmark]
        if not records:
            return 0.0
        return sum(1 for r in records if not r.met_slo) / len(records)

    def completed_workflows(self, benchmark: Optional[str] = None) -> int:
        return len([r for r in self.workflow_records
                    if benchmark is None or r.benchmark == benchmark])

    def benchmarks(self) -> List[str]:
        """Benchmarks seen, alphabetical."""
        return sorted({r.benchmark for r in self.workflow_records})

    def bench_summary(self) -> Dict[str, object]:
        """Seed-deterministic headline metrics (``repro profile`` documents).

        The p99 is None (rather than NaN) when nothing completed, so the
        summary serializes to strict JSON.
        """
        p99 = self.latency_p99()
        return {
            "p99_latency_s": (round(p99, 6) if p99 == p99 else None),
            "slo_miss_rate": round(self.slo_violation_rate(), 6),
            "completed": self.completed_workflows(),
        }

    # ------------------------------------------------------------------
    # Function-level rollups
    # ------------------------------------------------------------------
    def function_energy_j(self, benchmark: Optional[str] = None) -> float:
        """Per-invocation (core-attributed) energy summed over records."""
        return sum(r.energy_j for r in self.function_records
                   if benchmark is None or r.benchmark == benchmark)

    def cold_start_count(self, benchmark: Optional[str] = None) -> int:
        return sum(1 for r in self.function_records if r.cold_start
                   and (benchmark is None or r.benchmark == benchmark))

    def deadline_miss_rate(self) -> float:
        """Fraction of invocations missing their deadline; 0.0 if none ran."""
        if not self.function_records:
            return 0.0
        return (sum(1 for r in self.function_records if not r.met_deadline)
                / len(self.function_records))

    def mean_breakdown(self, benchmark: Optional[str] = None) -> Dict[str, float]:
        """Mean T_Queue / T_Run / T_Block across function records.

        All-zero when no invocation completed.
        """
        records = [r for r in self.function_records
                   if benchmark is None or r.benchmark == benchmark]
        if not records:
            return {"t_queue": 0.0, "t_run": 0.0, "t_block": 0.0}
        return {
            "t_queue": float(np.mean([r.t_queue_s for r in records])),
            "t_run": float(np.mean([r.t_run_s for r in records])),
            "t_block": float(np.mean([r.t_block_s for r in records])),
        }

    def frequency_histogram(self) -> Dict[float, int]:
        """Invocations per chosen dispatch frequency (Fig. 15)."""
        histogram: Dict[float, int] = defaultdict(int)
        for record in self.function_records:
            if record.chosen_freq_ghz is not None:
                histogram[record.chosen_freq_ghz] += 1
        return dict(histogram)

    def frequency_time_histogram(self) -> Dict[float, float]:
        """Run-seconds accumulated at each frequency across invocations."""
        histogram: Dict[float, float] = defaultdict(float)
        for record in self.function_records:
            for freq, seconds in record.freq_run_seconds.items():
                histogram[freq] += seconds
        return dict(histogram)
