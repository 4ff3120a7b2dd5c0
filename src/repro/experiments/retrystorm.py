"""Retrystorm: a metastable failure, with and without repro.cancel.

Not a paper figure — the robustness companion to the overload and chaos
experiments, reproducing the classic *metastable failure* shape
(Bronson et al., HotOS'21): a trigger (load burst + container-kill storm)
pushes a cluster running an aggressive retry policy past saturation;
every attempt starts timing out, each timeout spawns retries and leaves
the timed-out attempt executing as abandoned work, so the effective load
*multiplies* — and the cluster stays collapsed long after the trigger
clears, sustained entirely by its own retry feedback loop.

Both arms replay the identical arrival trace and fault schedule:

* **cancel off** — the plain platform. After the trigger clears, goodput
  stays degraded: abandoned attempts keep burning cores, retries keep
  re-entering the queues, and the backlog feeds itself.
* **cancel on** — ``CancelConfig.full()``: the adaptive retry budget
  caps cluster-wide retries at a ratio of first attempts, and deadline
  propagation cancels doomed attempts (hedged losers, timed-out
  stragglers, queued work past its doom line) instead of letting them
  run. The feedback loop is starved and goodput recovers shortly after
  the trigger clears.

Reported per arm: goodput before / during / after the storm, the time
goodput stays degraded after the trigger clears, and the wasted-energy
fraction (retry waste + cancelled work over total).
``tests/test_cancel_integration.py`` asserts the off arm stays degraded
at least twice as long as the on arm, and that the energy ledger —
including the new ``cancelled``/``doomed`` buckets — conserves within
1e-6.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cancel import CancelConfig
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import ExperimentResult, run_cluster
from repro.faults.plan import FaultEvent, FaultPlan
from repro.obs.ledger import EnergyLedger
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace, TraceEvent
from repro.workloads.registry import all_benchmarks, benchmark_names

#: Goodput-recovery threshold: the first epoch pair at or above this
#: fraction of the pre-storm baseline counts as recovered.
RECOVERY_THRESHOLD = 0.7

#: Goodput epoch length (seconds) for the recovery timeline.
EPOCH_S = 1.0


def storm_policy() -> ReliabilityPolicy:
    """The aggressive frontend policy that makes the storm self-feeding:
    short timeouts, many retries, near-immediate backoff."""
    return ReliabilityPolicy(max_retries=6, backoff_base_s=0.05,
                             backoff_multiplier=1.5, backoff_jitter=0.0,
                             invocation_timeout_s=1.5)


def _storm_trace(n_servers: int, duration_s: float, storm: Tuple[float,
                 float], seed: int) -> Trace:
    """Steady near-capacity load plus a burst confined to the storm."""
    total_cores = n_servers * 20
    unit_rate = rate_for_utilization(all_benchmarks(), 1.0,
                                     total_cores=total_cores)
    base = generate_poisson_trace(PoissonLoadConfig(
        benchmark_names(), rate_rps=unit_rate * 0.6,
        duration_s=duration_s, seed=seed + 23))
    start, end = storm
    burst = generate_poisson_trace(PoissonLoadConfig(
        benchmark_names(), rate_rps=unit_rate * 2.0,
        duration_s=end - start, seed=seed + 29))
    shifted = [TraceEvent(round(e.time_s + start, 9), e.benchmark)
               for e in burst.events if e.time_s + start < end]
    return Trace(sorted(list(base.events) + shifted,
                        key=lambda e: e.time_s), duration_s)


def _kill_storm(n_servers: int, storm: Tuple[float, float],
                functions: List[str]) -> FaultPlan:
    """A container-kill barrage confined to the storm window: every
    ``period`` seconds one warm container dies, cycling deterministically
    over nodes and functions, so in-flight attempts keep timing out."""
    start, end = storm
    period = 0.25
    events = []
    t, i = start, 0
    while t < end:
        events.append(FaultEvent(
            time_s=round(t, 3), kind="container_kill",
            node=i % n_servers, function=functions[i % len(functions)]))
        t += period
        i += 1
    return FaultPlan(tuple(events)).validate(n_servers=n_servers,
                                             functions=functions)


def _goodput_timeline(records, horizon_s: float) -> List[int]:
    """Workflows completing within SLO, bucketed by completion epoch."""
    n_epochs = max(1, int(horizon_s / EPOCH_S))
    timeline = [0] * n_epochs
    for record in records:
        if not record.met_slo:
            continue
        done = record.arrival_s + record.latency_s
        epoch = min(n_epochs - 1, int(done / EPOCH_S))
        timeline[epoch] += 1
    return timeline


def _degraded_seconds(timeline: List[int], baseline_per_epoch: float,
                      clear_s: float) -> float:
    """Seconds after the trigger clears until goodput is back.

    Recovery = two consecutive epochs at or above
    ``RECOVERY_THRESHOLD`` of the pre-storm baseline; a single lucky
    epoch inside a collapsed stretch does not count. Never-recovered
    runs score the full remaining horizon.
    """
    threshold = RECOVERY_THRESHOLD * baseline_per_epoch
    first = int(clear_s / EPOCH_S)
    for epoch in range(first, len(timeline) - 1):
        if (timeline[epoch] >= threshold
                and timeline[epoch + 1] >= threshold):
            return max(0.0, epoch * EPOCH_S - clear_s)
    return len(timeline) * EPOCH_S - clear_s


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        "Retrystorm",
        "Metastable retry collapse after a cleared trigger,"
        " cancel+budgets off vs on")
    duration = 30.0 if quick else 90.0
    drain = 25.0 if quick else 60.0
    n_servers = 2 if quick else 5
    storm = (8.0, 14.0) if quick else (20.0, 32.0)
    horizon = duration + drain

    functions = sorted({fn.name for wf in all_benchmarks()
                        for stage in wf.stages for fn in stage.functions})
    trace = _storm_trace(n_servers, duration, storm, seed)
    plan = _kill_storm(n_servers, storm, functions)

    degraded: Dict[str, float] = {}
    for arm, cancel in (("off", None), ("on", CancelConfig.full())):
        config = ClusterConfig(
            n_servers=n_servers, seed=seed, drain_s=drain,
            reliability=storm_policy(), cancel=cancel)
        # Attach a ledger (unless the CLI already installed a tracer) so
        # each arm's wasted joules are classified and conservation —
        # including the cancelled/doomed buckets — is checked at 1e-6.
        own_tracer = obs.active_tracer() is None
        if own_tracer:
            obs.install(obs.Tracer(ledger=EnergyLedger()))
        try:
            cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                                  config, fault_plan=plan,
                                  label=f"EcoFaaS/cancel-{arm}")
            tracer = obs.active_tracer()
            ledger = tracer.ledger if tracer is not None else None
            report = (ledger.reports[-1]
                      if ledger is not None and ledger.reports else None)
        finally:
            if own_tracer:
                obs.uninstall()
        metrics = cluster.metrics
        timeline = _goodput_timeline(metrics.workflow_records, horizon)
        pre_epochs = range(1, int(storm[0] / EPOCH_S))
        baseline = (sum(timeline[e] for e in pre_epochs)
                    / max(1, len(pre_epochs)))
        degraded[arm] = _degraded_seconds(timeline, baseline, storm[1])
        wasted_j = metrics.retry_energy_j + metrics.cancelled_energy_j
        during = range(int(storm[0] / EPOCH_S), int(storm[1] / EPOCH_S))
        after = range(int(storm[1] / EPOCH_S), len(timeline))
        result.add(
            cancel=arm,
            goodput_pre=round(baseline, 2),
            goodput_storm=round(sum(timeline[e] for e in during)
                                / max(1, len(during)), 2),
            goodput_after=round(sum(timeline[e] for e in after)
                                / max(1, len(after)), 2),
            degraded_s=round(degraded[arm], 1),
            retries=metrics.retries,
            timeouts=metrics.timeouts,
            denials=metrics.retry_budget_denials,
            cancelled=metrics.cancelled_attempts,
            doomed_wf=metrics.doomed_workflows,
            wasted_pct=round(100.0 * wasted_j
                             / max(cluster.total_energy_j, 1e-12), 1),
            energy_j=round(cluster.total_energy_j, 1),
            conserved=(report.ok if report is not None else None),
        )

    result.note(f"trigger: {storm[1] - storm[0]:.0f}s load burst"
                f" (2x saturation) + container-kill barrage over"
                f" [{storm[0]:.0f}s, {storm[1]:.0f}s); policy retries"
                f" up to {storm_policy().max_retries}x with a"
                f" {storm_policy().invocation_timeout_s:.1f}s timeout")
    result.note("degraded_s: seconds past trigger-clear until goodput"
                f" holds >= {RECOVERY_THRESHOLD:.0%} of the pre-storm"
                " baseline for two consecutive epochs — the metastability"
                " signal: 'off' stays collapsed on pure retry feedback")
    result.note("wasted_pct: retry waste + cancelled-work joules over"
                " total; 'on' converts abandoned executions into early"
                " kills, so the fraction drops while goodput recovers")
    result.note("both arms replay the identical arrival trace and fault"
                " schedule; the only difference is CancelConfig")
    return result


def degraded_ratio(result: ExperimentResult) -> Optional[float]:
    """off/on degraded-seconds ratio (the >= 2x acceptance signal)."""
    off = float(result.row_for(cancel="off")["degraded_s"])
    on = float(result.row_for(cancel="on")["degraded_s"])
    if on <= 0.0:
        return None if off <= 0.0 else float("inf")
    return off / on
