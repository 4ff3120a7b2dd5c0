"""The per-cluster cancellation runtime: doom checks, kills, budgets.

Every :class:`Cluster` builds one (:mod:`repro.platform.layers`). An
unset ``ClusterConfig.cancel`` builds it from an empty
:class:`CancelConfig`: no doom line, no retry budget, nothing recorded.

The runtime owns three concerns: deadline *doom* predicates (a job or
workflow is doomed once it provably cannot finish by its doom line),
the actual kill path (finding a job's pool across the cluster and
removing it there), and the cluster-wide retry budget. Every decision
is folded into :class:`MetricsCollector` counters and recorded as
``repro.obs`` trace instants (decisions through ``Tracer.decision``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Set

from repro.cancel.budget import RetryBudget
from repro.cancel.config import CancelConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster, ClusterConfig
    from repro.platform.job import Job
    from repro.platform.metrics import MetricsCollector
    from repro.platform.scheduler import CorePoolScheduler
    from repro.sim.engine import Environment

#: Frontend trace track for cancel decisions (matches reliability events).
FRONTEND_TRACK = "frontend"

#: Epsilon for doom-line comparisons (matches the platform's deadline
#: comparisons).
EPS = 1e-9


class CancelRuntime:
    """The cancellation mechanisms of one cluster."""

    def __init__(self, env: "Environment", metrics: "MetricsCollector",
                 config: "ClusterConfig"):
        self.config = layer = config.cancel or CancelConfig()
        self.env = env
        self.metrics = metrics
        self.deadline = layer.deadline
        self.budget: Optional[RetryBudget] = (
            RetryBudget(layer.retry_budget, now=env.now)
            if layer.retry_budget is not None else None)
        #: Workflow uids declared doomed (stage skipped or every attempt
        #: of an invocation cancelled) — read by the workflow engine to
        #: trace ``doomed`` instead of ``failed``, and by the ledger to
        #: fill the ``doomed`` bucket.
        self.doomed_workflow_uids: Set[int] = set()
        #: Top of the frequency scale: the optimistic estimate used when
        #: reporting how many run-seconds a kill reclaimed.
        self._top_freq = config.scale.max
        self.cluster: Optional["Cluster"] = None

    def arm(self, cluster: "Cluster") -> None:
        """Nothing periodic to start: remember the cluster to kill in."""
        self.cluster = cluster

    # ------------------------------------------------------------------
    # Doom lines (deadline propagation)
    # ------------------------------------------------------------------
    def doom_deadline(self, arrival_s: float, slo_s: float
                      ) -> Optional[float]:
        """The workflow's doom line: its SLO deadline plus slack.

        This is the deadline token each invocation of the chain carries;
        it is re-evaluated (against the stage's fresh remaining-work
        estimate) at every stage boundary and every dequeue.
        """
        if self.deadline is None:
            return None
        return arrival_s + slo_s + self.deadline.slack_s

    def tag_job(self, job: "Job", doom_deadline_s: Optional[float]) -> None:
        """Attach the doom token so node-level checks can see it."""
        if doom_deadline_s is not None and not job.is_prewarm:
            job.doom_deadline_s = doom_deadline_s

    def doom_passed(self, doom_deadline_s: Optional[float]) -> bool:
        """True when the doom line has passed: neither the chain's next
        stage nor a retry can help anymore."""
        return (self.deadline is not None
                and doom_deadline_s is not None
                and self.env.now > doom_deadline_s + EPS)

    def drop_if_doomed(self, pool: "CorePoolScheduler", job: "Job") -> bool:
        """The pool's dequeue hook: drop ``job`` (True) when its remaining
        work cannot fit before its doom line, so running it would only
        burn joules.

        Uses the oracle remaining-run-seconds view at the pool frequency
        (block time is not counted, so the check is conservative — a job
        is only doomed when even uninterrupted execution cannot finish in
        time). Prewarm pseudo-jobs and jobs without a token never doom.
        """
        if self.deadline is None:
            return False
        token = getattr(job, "doom_deadline_s", None)
        if token is None or job.is_prewarm or job.cancelled:
            return False
        remaining = job.remaining_run_seconds(pool.frequency_ghz)
        if (self.env.now + remaining > token + EPS
                and pool.cancel_job(job)):
            self.note_doomed_drop(job, pool.name)
            return True
        return False

    def any_cancelled(self, jobs: Iterable[Optional["Job"]]) -> bool:
        """True when one of ``jobs`` was killed (only a doom line kills)."""
        return (self.deadline is not None
                and any(getattr(job, "cancelled", False) for job in jobs))

    # ------------------------------------------------------------------
    # The kill path
    # ------------------------------------------------------------------
    @property
    def cancels_attempts(self) -> bool:
        """Kill hedged losers and timed-out attempts (else they run on as
        abandoned work)."""
        return self.deadline is not None

    def cancel_attempt(self, job: "Job", reason: str) -> bool:
        """Kill one in-flight attempt wherever it currently lives.

        Scans the cluster's nodes (deterministic order) for the pool or
        cold-start waiting room holding the job. Falls back to the old
        write-off semantics (``abandoned``: the attempt keeps executing)
        when no node can remove it — e.g. it completed in this very
        instant, or the node model exposes no pools.
        """
        if job.finished or job.aborted or job.cancelled:
            return False
        for node in self.cluster.nodes:
            if node.cancel_job(job):
                self._account_cancel(job, reason)
                return True
        job.abandoned = True
        return False

    def _account_cancel(self, job: "Job", reason: str) -> None:
        reclaimed = job.remaining_run_seconds(self._top_freq)
        self.metrics.cancelled_attempts += 1
        self.metrics.cancelled_energy_j += job.energy_j
        self.metrics.cancelled_reclaimed_s += reclaimed
        self.env.trace.instant(
            "cancel", FRONTEND_TRACK, job=job.job_id,
            function=job.function_name, reason=reason,
            charged_j=job.energy_j, reclaimed_s=reclaimed)

    def note_doomed_drop(self, job: "Job", pool: str) -> None:
        """Account one queued job dropped at dispatch (already removed)."""
        self._account_cancel(job, "doomed_queue")
        self.metrics.doomed_drops += 1
        self.env.trace.instant(
            "doomed_drop", FRONTEND_TRACK, job=job.job_id,
            function=job.function_name, pool=pool,
            doom_deadline_s=getattr(job, "doom_deadline_s", None))

    def note_workflow_doomed(self, benchmark: str, wf_uid: int,
                             stage_index: int, cause: str) -> None:
        """Declare one workflow doomed (its chain stops here)."""
        if wf_uid in self.doomed_workflow_uids:
            return
        self.doomed_workflow_uids.add(wf_uid)
        self.metrics.record_workflow_doomed(benchmark)
        self.env.trace.decision(
            "workflow_doomed", FRONTEND_TRACK,
            inputs={"benchmark": benchmark, "stage": stage_index,
                    "now": round(self.env.now, 6), "cause": cause},
            action={"doomed": True},
            alternatives=[{"continue": True,
                           "rejected": "the doom line already passed;"
                                       " remaining stages cannot meet"
                                       " the SLO"}],
            reason="deadline propagation: the workflow's doom line"
                   " passed before its chain finished",
            workflow_uid=wf_uid)

    def workflow_was_doomed(self, wf_uid: int) -> bool:
        return wf_uid in self.doomed_workflow_uids

    # ------------------------------------------------------------------
    # Retry budget (layered under ReliabilityPolicy)
    # ------------------------------------------------------------------
    def note_first_attempt(self) -> None:
        if self.budget is not None:
            self.budget.note_first_attempt(self.env.now)

    def allow_retry(self, function: str, attempt: int) -> bool:
        """Spend a retry token; False = the cluster budget is exhausted."""
        if self.budget is None:
            return True
        if self.budget.try_grant(self.env.now):
            return True
        self.metrics.retry_budget_denials += 1
        pool = self.budget.pool
        self.env.trace.decision(
            "retry_budget_exhausted", FRONTEND_TRACK,
            inputs={"function": function, "attempt": attempt,
                    "capacity": pool.capacity, "spent": pool.spent,
                    "refunded": pool.refunded},
            action={"retry": False},
            alternatives=[{"retry": True,
                           "rejected": "the cluster-wide retry-token"
                                       " window is spent"}],
            reason="adaptive retry budget: cluster retries are capped"
                   " at a ratio of first attempts per window")
        return False

    def refund_retry(self, function: str) -> None:
        """Retire a granted token whose retry never dispatched."""
        if self.budget is None:
            return
        self.budget.refund(self.env.now)
        self.metrics.retry_budget_refunds += 1
        self.env.trace.instant(
            "retry_budget_refund", FRONTEND_TRACK, function=function)
