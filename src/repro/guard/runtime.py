"""The per-cluster guard runtime: wiring, accounting, trace emission.

Every :class:`Cluster` builds one (:mod:`repro.platform.layers`). An
unset ``ClusterConfig.guard`` builds it from an empty
:class:`GuardConfig`, with every guard off.

The runtime centralises three concerns so the mechanism classes stay
pure: reading cluster-wide signals (the EWT-per-core brownout input),
folding guard decisions into :class:`MetricsCollector` counters, and
emitting ``repro.obs`` instants for every decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.guard.admission import AdmissionController
from repro.guard.breaker import BreakerBoard, CircuitBreaker, CLOSED, OPEN
from repro.guard.checkpoint import CheckpointStore
from repro.guard.config import GuardConfig
from repro.guard.safemode import PredictionGuard

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster, ClusterConfig
    from repro.platform.metrics import MetricsCollector
    from repro.platform.system import NodeSystem
    from repro.sim.engine import Environment

#: Frontend trace track for guard decisions (matches reliability events).
FRONTEND_TRACK = "frontend"

#: Safe mode's label budget per deadline-split solve.
MILP_NODE_BUDGET = 2_000

#: Checkpoint and watchdog period, seconds.
CHECKPOINT_PERIOD_S = 1.0
#: The watchdog kicks a controller that has not refreshed for this many
#: of its configured periods.
WATCHDOG_FACTOR = 3.0


class GuardRuntime:
    """The guards of one cluster."""

    def __init__(self, env: "Environment", metrics: "MetricsCollector",
                 config: "ClusterConfig"):
        self.config = layer = config.guard or GuardConfig()
        self.env = env
        self.metrics = metrics
        self.cluster: Optional["Cluster"] = None
        self.admission: Optional[AdmissionController] = (
            AdmissionController(layer.admission)
            if layer.admission is not None else None)
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard(layer.breaker)
            if layer.breaker is not None else None)
        self.predictions: Optional[PredictionGuard] = (
            PredictionGuard() if layer.safe_mode else None)
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore() if layer.checkpoint else None)
        #: Last brownout level a decision was recorded for; the
        #: admission controller itself recomputes its level on every
        #: decision, so change detection has to live out here.
        self._audit_level = 0

    def arm(self, cluster: "Cluster") -> None:
        """Start the periodic guard processes (checkpointer + watchdog)."""
        self.cluster = cluster
        if self.checkpoints is not None:
            self.env.process(self._checkpoint_loop(), name="guard-checkpoint")

    # ------------------------------------------------------------------
    # Cluster-wide signals
    # ------------------------------------------------------------------
    def ewt_per_core_s(self) -> float:
        """Cluster backlog: summed pool EWT over the cluster's cores."""
        total_ewt = 0.0
        total_cores = 0
        for node in self.cluster.nodes:
            total_cores += node.server.n_cores
            if node.down:
                continue
            total_ewt += sum(pool.ewt_seconds for pool in node.iter_pools())
        if total_cores == 0:
            return 0.0
        return total_ewt / total_cores

    # ------------------------------------------------------------------
    # Admission (Cluster.submit_workflow)
    # ------------------------------------------------------------------
    def admit_workflow(self, benchmark: str) -> bool:
        """Admission decision for one arrival; False = shed (accounted)."""
        if self.admission is None:
            return True
        ewt = self.ewt_per_core_s()
        demoted = self.cluster.tenancy.demote_to_best_effort(benchmark)
        reason = self.admission.admit(benchmark, self.env.now, ewt,
                                      force_best_effort=demoted)
        trace = self.env.trace
        if self.admission.level != self._audit_level:
            trace.decision(
                "brownout_change", FRONTEND_TRACK,
                inputs={"ewt_per_core_s": round(ewt, 6),
                        "previous_level": self._audit_level},
                action={"level": self.admission.level},
                alternatives=[{"level": self._audit_level,
                               "rejected": "EWT crossed a threshold"}],
                reason="cluster EWT-per-core moved across the brownout"
                       " thresholds")
            self._audit_level = self.admission.level
        if reason is None:
            return True
        self.metrics.record_shed(benchmark, reason)
        if trace.enabled:
            # Not built untraced: the snapshot's token peek refills the
            # bucket, which could move later refills' float rounding.
            trace.decision(
                "admission_shed", FRONTEND_TRACK,
                inputs={"benchmark": benchmark,
                        "ewt_per_core_s": round(ewt, 6),
                        **self.admission.snapshot(benchmark, self.env.now)},
                action={"shed": reason},
                alternatives=[{"admit": True,
                               "rejected": f"shed policy: {reason}"}],
                reason="admission controller shed the arrival to protect"
                       " SLO-bearing work")
        return False

    # ------------------------------------------------------------------
    # Circuit breakers (Cluster._invoke_reliably)
    # ------------------------------------------------------------------
    def breaker_for(self, function_name: str) -> Optional[CircuitBreaker]:
        if self.breakers is None:
            return None
        return self.breakers.breaker(function_name)

    def breaker_allows(self, function_name: str) -> bool:
        """May an attempt of this function be dispatched now?

        A False return is a fast-fail: it is counted and traced here, and
        the caller gives up on the invocation without burning a retry.
        """
        breaker = self.breaker_for(function_name)
        if breaker is None or breaker.allow(self.env.now):
            return True
        self.metrics.breaker_fast_fails += 1
        self.env.trace.instant("breaker_fast_fail", FRONTEND_TRACK,
                               function=function_name)
        return False

    def record_attempt_failure(self, function_name: str,
                               node: Optional["NodeSystem"] = None) -> None:
        breaker = self.breaker_for(function_name)
        if breaker is None:
            return
        if node is not None and self.cluster.ha.node_suspected(node):
            # The membership table blames the node, not the function:
            # charging the breaker would fail the function cluster-wide
            # for one machine's partition or crash.
            self.metrics.breaker_node_blames += 1
            self.env.trace.instant("breaker_node_blame", FRONTEND_TRACK,
                                   function=function_name, node=node.track)
            return
        opens_before = breaker.open_count
        trace = self.env.trace
        snapshot = breaker.snapshot() if trace.enabled else None
        breaker.record_failure(self.env.now)
        if breaker.open_count > opens_before:
            self.metrics.breaker_opens += 1
            if trace.enabled:
                trace.decision(
                    "breaker_trip", FRONTEND_TRACK,
                    inputs={"function": function_name, **snapshot},
                    action={"state": OPEN,
                            "open_count": breaker.open_count},
                    alternatives=[{"state": CLOSED,
                                   "rejected": "windowed failure rate"
                                               " above the trip"
                                               " threshold"}],
                    reason="attempt failures tripped the circuit breaker;"
                           " further calls fail fast until the cooldown")

    def record_attempt_success(self, function_name: str) -> None:
        breaker = self.breaker_for(function_name)
        if breaker is not None:
            breaker.record_success(self.env.now)

    # ------------------------------------------------------------------
    # Safe mode (dispatcher + workflow controller)
    # ------------------------------------------------------------------
    @property
    def milp_node_budget(self) -> Optional[int]:
        return MILP_NODE_BUDGET if self.config.safe_mode else None

    def record_milp_fallback(self, workflow_name: str) -> None:
        self.metrics.milp_fallbacks += 1
        self.env.trace.instant("milp_fallback", FRONTEND_TRACK,
                               workflow=workflow_name)

    def sanitize_prediction(self, function_name: str, kind: str,
                            value: float, track: str) -> float:
        """Screen one prediction; pathological values are replaced."""
        if self.predictions is None:
            return value
        usable, violation = self.predictions.sanitize(function_name, kind,
                                                      value)
        if violation is not None:
            self.metrics.mispredictions += 1
            self.env.trace.instant(
                "mispredict", track, function=function_name, kind=kind,
                violation=violation)
        return usable

    def note_observation(self, function_name: str) -> None:
        if self.predictions is not None:
            self.predictions.note_observation(function_name, self.env.now)

    def dpt_stale(self, function_name: str) -> bool:
        return (self.predictions is not None
                and self.predictions.dpt_stale(function_name, self.env.now))

    def record_freq_pin(self, function_name: str, track: str) -> None:
        self.metrics.freq_pins += 1
        self.env.trace.instant("freq_pin", track, function=function_name)

    # ------------------------------------------------------------------
    # Checkpoints + watchdog
    # ------------------------------------------------------------------
    def _checkpoint_loop(self):
        while True:
            yield self.env.timeout(CHECKPOINT_PERIOD_S)
            for node in self.cluster.nodes:
                if node.down:
                    continue
                if node.watchdog_check(WATCHDOG_FACTOR):
                    self.metrics.watchdog_kicks += 1
                    self.env.trace.instant("watchdog_refresh", node.track)
                if self.checkpoints.take(node.server.server_id,
                                         self.env.now,
                                         node.checkpoint_state()):
                    self.metrics.checkpoints_taken += 1

    def maybe_restore(self, node: "NodeSystem") -> bool:
        """Reboot hook: resume the node from its freshest checkpoint."""
        if self.checkpoints is None:
            return False
        checkpoint = self.checkpoints.fresh(node.server.server_id,
                                            self.env.now)
        if checkpoint is None:
            stale = self.checkpoints.latest(node.server.server_id)
            if stale is not None:
                self.env.trace.instant(
                    "checkpoint_discard", node.track,
                    age_s=self.env.now - stale.taken_at_s)
            return False
        if not node.restore_state(dict(checkpoint.state)):
            return False
        self.metrics.checkpoint_restores += 1
        self.env.trace.instant(
            "checkpoint_restore", node.track,
            age_s=self.env.now - checkpoint.taken_at_s)
        return True
