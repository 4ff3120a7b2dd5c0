"""The per-cluster guard runtime: wiring, accounting, trace emission.

One :class:`GuardRuntime` is created by a :class:`Cluster` whose config
carries a :class:`GuardConfig`, and installed as ``env.guard`` (the same
pattern as ``env.trace``). Every instrumentation point in the platform
checks ``guard is None`` first, so unguarded runs execute the pre-guard
code byte-for-byte.

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
    from repro.platform.cluster import Cluster
    from repro.platform.system import NodeSystem

#: Frontend trace track for guard decisions (matches reliability events).
FRONTEND_TRACK = "frontend"


class GuardRuntime:
    """All armed guards of one cluster."""

    def __init__(self, cluster: "Cluster", config: GuardConfig):
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        self.metrics = cluster.metrics
        self.admission: Optional[AdmissionController] = (
            AdmissionController(config.admission)
            if config.admission is not None else None)
        self.breakers: Optional[BreakerBoard] = (
            BreakerBoard(config.breaker)
            if config.breaker is not None else None)
        self.predictions: Optional[PredictionGuard] = (
            PredictionGuard(config.safe_mode)
            if config.safe_mode is not None else None)
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore(config.checkpoint)
            if config.checkpoint is not None else None)
        #: Last brownout level an audit record was written for; the
        #: admission controller itself recomputes its level on every
        #: decision, so change detection has to live out here.
        self._audit_level = 0

    def arm(self) -> None:
        """Start the periodic guard processes (checkpointer + watchdog)."""
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
        tenancy = getattr(self.env, "tenancy", None)
        demoted = (tenancy is not None
                   and tenancy.demote_to_best_effort(benchmark))
        reason = self.admission.admit(benchmark, self.env.now, ewt,
                                      force_best_effort=demoted)
        audit = self.env.audit
        if audit is not None and self.admission.level != self._audit_level:
            audit.record(
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
        self.env.trace.instant(
            "shed", FRONTEND_TRACK, benchmark=benchmark, reason=reason,
            brownout_level=self.admission.level)
        if audit is not None:
            audit.record(
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
        ha = getattr(self.env, "ha", None)
        if ha is not None and node is not None and ha.node_suspected(node):
            # The membership table blames the node, not the function:
            # charging the breaker would fail the function cluster-wide
            # for one machine's partition or crash.
            self.metrics.breaker_node_blames += 1
            self.env.trace.instant("breaker_node_blame", FRONTEND_TRACK,
                                   function=function_name, node=node.track)
            return
        opens_before = breaker.open_count
        audit = self.env.audit
        snapshot = breaker.snapshot() if audit is not None else None
        breaker.record_failure(self.env.now)
        if breaker.open_count > opens_before:
            self.metrics.breaker_opens += 1
            self.env.trace.instant("breaker_open", FRONTEND_TRACK,
                                   function=function_name,
                                   opens=breaker.open_count)
            if audit is not None:
                audit.record(
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

    def record_attempt_success(self, function_name: str,
                               met_deadline: bool) -> None:
        breaker = self.breaker_for(function_name)
        if breaker is None:
            return
        if (self.breakers.config.count_deadline_misses and not met_deadline):
            self.record_attempt_failure(function_name)
            return
        was_open = breaker.state == OPEN
        breaker.record_success(self.env.now)
        if was_open or breaker.state != "closed":
            return
        # (No instant for routine successes; only state transitions.)

    # ------------------------------------------------------------------
    # Safe mode (dispatcher + workflow controller)
    # ------------------------------------------------------------------
    @property
    def milp_node_budget(self) -> Optional[int]:
        if self.config.safe_mode is None:
            return None
        return self.config.safe_mode.milp_node_budget

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
        config = self.config.checkpoint
        while True:
            yield self.env.timeout(config.period_s)
            for node in self.cluster.nodes:
                if node.down:
                    continue
                if node.watchdog_check(config.watchdog_factor):
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
