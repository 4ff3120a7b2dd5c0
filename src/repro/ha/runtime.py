"""The per-cluster HA runtime: heartbeats, membership, leases, fencing.

One :class:`HARuntime` is created by a :class:`Cluster` whose config
carries an :class:`HAConfig`, and installed as ``env.ha`` alongside a
:class:`LinkTable` as ``env.links`` (the same opt-in pattern as
``env.trace`` / ``env.guard``). Every HA instrumentation point in the
platform checks for ``None`` first, so HA-off runs execute the pre-HA
code byte-for-byte.

Four periodic processes run while armed:

* per-node **heartbeat senders** — skipped while the node is down or its
  uplink to the frontend is cut, with flight time scaled by the node's
  RPC slowdown factor;
* the **detector sweep** — evaluates every node's phi against the
  membership state machine and accounts suspicions;
* the **lease loop** — the leader renews its epoch-numbered lease at
  half-lease cadence (only while it can exchange messages with the
  frontend) and reachable replicas gossip the current epoch, which
  demotes a healed stale leader;
* the **election loop** — on lease expiry, deterministically elects the
  lowest-id up/reachable replica under ``epoch + 1``.

All decisions are pure functions of simulation time and state — no
random draws — so suspicion timestamps, leader epochs, and the
re-dispatch journal are bit-repeatable across same-seed runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.ha.config import HAConfig
from repro.ha.controller import ControllerGroup, ControllerReplica
from repro.ha.detector import (
    ALIVE,
    DEAD,
    SUSPECTED,
    MembershipTable,
    PhiAccrualDetector,
)
from repro.ha.journal import IdempotencyKey, RedispatchJournal
from repro.ha.links import LinkTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.platform.job import Job
    from repro.platform.system import NodeSystem

#: Link-table endpoint of the dispatcher/frontend (the membership and
#: lease registries live there), matching the frontend trace track.
FRONTEND = "frontend"


class HARuntime:
    """The armed high-availability layer of one cluster."""

    def __init__(self, cluster: "Cluster", config: HAConfig):
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        self.metrics = cluster.metrics
        self.links = LinkTable()
        self.links.on_heal(self._link_healed)
        self.detector = PhiAccrualDetector(
            expected_interval_s=(config.heartbeat_period_s
                                 + config.heartbeat_latency_s),
            window=config.detector_window,
            min_std_s=config.min_interval_std_s)
        self.membership = MembershipTable(self.detector,
                                          config.phi_threshold,
                                          config.dead_after_s)
        self.controllers = ControllerGroup(n=config.n_controllers,
                                           lease_s=config.lease_s)
        self.journal = RedispatchJournal()
        #: Highest decision epoch each consumer endpoint has accepted.
        self._seen_epochs = {}
        self._change = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Install the env hooks and start the periodic HA processes."""
        self.env.links = self.links
        self.env.ha = self
        self.controllers.lease_expires_s = self.env.now + self.config.lease_s
        for node in self.cluster.nodes:
            self.detector.register(node.track, self.env.now)
            self.env.process(self._heartbeat_loop(node),
                             name=f"ha-heartbeat-{node.track}")
        self.env.process(self._detector_loop(), name="ha-detector")
        self.env.process(self._lease_loop(), name="ha-lease")
        self.env.process(self._election_loop(), name="ha-election")

    # ------------------------------------------------------------------
    # Change notification (wakes shepherd loops stuck on invisible jobs)
    # ------------------------------------------------------------------
    def change_event(self):
        """A rearmable event fired on any membership or link transition."""
        if self._change is None or self._change.triggered:
            self._change = self.env.event()
        return self._change

    def _notify_change(self) -> None:
        if self._change is not None and not self._change.triggered:
            self._change.succeed()

    def _link_healed(self, src: str, dst: str) -> None:
        self.env.trace.instant("ha_link_heal", FRONTEND, src=src, dst=dst)
        self._notify_change()

    # ------------------------------------------------------------------
    # Heartbeats + failure detection
    # ------------------------------------------------------------------
    def _heartbeat_loop(self, node: "NodeSystem"):
        period = self.config.heartbeat_period_s
        while True:
            yield self.env.timeout(period)
            if node.down or not self.links.delivers(node.track, FRONTEND):
                self.metrics.ha_heartbeats_lost += 1
                continue
            flight = self.config.heartbeat_latency_s * node.rpc_latency_scale()
            if flight > 0:
                yield self.env.timeout(flight)
            self.detector.heartbeat(node.track, self.env.now)

    def _detector_loop(self):
        period = self.config.heartbeat_period_s
        while True:
            yield self.env.timeout(period)
            now = self.env.now
            for node in self.cluster.nodes:
                name = node.track
                new_state = self.membership.evaluate(name, now)
                if new_state is None:
                    continue
                if new_state == SUSPECTED:
                    self._account_suspicion(node, now)
                elif new_state == ALIVE:
                    self.env.trace.instant("ha_alive", FRONTEND, node=name)
                elif new_state == DEAD:
                    self.env.trace.instant("ha_dead", FRONTEND, node=name)
                self._notify_change()

    def _account_suspicion(self, node: "NodeSystem", now: float) -> None:
        # False suspicion = the node process is actually alive (it may
        # still be partitioned — accrual detectors cannot tell a cut
        # link from a crash, which is exactly why duplicates need
        # fencing downstream).
        genuine = node.down
        self.metrics.ha_suspicions += 1
        if not genuine:
            self.metrics.ha_false_suspicions += 1
        last = self.detector.last_arrival(node.track)
        if last is not None:
            # Latency from the first missed heartbeat to the suspicion.
            expected = last + self.detector.expected_interval_s
            self.metrics.ha_suspicion_latencies_s.append(
                max(0.0, now - expected))
        self.env.trace.instant(
            "ha_suspect", FRONTEND, node=node.track, genuine=genuine,
            phi=round(self.detector.phi(node.track, now), 3))

    # ------------------------------------------------------------------
    # Leases, election, epoch fencing
    # ------------------------------------------------------------------
    def _lease_loop(self):
        group = self.controllers
        while True:
            yield self.env.timeout(self.config.lease_s * 0.5)
            leader = group.leader()
            if (not leader.down and leader.believes_leader
                    and self.links.reachable(leader.endpoint, FRONTEND)):
                group.renew(self.env.now)
                self.metrics.ha_lease_renewals += 1
            # Epoch gossip: every replica that can hear the frontend
            # learns the current epoch; a healed stale leader is demoted
            # the moment it is reachable again.
            for replica in group.replicas:
                if replica.down or not self.links.reachable(replica.endpoint,
                                                            FRONTEND):
                    continue
                if (replica.believes_leader
                        and replica.rid != group.leader_id):
                    self.env.trace.instant(
                        "ha_demote", FRONTEND, replica=replica.rid,
                        stale_epoch=replica.believed_epoch,
                        epoch=group.epoch)
                replica.believes_leader = (replica.rid == group.leader_id)
                replica.believed_epoch = group.epoch

    def _election_loop(self):
        group = self.controllers
        while True:
            yield self.env.timeout(self.config.election_period_s)
            now = self.env.now
            if not group.lease_expired(now):
                continue
            candidates = [r for r in group.replicas if not r.down
                          and self.links.reachable(r.endpoint, FRONTEND)]
            if not candidates:
                continue
            old = group.leader()
            lost_at = (old.down_at if old.down and old.down_at is not None
                       else group.lease_expires_s)
            winner = min(candidates, key=lambda r: r.rid)
            epoch = group.elect(winner, now)
            failover_s = max(0.0, now - lost_at)
            self.metrics.ha_failovers += 1
            self.metrics.ha_failover_times_s.append(failover_s)
            self.env.trace.instant(
                "ha_failover", FRONTEND, leader=winner.rid, epoch=epoch,
                failover_s=round(failover_s, 6))
            self.env.trace.counter(FRONTEND, "leader_epoch", epoch)
            audit = self.env.audit
            if audit is not None:
                audit.record(
                    "ha_failover", FRONTEND,
                    inputs={"candidates": [r.rid for r in candidates],
                            "old_leader": old.rid,
                            "old_leader_down": old.down,
                            "leader_lost_at_s": round(lost_at, 6)},
                    action={"leader": winner.rid, "epoch": epoch,
                            "failover_s": round(failover_s, 6)},
                    alternatives=[{"leader": r.rid,
                                   "rejected": "higher replica id"}
                                  for r in candidates if r is not winner],
                    reason="controller lease expired; lowest-id reachable"
                           " replica elected under a fresh epoch")
            self._notify_change()

    def controller_crash(self, rid: int) -> Optional[ControllerReplica]:
        replica = self.controllers.replicas[rid]
        if replica.down:
            return None
        self.controllers.crash(rid, self.env.now)
        self.env.trace.instant("ha_controller_crash", FRONTEND, replica=rid)
        return replica

    def controller_rejoin(self, rid: int) -> None:
        self.controllers.rejoin(rid)
        self.env.trace.instant("ha_controller_rejoin", FRONTEND, replica=rid)
        self._notify_change()

    def _authorize(self, endpoint: str, what: str) -> bool:
        """Epoch-fenced authorization of one control-plane decision.

        The consumer at ``endpoint`` asks every replica it can currently
        exchange messages with which claims leadership. Decisions are
        stamped with the deciding replica's *believed* epoch; the
        consumer accepts only the highest epoch it has ever seen, so a
        partitioned stale leader (old epoch) is fenced, and a consumer
        that can reach no believed leader at all freezes rather than act
        on stale authority.
        """
        believed = [r for r in self.controllers.replicas
                    if not r.down and r.believes_leader
                    and self.links.reachable(r.endpoint, endpoint)]
        seen = self._seen_epochs.get(endpoint, 0)
        if not believed:
            self.metrics.ha_frozen_decisions += 1
            self.env.trace.instant("ha_frozen", FRONTEND,
                                   consumer=endpoint, what=what)
            return False
        best = max(r.believed_epoch for r in believed)
        fence_at = max(best, seen)
        for replica in believed:
            if replica.believed_epoch < fence_at:
                self.metrics.ha_fenced_decisions += 1
                self.env.trace.instant(
                    "ha_fenced", FRONTEND, consumer=endpoint, what=what,
                    stale_epoch=replica.believed_epoch, epoch=fence_at)
        if best < seen:
            return False
        self._seen_epochs[endpoint] = best
        return True

    def authorize_resize(self, node: "NodeSystem") -> bool:
        """May this node apply a pool-resize decision right now?"""
        return self._authorize(node.track, "resize")

    def authorize_split(self, workflow_name: str) -> bool:
        """May the frontend recompute a workflow's MILP split right now?"""
        return self._authorize(FRONTEND, f"split:{workflow_name}")

    # ------------------------------------------------------------------
    # Membership-aware dispatch and recovery
    # ------------------------------------------------------------------
    def node_suspected(self, node: Optional["NodeSystem"]) -> bool:
        if node is None:
            return False
        return self.membership.state(node.track) != ALIVE

    def dispatchable(self, node: "NodeSystem") -> bool:
        """Should the frontend route new work to this node?"""
        return (self.membership.state(node.track) == ALIVE
                and self.links.delivers(FRONTEND, node.track))

    def result_visible(self, job: "Job") -> bool:
        """Can the frontend observe this job's completion right now?"""
        node = getattr(job, "ha_node", None)
        if node is None:
            return True
        return self.links.delivers(node.track, FRONTEND)

    def register_dispatch(self, key: Optional[IdempotencyKey]) -> None:
        if key is not None:
            self.journal.register(key, self.env.now)

    def redispatch_target(self, key: Optional[IdempotencyKey],
                          jobs: List["Job"],
                          exclude: Optional["NodeSystem"]):
        """A node to re-dispatch a stranded invocation to, or None.

        Authorised only when the journal still allows this key exactly
        once, at least one live copy sits on a suspected node, and a
        non-suspected target exists.
        """
        if not self.config.redispatch or key is None:
            return None
        if not self.journal.may_redispatch(key):
            return None
        live = [j for j in jobs if not j.aborted]
        if not live:
            return None
        if not any(self.node_suspected(getattr(j, "ha_node", None))
                   for j in live):
            return None
        target = self.cluster.pick_node(exclude=exclude)
        if target is None or self.node_suspected(target):
            return None
        self.journal.record_redispatch(key, self.env.now)
        self.metrics.ha_redispatches += 1
        self.env.trace.instant("ha_redispatch", FRONTEND, key=str(key),
                               to=target.track)
        audit = self.env.audit
        if audit is not None:
            stranded = sorted({
                node.track for node in
                (getattr(j, "ha_node", None) for j in live)
                if node is not None and self.node_suspected(node)})
            audit.record(
                "ha_redispatch", FRONTEND,
                inputs={"key": str(key), "live_copies": len(live),
                        "stranded_on": stranded},
                action={"to": target.track},
                alternatives=[{"to": None,
                               "rejected": "every live copy sits on a"
                                           " suspected node"}],
                reason="journal authorised one duplicate of the stranded"
                       " invocation on a non-suspected node",
                workflow_uid=key[0])
        return target

    def record_completion(self, key: Optional[IdempotencyKey],
                          jobs: List["Job"], winner: "Job") -> None:
        """Account the winning completion; fence surviving duplicates."""
        if key is None:
            return
        first = self.journal.record_completion(key, self.env.now)
        if not first:
            self.metrics.ha_duplicate_completions += 1
        if not self.journal.was_redispatched(key):
            return
        for job in jobs:
            if job is winner or job.aborted:
                continue
            # The shepherd abandons this copy; its late completion is a
            # fenced duplicate, not a second workflow completion.
            node = getattr(job, "ha_node", None)
            self.metrics.ha_duplicates_fenced += 1
            self.env.trace.instant(
                "ha_fence_duplicate", FRONTEND, key=str(key),
                node=node.track if node is not None else None)
