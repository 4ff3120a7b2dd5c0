"""Replays a :class:`FaultPlan` into a running cluster.

Every scheduled fault becomes one ordinary ``repro.sim`` process, so chaos
runs replay bit-identically: the injector adds no randomness of its own,
and an empty plan spawns nothing at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.faults.plan import (
    CONTAINER_KILL,
    CONTROLLER_CRASH,
    DVFS_STALL,
    NETWORK_PARTITION,
    NODE_CRASH,
    RPC_SPIKE,
    FaultEvent,
    FaultPlan,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.platform.system import NodeSystem


class FaultInjector:
    """Drives a fault plan into one cluster as simulation processes."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.metrics = cluster.metrics
        #: ``(time_s, kind, node_index)`` log of faults actually applied
        #: (crashes on an already-down node, for example, are skipped).
        self.applied: List[Tuple[float, str, int]] = []
        # Active multiplicative factors per node, recomputed as products so
        # overlapping spikes compose and restore exactly.
        self._rpc_active: Dict[int, List[float]] = {}
        self._dvfs_active: Dict[int, List[float]] = {}

    def arm(self) -> None:
        """Spawn one driver process per scheduled fault."""
        for i, event in enumerate(self.plan.events):
            self.cluster.env.process(
                self._drive(event),
                name=f"fault-{i}-{event.kind}")

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------
    def _node(self, event: FaultEvent) -> Tuple[int, "NodeSystem"]:
        index = event.node % len(self.cluster.nodes)
        return index, self.cluster.nodes[index]

    def _drive(self, event: FaultEvent):
        env = self.cluster.env
        delay = event.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        if event.kind == NETWORK_PARTITION:
            yield from self._drive_partition(event)
            return
        if event.kind == CONTROLLER_CRASH:
            yield from self._drive_controller_crash(event)
            return
        index, node = self._node(event)
        if event.kind == NODE_CRASH:
            if node.down:
                return  # overlapping crash on a node already down
            lost = node.crash()
            self.metrics.record_crash(
                len(lost), sum(job.energy_j for job in lost))
            self.applied.append((env.now, NODE_CRASH, index))
            env.trace.instant(f"fault_{NODE_CRASH}", "faults", node=index,
                              jobs_lost=len(lost),
                              duration_s=event.duration_s)
            yield env.timeout(event.duration_s)
            node.reboot()
            self.metrics.record_recovery(event.duration_s)
            env.trace.instant("node_recovered", "faults", node=index,
                              downtime_s=event.duration_s)
        elif event.kind == CONTAINER_KILL:
            if node.down:
                return  # nothing to kill: the node itself is dead
            prior = node.kill_container(event.function)
            if prior != "cold":
                self.metrics.record_failure(CONTAINER_KILL)
                self.applied.append((env.now, CONTAINER_KILL, index))
                env.trace.instant(f"fault_{CONTAINER_KILL}", "faults",
                                  node=index, function=event.function,
                                  prior=prior)
        elif event.kind == RPC_SPIKE:
            self.metrics.record_failure(RPC_SPIKE)
            self.applied.append((env.now, RPC_SPIKE, index))
            env.trace.instant(f"fault_{RPC_SPIKE}", "faults", node=index,
                              magnitude=event.magnitude,
                              duration_s=event.duration_s)
            yield from self._windowed(node, self._rpc_active, index,
                                      event, "rpc_latency_factor")
        elif event.kind == DVFS_STALL:
            self.metrics.record_failure(DVFS_STALL)
            self.applied.append((env.now, DVFS_STALL, index))
            env.trace.instant(f"fault_{DVFS_STALL}", "faults", node=index,
                              magnitude=event.magnitude,
                              duration_s=event.duration_s)
            yield from self._windowed(node, self._dvfs_active, index,
                                      event, "dvfs_stall_factor")

    def _drive_partition(self, event: FaultEvent):
        """Cut the event's link(s) in the cluster's link table, then heal.

        The cluster refuses to build with a partition plan and no HA
        layer, so ``cluster.ha.links`` is always live here; cuts and
        heals go through the table's reference counts, which makes
        overlapping partitions compose exactly like overlapping latency
        spikes.
        """
        env = self.cluster.env
        side_a = event.endpoint or f"node{event.node % len(self.cluster.nodes)}"
        side_b = event.peer
        if event.direction == "out":
            pairs = [(side_a, side_b)]
        elif event.direction == "in":
            pairs = [(side_b, side_a)]
        else:
            pairs = [(side_a, side_b), (side_b, side_a)]
        self.metrics.record_failure(NETWORK_PARTITION)
        self.applied.append((env.now, NETWORK_PARTITION, event.node))
        env.trace.instant(f"fault_{NETWORK_PARTITION}", "faults",
                          a=side_a, b=side_b, direction=event.direction,
                          duration_s=event.duration_s)
        links = self.cluster.ha.links
        for src, dst in pairs:
            links.cut(src, dst)
        yield env.timeout(event.duration_s)
        for src, dst in pairs:
            links.heal(src, dst)
        env.trace.instant("partition_healed", "faults", a=side_a, b=side_b)

    def _drive_controller_crash(self, event: FaultEvent):
        """Crash a global-controller replica; rejoin after the downtime."""
        env = self.cluster.env
        ha = self.cluster.ha
        rid = event.node % ha.controllers.n
        if ha.controller_crash(rid) is None:
            return  # overlapping crash on a replica already down
        self.metrics.record_failure(CONTROLLER_CRASH)
        self.applied.append((env.now, CONTROLLER_CRASH, rid))
        env.trace.instant(f"fault_{CONTROLLER_CRASH}", "faults",
                          replica=rid, duration_s=event.duration_s)
        if event.duration_s <= 0:
            return  # permanent: the replica stays down for the run
        yield env.timeout(event.duration_s)
        ha.controller_rejoin(rid)

    def _windowed(self, node: "NodeSystem",
                  active: Dict[int, List[float]], index: int,
                  event: FaultEvent, attribute: str):
        """Apply a multiplicative factor for the event's window.

        The node attribute is always recomputed as the product of the
        currently active magnitudes, so overlapping windows compose and
        the factor returns to exactly 1.0 once all of them end.
        """
        factors = active.setdefault(index, [])
        factors.append(event.magnitude)
        setattr(node, attribute, math.prod(factors, start=1.0))
        yield self.cluster.env.timeout(event.duration_s)
        factors.remove(event.magnitude)
        setattr(node, attribute, math.prod(factors, start=1.0))
