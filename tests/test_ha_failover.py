"""repro.ha wired through the cluster: failover, fencing, routing.

No workload traffic here — clusters are built with the HA layer armed,
state is manipulated directly through the link table and the controller
group, and time is advanced with ``env.run``. The headline acceptance
claims live in this file: a crashed leader is replaced within one lease
period by the deterministic lowest-id election, and a partitioned stale
leader's pool-resize decisions are fenced, never applied.

End-to-end runs under load (determinism, duplicate fencing) are in
``test_ha_integration.py``.
"""

import pytest

from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.faults import (
    CONTROLLER_CRASH,
    NETWORK_PARTITION,
    FaultEvent,
    FaultPlan,
)
from repro.ha import ALIVE, FRONTEND, SUSPECTED, HAConfig
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.sim import Environment

#: Short lease so failover fits in a few simulated seconds.
LEASE_S = 1.0


def build_ha_cluster(n_servers=3, fault_plan=None):
    env = Environment()
    config = ClusterConfig(
        n_servers=n_servers, drain_s=2.0,
        reliability=ReliabilityPolicy(max_retries=4, backoff_base_s=0.05),
        ha=HAConfig(lease_s=LEASE_S))
    return Cluster(env, EcoFaaSSystem(EcoFaaSConfig()), config,
                   fault_plan=fault_plan)


class TestConfigCoupling:
    def test_ha_requires_the_retry_machinery(self):
        env = Environment()
        with pytest.raises(ValueError, match="reliability"):
            Cluster(env, EcoFaaSSystem(EcoFaaSConfig()),
                    ClusterConfig(n_servers=2, ha=HAConfig()))

    @pytest.mark.parametrize("event", [
        FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=1,
                   duration_s=2.0),
        FaultEvent(time_s=1.0, kind=CONTROLLER_CRASH, node=0,
                   duration_s=2.0),
    ])
    def test_partition_faults_require_ha(self, event):
        env = Environment()
        with pytest.raises(ValueError, match="ClusterConfig.ha"):
            Cluster(env, EcoFaaSSystem(EcoFaaSConfig()),
                    ClusterConfig(n_servers=2),
                    fault_plan=FaultPlan((event,)))


class TestControllerFailover:
    def test_crash_failover_within_one_lease(self):
        cluster = build_ha_cluster()
        env, ha = cluster.env, cluster.ha
        env.run(until=0.6)
        ha.controller_crash(0)
        env.run(until=4.0)
        group = ha.controllers
        # Lowest-id up/reachable standby takes over under epoch 2. The
        # lease was last renewed at t=0.5, so it lapses at 1.5 and the
        # election tick there fires: failover 0.9 s after the crash.
        assert group.leader_id == 1
        assert group.epoch == 2
        assert group.snapshot() == ((pytest.approx(1.5), 1, 2),)
        assert cluster.metrics.ha_failovers == 1
        failover_s = cluster.metrics.ha_failover_times_s[0]
        assert failover_s == pytest.approx(0.9)
        assert failover_s <= LEASE_S
        assert cluster.metrics.ha_lease_renewals >= 1

    def test_rejoined_replica_is_a_standby_not_a_usurper(self):
        cluster = build_ha_cluster()
        env, ha = cluster.env, cluster.ha
        env.run(until=0.6)
        ha.controller_crash(0)
        env.run(until=4.0)
        ha.controller_rejoin(0)
        env.run(until=6.0)
        group = ha.controllers
        assert group.leader_id == 1 and group.epoch == 2
        ctl0 = group.replicas[0]
        assert not ctl0.down
        assert not ctl0.believes_leader
        # Epoch gossip caught the rejoined replica up.
        assert ctl0.believed_epoch == group.epoch


class TestEpochFencing:
    def partitioned_stale_leader(self):
        """A cluster where ctl0 is partitioned from the frontend, still
        believes it leads under epoch 1, and ctl1 holds epoch 2."""
        cluster = build_ha_cluster()
        env, ha = cluster.env, cluster.ha
        env.run(until=0.3)
        ha.links.cut("ctl0", FRONTEND)
        ha.links.cut(FRONTEND, "ctl0")
        env.run(until=2.0)
        group = ha.controllers
        assert group.leader_id == 1 and group.epoch == 2
        ctl0 = group.replicas[0]
        assert ctl0.believes_leader and ctl0.believed_epoch == 1
        return cluster

    def test_stale_claim_is_fenced_while_new_leader_reachable(self):
        cluster = self.partitioned_stale_leader()
        ha, node = cluster.ha, cluster.nodes[0]
        fenced_before = cluster.metrics.ha_fenced_decisions
        # The consumer hears both claimants: the epoch-1 claim is fenced,
        # the epoch-2 decision goes through.
        assert ha.authorize_resize(node)
        assert cluster.metrics.ha_fenced_decisions > fenced_before

    def test_stale_leader_alone_never_mutates_pool_state(self):
        cluster = self.partitioned_stale_leader()
        ha, node = cluster.ha, cluster.nodes[0]
        assert ha.authorize_resize(node)  # pins seen-epoch 2 at the node
        # Now sever the real leader (and the other standby) from this
        # node, leaving only the stale leader's claim audible.
        for endpoint in ("ctl1", "ctl2"):
            ha.links.cut(endpoint, node.track)
            ha.links.cut(node.track, endpoint)
        fenced_before = cluster.metrics.ha_fenced_decisions
        assert not ha.authorize_resize(node)
        assert cluster.metrics.ha_fenced_decisions > fenced_before

    def test_consumer_freezes_with_no_believed_leader(self):
        cluster = build_ha_cluster()
        ha, node = cluster.ha, cluster.nodes[0]
        # Only ctl0 believes it leads; cut it off from the node and no
        # authority is audible at all: freeze, don't act.
        ha.links.cut("ctl0", node.track)
        ha.links.cut(node.track, "ctl0")
        assert not ha.authorize_resize(node)
        assert cluster.metrics.ha_frozen_decisions == 1

    def test_split_authorization_uses_the_frontend_endpoint(self):
        cluster = self.partitioned_stale_leader()
        ha = cluster.ha
        # The frontend can hear the epoch-2 leader: splits may recompute.
        assert ha.authorize_split("VideoApp")
        # Cut it off and the frontend freezes the split too.
        ha.links.cut("ctl1", FRONTEND)
        ha.links.cut(FRONTEND, "ctl1")
        assert not ha.authorize_split("VideoApp")


class TestSuspectedNodeRouting:
    def test_dispatch_skips_suspected_nodes_until_revival(self):
        cluster = build_ha_cluster()
        env, ha = cluster.env, cluster.ha
        suspect = cluster.nodes[1]
        # Sever only the uplink: heartbeats vanish, dispatches deliver.
        ha.links.cut(suspect.track, FRONTEND)
        env.run(until=1.5)
        assert ha.membership.state(suspect.track) == SUSPECTED
        assert cluster.metrics.ha_suspicions == 1
        # The node process is alive — a cut link is a false suspicion.
        assert cluster.metrics.ha_false_suspicions == 1
        assert cluster.metrics.ha_heartbeats_lost > 0
        assert not ha.dispatchable(suspect)
        for _ in range(10):
            assert cluster.pick_node() is not suspect
        # Heal the uplink: heartbeats resume, the node is alive again
        # and dispatchable without any manual reset.
        ha.links.heal(suspect.track, FRONTEND)
        env.run(until=3.0)
        assert ha.membership.state(suspect.track) == ALIVE
        assert ha.dispatchable(suspect)

    def test_pick_node_falls_back_when_all_nodes_suspected(self):
        """Suspicion only *prefers* clean nodes; with every node suspect
        the frontend still routes rather than stalling the cluster."""
        cluster = build_ha_cluster()
        env, ha = cluster.env, cluster.ha
        for node in cluster.nodes:
            ha.links.cut(node.track, FRONTEND)
        env.run(until=1.5)
        assert all(ha.membership.state(n.track) == SUSPECTED
                   for n in cluster.nodes)
        assert cluster.pick_node() is not None


class TestInjectorDrivesHAFaults:
    def test_partition_and_controller_crash_events(self):
        plan = FaultPlan((
            FaultEvent(time_s=0.3, kind=NETWORK_PARTITION, node=1,
                       duration_s=0.6),
            FaultEvent(time_s=0.3, kind=CONTROLLER_CRASH, node=0,
                       duration_s=1.5),
        ))
        cluster = build_ha_cluster(fault_plan=plan)
        env, ha = cluster.env, cluster.ha
        env.run(until=4.0)
        assert cluster.metrics.failure_count(NETWORK_PARTITION) == 1
        assert cluster.metrics.failure_count(CONTROLLER_CRASH) == 1
        # The partition healed: both directions deliver again.
        assert ha.links.reachable("node1", FRONTEND)
        assert ha.links.cut_pairs() == []
        # The crashed leader failed over and rejoined as a standby.
        group = ha.controllers
        assert group.epoch == 2 and group.leader_id == 1
        assert not group.replicas[0].down
        assert cluster.metrics.ha_failovers == 1
