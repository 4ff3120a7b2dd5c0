"""repro.ha mechanism unit tests: links, the phi detector, membership,
the re-dispatch journal, the controller group, and config/plan
validation.

Everything here exercises the pure state classes directly — no
simulation. The cluster-level wiring is covered by
``test_ha_failover.py`` and the determinism contract by
``test_ha_integration.py``.
"""

import math

import pytest

from repro.faults.plan import (
    CONTROLLER_CRASH,
    NETWORK_PARTITION,
    FaultEvent,
    FaultPlan,
)
from repro.ha import (
    ALIVE,
    DEAD,
    SUSPECTED,
    ControllerGroup,
    HAConfig,
    LinkTable,
    MembershipTable,
    PhiAccrualDetector,
    RedispatchJournal,
)


class TestLinkTable:
    def test_everything_delivers_by_default(self):
        links = LinkTable()
        assert links.delivers("node0", "frontend")
        assert links.reachable("ctl0", "frontend")
        assert links.cut_pairs() == []

    def test_cuts_are_directed(self):
        links = LinkTable()
        links.cut("node1", "frontend")
        assert not links.delivers("node1", "frontend")
        assert links.delivers("frontend", "node1")
        # A one-way cut already breaks the round trip.
        assert not links.reachable("node1", "frontend")

    def test_overlapping_cuts_compose_by_refcount(self):
        links = LinkTable()
        links.cut("a", "b")
        links.cut("a", "b")
        links.heal("a", "b")
        assert not links.delivers("a", "b")
        links.heal("a", "b")
        assert links.delivers("a", "b")

    def test_heal_of_uncut_link_raises(self):
        with pytest.raises(ValueError):
            LinkTable().heal("a", "b")

    def test_heal_callback_fires_only_at_full_heal(self):
        links = LinkTable()
        healed = []
        links.on_heal(lambda src, dst: healed.append((src, dst)))
        links.cut("a", "b")
        links.cut("a", "b")
        links.heal("a", "b")
        assert healed == []
        links.heal("a", "b")
        assert healed == [("a", "b")]

    def test_cut_pairs_sorted(self):
        links = LinkTable()
        links.cut("node2", "frontend")
        links.cut("ctl0", "frontend")
        assert links.cut_pairs() == [("ctl0", "frontend"),
                                     ("node2", "frontend")]


class TestPhiAccrualDetector:
    def make(self, expected=0.25, window=8, min_std=0.02):
        return PhiAccrualDetector(expected_interval_s=expected,
                                  window=window, min_std_s=min_std)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector(expected_interval_s=0.0)

    def test_unknown_member_is_unsuspicious(self):
        assert self.make().phi("ghost", 10.0) == 0.0

    def test_zero_phi_within_expected_interval(self):
        detector = self.make()
        detector.register("node0", 0.0)
        assert detector.phi("node0", 0.2) == 0.0

    def test_phi_grows_with_silence_and_is_capped(self):
        detector = self.make()
        detector.register("node0", 0.0)
        samples = [detector.phi("node0", t) for t in (0.3, 0.5, 1.0, 5.0)]
        assert samples == sorted(samples)
        assert samples[-1] == 300.0  # the cap, not inf

    def test_heartbeat_resets_suspicion(self):
        detector = self.make()
        detector.register("node0", 0.0)
        assert detector.phi("node0", 2.0) > 8.0
        detector.heartbeat("node0", 2.0)
        assert detector.phi("node0", 2.1) == 0.0
        assert detector.last_arrival("node0") == 2.0

    def test_regular_heartbeats_keep_std_floored(self):
        """Metronome heartbeats must not make the detector hair-triggered:
        the floored std means one expected interval of silence is still
        phi 0, while a few intervals cross any practical threshold."""
        detector = self.make(expected=0.25, min_std=0.02)
        detector.register("node0", 0.0)
        for i in range(1, 11):
            detector.heartbeat("node0", i * 0.25)
        assert detector.phi("node0", 2.5 + 0.25) == 0.0
        assert detector.phi("node0", 2.5 + 1.0) > 8.0


class TestMembershipTable:
    def make(self):
        detector = PhiAccrualDetector(expected_interval_s=0.25,
                                      min_std_s=0.02)
        table = MembershipTable(detector, phi_threshold=8.0,
                                dead_after_s=1.0)
        detector.register("node0", 0.0)
        return detector, table

    def test_alive_suspected_dead_revive_cycle(self):
        detector, table = self.make()
        assert table.state("node0") == ALIVE
        assert table.evaluate("node0", 0.2) is None
        assert table.evaluate("node0", 1.0) == SUSPECTED
        assert table.suspected_at("node0") == 1.0
        # Not yet dead_after_s past the suspicion.
        assert table.evaluate("node0", 1.5) is None
        assert table.evaluate("node0", 2.0) == DEAD
        detector.heartbeat("node0", 2.1)
        assert table.evaluate("node0", 2.2) == ALIVE
        assert table.suspected_at("node0") is None
        assert table.transitions == [(1.0, "node0", SUSPECTED),
                                     (2.0, "node0", DEAD),
                                     (2.2, "node0", ALIVE)]

    def test_snapshot_is_immutable_copy(self):
        _, table = self.make()
        table.evaluate("node0", 1.0)
        snap = table.snapshot()
        assert snap == ((1.0, "node0", SUSPECTED),)
        assert isinstance(snap, tuple)


class TestRedispatchJournal:
    KEY = (7, 1, 0)

    def test_register_is_idempotent(self):
        journal = RedispatchJournal()
        journal.register(self.KEY, 1.0)
        journal.register(self.KEY, 2.0)
        assert journal.entry(self.KEY).registered_s == 1.0

    def test_exactly_one_redispatch_per_key(self):
        journal = RedispatchJournal()
        assert not journal.may_redispatch(self.KEY)  # never registered
        journal.register(self.KEY, 1.0)
        assert journal.may_redispatch(self.KEY)
        journal.record_redispatch(self.KEY, 2.0)
        assert not journal.may_redispatch(self.KEY)
        assert journal.was_redispatched(self.KEY)
        with pytest.raises(ValueError):
            journal.record_redispatch(self.KEY, 3.0)

    def test_completion_blocks_redispatch(self):
        journal = RedispatchJournal()
        journal.register(self.KEY, 1.0)
        assert journal.record_completion(self.KEY, 2.0)
        assert not journal.may_redispatch(self.KEY)

    def test_duplicate_completion_is_flagged(self):
        journal = RedispatchJournal()
        journal.register(self.KEY, 1.0)
        assert journal.record_completion(self.KEY, 2.0)
        assert not journal.record_completion(self.KEY, 3.0)
        assert journal.duplicate_completions == 1
        entry = journal.entry(self.KEY)
        assert entry.completions == 2
        assert entry.completed_s == 2.0  # the first completion wins

    def test_snapshot_sorted_by_key(self):
        journal = RedispatchJournal()
        journal.register((2, 0, 0), 1.0)
        journal.register((1, 0, 0), 2.0)
        journal.record_redispatch((1, 0, 0), 3.0)
        assert journal.redispatch_count() == 1
        assert journal.snapshot() == (
            ((1, 0, 0), 2.0, 3.0, None, 0),
            ((2, 0, 0), 1.0, None, None, 0),
        )


class TestControllerGroup:
    def test_initial_state(self):
        group = ControllerGroup(n=3, lease_s=2.0)
        assert [r.endpoint for r in group.replicas] == ["ctl0", "ctl1",
                                                        "ctl2"]
        assert group.leader().rid == 0
        assert group.epoch == 1
        assert group.leader().believes_leader
        assert group.lease_expires_s == 2.0

    def test_lease_renewal_and_expiry(self):
        group = ControllerGroup(n=3, lease_s=2.0)
        assert not group.lease_expired(1.9)
        assert group.lease_expired(2.0)
        group.renew(3.0)
        assert not group.lease_expired(4.9)

    def test_election_bumps_epoch_and_logs(self):
        group = ControllerGroup(n=3, lease_s=2.0)
        epoch = group.elect(group.replicas[2], now=5.0)
        assert epoch == 2
        assert group.leader().rid == 2
        assert group.replicas[2].believed_epoch == 2
        assert group.lease_expires_s == 7.0
        assert group.snapshot() == ((5.0, 2, 2),)

    def test_crash_clears_belief(self):
        """A crashed process holds no beliefs — only partitioned replicas
        can act as stale leaders."""
        group = ControllerGroup(n=3, lease_s=2.0)
        group.crash(0, now=1.0)
        replica = group.replicas[0]
        assert replica.down and replica.down_at == 1.0
        assert not replica.believes_leader
        group.rejoin(0)
        assert not group.replicas[0].down
        assert not group.replicas[0].believes_leader


class TestHAConfigValidation:
    def test_defaults_are_valid(self):
        HAConfig()

    @pytest.mark.parametrize("kwargs", [
        {"phi_threshold": -1.0},
        {"phi_threshold": float("nan")},
        {"dead_after_s": float("inf")},
        {"phi_threshold": 0.0},
        {"n_controllers": -1},
        {"dead_after_s": -1.0},
        {"dead_after_s": 0.0},
        {"n_controllers": 0},
        {"lease_s": 0.0},
        {"lease_s": float("inf")},
        {"lease_s": float("nan")},
        # The lease must outlive the standbys' expiry-check period.
        {"lease_s": 0.25},
    ])
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(ValueError):
            HAConfig(**kwargs)


class TestPartitionFaultValidation:
    def test_partition_needs_a_heal_time(self):
        with pytest.raises(ValueError, match="positive heal time"):
            FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=1)

    def test_partition_direction_is_checked(self):
        with pytest.raises(ValueError, match="direction"):
            FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=1,
                       duration_s=2.0, direction="sideways")

    def test_partition_needs_distinct_endpoints(self):
        with pytest.raises(ValueError, match="distinct"):
            FaultEvent(time_s=1.0, kind=NETWORK_PARTITION,
                       duration_s=2.0, endpoint="ctl0", peer="ctl0")
        with pytest.raises(ValueError, match="peer"):
            FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=1,
                       duration_s=2.0, peer="")

    def test_endpoint_a_defaults_to_node_track(self):
        event = FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=2,
                           duration_s=2.0)
        assert event.endpoint_a() == "node2"
        override = FaultEvent(time_s=1.0, kind=NETWORK_PARTITION,
                              duration_s=2.0, endpoint="ctl1")
        assert override.endpoint_a() == "ctl1"

    def test_controller_crash_may_be_permanent(self):
        # duration 0 = the replica stays down for the rest of the run.
        FaultEvent(time_s=1.0, kind=CONTROLLER_CRASH, node=0)

    def test_plan_kind_properties(self):
        plan = FaultPlan((
            FaultEvent(time_s=1.0, kind=NETWORK_PARTITION, node=1,
                       duration_s=2.0),
            FaultEvent(time_s=2.0, kind=CONTROLLER_CRASH, node=0),
        ))
        assert plan.has_partitions
        assert plan.has_controller_crashes
        assert not plan.has_node_crashes
        assert not FaultPlan.none().has_partitions


class TestCalibratedPlanValidation:
    @pytest.mark.parametrize("bad_rate", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rates_raise(self, bad_rate):
        with pytest.raises(ValueError, match="finite non-negative"):
            FaultPlan.calibrated(60.0, 2, ["WebServ"],
                                 spikes_per_hour=bad_rate)

    def test_zero_rates_are_legal(self):
        plan = FaultPlan.calibrated(60.0, 2, ["WebServ"],
                                    crashes_per_node_hour=0.0,
                                    kills_per_node_hour=0.0,
                                    spikes_per_hour=0.0,
                                    stalls_per_hour=0.0,
                                    min_crashes=1)
        assert plan.count() == 1  # the min_crashes floor

    def test_every_event_lands_inside_the_run(self):
        duration = 45.0
        plan = FaultPlan.calibrated(duration, 3, ["WebServ", "CNNServ"],
                                    seed=9)
        assert plan.count() > 0
        assert all(0.0 <= e.time_s <= duration for e in plan.events)
        assert not math.isnan(sum(e.time_s for e in plan.events))
