"""The repro.ha determinism and recovery contract, end to end.

Runs the partition experiment's scenario (scaled down) under real load
and asserts the acceptance bar of the HA layer:

* same seed + same plan => bit-identical suspicion timestamps, leader
  epochs, re-dispatch journal, and run fingerprint;
* zero duplicate workflow completions across seeds — every late copy of
  a re-dispatched invocation is fenced;
* controller loss is healed within one lease period.

The HA-off "opt-in means untouched" half of the contract is pinned by
``test_guard_determinism.py``: its reference fingerprints were captured
before the HA layer existed and none of its runs configure one.
"""

import pytest

from repro.experiments.partition import ha_config, run_one

from tests.fingerprints import cluster_fingerprint, load_reference

#: Scaled-down scenario: long enough for the t=10 s partition, the
#: t=12 s controller crash, and the t=20 s asymmetric cut to land and
#: drain, short enough for the test suite.
DURATION_S = 28.0
N_SERVERS = 3


@pytest.fixture(scope="module")
def ha_runs():
    """Three runs of the partition scenario: seed 0 twice, seed 1 once."""
    return {
        "a": run_one(0, True, DURATION_S, N_SERVERS),
        "b": run_one(0, True, DURATION_S, N_SERVERS),
        "other_seed": run_one(1, True, DURATION_S, N_SERVERS),
    }


class TestHADeterminism:
    def test_same_seed_runs_are_bit_identical(self, ha_runs):
        a, b = ha_runs["a"], ha_runs["b"]
        assert a.ha.membership.snapshot() == b.ha.membership.snapshot()
        assert a.ha.controllers.snapshot() == b.ha.controllers.snapshot()
        assert a.ha.journal.snapshot() == b.ha.journal.snapshot()
        assert cluster_fingerprint(a) == cluster_fingerprint(b)
        # Run ``a`` is the stored ``ha_partition`` reference row.
        assert cluster_fingerprint(a) == load_reference()["ha_partition"]

    def test_the_repeatability_is_not_vacuous(self, ha_runs):
        """The compared artifacts actually contain HA activity."""
        a = ha_runs["a"]
        assert len(a.ha.membership.snapshot()) > 0
        assert len(a.ha.controllers.snapshot()) > 0
        assert a.metrics.ha_suspicions >= 1

    def test_seeds_differ(self, ha_runs):
        """Sanity: the fingerprint is sensitive to the seed."""
        assert (cluster_fingerprint(ha_runs["a"])
                != cluster_fingerprint(ha_runs["other_seed"]))


class TestHARecoveryAcceptance:
    @pytest.mark.parametrize("label", ["a", "other_seed"])
    def test_zero_duplicate_workflow_completions(self, ha_runs, label):
        cluster = ha_runs[label]
        assert cluster.metrics.ha_duplicate_completions == 0
        assert cluster.ha.journal.duplicate_completions == 0

    @pytest.mark.parametrize("label", ["a", "other_seed"])
    def test_controller_loss_healed_within_one_lease(self, ha_runs, label):
        cluster = ha_runs[label]
        lease_s = ha_config().lease_s
        assert cluster.metrics.ha_failovers >= 1
        assert all(t <= lease_s
                   for t in cluster.metrics.ha_failover_times_s)
        # The crash of ctl0 handed leadership to the lowest-id standby.
        election_times = [t for t, _, _ in cluster.ha.controllers.elections]
        assert cluster.ha.controllers.elections[0][1] == 1
        assert all(t >= 0 for t in election_times)

    @pytest.mark.parametrize("label", ["a", "other_seed"])
    def test_partitioned_work_is_redispatched_and_fenced(self, ha_runs,
                                                         label):
        cluster = ha_runs[label]
        metrics = cluster.metrics
        # The symmetric cut strands in-flight work on node1; the journal
        # re-dispatches it exactly once per idempotency key.
        assert metrics.ha_redispatches >= 1
        assert (cluster.ha.journal.redispatch_count()
                == metrics.ha_redispatches)
        # Every surviving original of a re-dispatched key was fenced.
        assert metrics.ha_duplicates_fenced >= 1
        # Both cut nodes stayed alive: their suspicions are all false
        # positives, which is exactly why the fencing must exist.
        assert metrics.ha_suspicions >= 2
        assert metrics.ha_false_suspicions == metrics.ha_suspicions

    @pytest.mark.parametrize("label", ["a", "other_seed"])
    def test_no_workflow_is_lost_to_the_partition(self, ha_runs, label):
        cluster = ha_runs[label]
        assert cluster.metrics.completed_workflows() > 0
        assert cluster.metrics.failed_workflows == 0
