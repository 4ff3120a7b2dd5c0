"""The repro.guard determinism contract, pinned to stored fingerprints.

Two halves:

1. **Opt-in means untouched** — a cluster built with no ``GuardConfig``
   must reproduce the pre-guard seed code's outputs byte-for-byte. The
   reference fingerprints in ``tests/data/seed_fingerprint.json`` were
   captured before the guard subsystem existed; this suite recomputes
   them (including the chaos reference with a live fault plan and retry
   policy) and compares hex-for-hex.
2. **Guarded runs are still deterministic** — every guard decision is a
   pure function of simulation time and counters, so two guarded runs of
   the same seed produce identical fingerprints too.
"""

import pytest

from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.guard import GuardConfig
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy

from tests.fingerprints import (
    cluster_fingerprint,
    load_reference,
    reference_runs,
)


class TestGuardsOffMatchesSeed:
    """No GuardConfig == the pre-guard code path, to the byte."""

    @pytest.mark.parametrize("label", ["baseline", "ecofaas",
                                       "ecofaas_chaos", "baseline_medium",
                                       "powerctrl_medium"])
    def test_reference_fingerprint_is_reproduced(self, label):
        reference = load_reference()
        factory = dict(reference_runs())[label]
        assert cluster_fingerprint(factory()) == reference[label], (
            f"guards-off run {label!r} no longer matches the stored seed"
            f" fingerprint — an unguarded code path changed behaviour")

    def test_reference_file_covers_all_runs(self):
        assert set(load_reference()) == {label for label, _
                                         in reference_runs()}


def guarded_run(fault_plan=None, policy=None):
    config = ClusterConfig(n_servers=2, drain_s=4.0, reliability=policy,
                           guard=GuardConfig.full())
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                       make_load_trace("low", 2, 6.0, seed=3), config,
                       fault_plan=fault_plan)


class TestGuardedRunsAreDeterministic:
    def test_plain_guarded_run(self):
        assert (cluster_fingerprint(guarded_run())
                == cluster_fingerprint(guarded_run()))

    def test_guarded_chaos_run(self):
        """Full guards + the chaos reference's fault plan: still bitwise
        repeatable, including breaker and checkpoint activity."""
        policy = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05)

        def run():
            plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                        seed=5)
            return guarded_run(fault_plan=plan, policy=policy)

        first, second = run(), run()
        assert cluster_fingerprint(first) == cluster_fingerprint(second)
        # The guard layer actually did something in these runs (the
        # checkpointer at minimum), so the repeatability is not vacuous.
        assert first.metrics.checkpoints_taken > 0
        assert (first.metrics.checkpoints_taken
                == second.metrics.checkpoints_taken)

    def test_guarded_differs_from_unguarded_under_chaos(self):
        """Sanity: the guards are live, not a no-op, once configured."""
        policy = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05)
        plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"], seed=5)
        guarded = guarded_run(fault_plan=plan, policy=policy)
        assert guarded.metrics.checkpoints_taken > 0
