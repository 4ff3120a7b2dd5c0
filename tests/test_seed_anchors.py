"""Seed-pinned simulated outcomes of five representative scenarios.

Baseline and EcoFaaS at low load, EcoFaaS under chaos, under guarded
overload, and through an HA partition. Each run is seed-pinned, so its
completed workflows, energy, p99 latency and SLO-miss rate must equal
the stored values exactly; any drift means simulated behaviour changed.
The overload (guard) and partition (HA, 60 s) runs are pinned nowhere
else.
"""

import pytest

from repro.baselines import BaselineSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import chaos as chaos_experiment
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults import FaultPlan
from repro.platform.cluster import ClusterConfig

DURATION_S = 8.0
N_SERVERS = 2
CORES = 20


def _low_load(system):
    trace = make_load_trace("low", N_SERVERS, DURATION_S, seed=3)
    return run_cluster(system, trace,
                       ClusterConfig(n_servers=N_SERVERS, seed=3))


def _chaos():
    trace = make_load_trace("medium", N_SERVERS, DURATION_S, seed=4)
    plan = FaultPlan.calibrated(
        duration_s=DURATION_S, n_servers=N_SERVERS,
        functions=chaos_experiment.all_function_names(), seed=5)
    config = ClusterConfig(
        n_servers=N_SERVERS, seed=4, drain_s=10.0,
        reliability=chaos_experiment.default_policy())
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config,
                       fault_plan=plan)


def _overload():
    trace = make_load_trace("high", N_SERVERS, DURATION_S, seed=6,
                            cores_per_server=CORES)
    config = ClusterConfig(
        n_servers=N_SERVERS, seed=6,
        guard=overload_experiment.guard_config(N_SERVERS, CORES))
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)


def _partition():
    return partition_experiment.run_one(
        seed=0, with_faults=True, duration_s=60.0, n_servers=3)


#: name -> (runner, (completed, energy_j, p99_latency_s, slo_miss_rate)).
ANCHORS = {
    "baseline_low": (lambda: _low_load(BaselineSystem()),
                     (130, 2330.046593, 4.130069, 0.130769)),
    "ecofaas_low": (lambda: _low_load(EcoFaaSSystem(EcoFaaSConfig())),
                    (130, 2310.111535, 3.631132, 0.061538)),
    "ecofaas_chaos": (_chaos, (305, 3823.215044, 4.927373, 0.114754)),
    "ecofaas_overload": (_overload,
                         (428, 3685.655985, 3.919018, 0.046729)),
    "ecofaas_partition": (_partition,
                          (1752, 18497.957966, 5.197552, 0.077626)),
}


@pytest.mark.parametrize("name", list(ANCHORS))
def test_simulated_metrics_match_stored_values(name):
    runner, expected = ANCHORS[name]
    cluster = runner()
    summary = cluster.metrics.bench_summary()
    assert (summary["completed"], round(cluster.total_energy_j, 6),
            summary["p99_latency_s"], summary["slo_miss_rate"]) == expected
