"""Seed-pinned runs that fix the kernel's same-instant event order.

The first group of runs has several arrivals at one instant.

Poisson traces almost never repeat a timestamp, so the stored seed rows
say nothing about how the trace driver orders same-instant arrivals.
These runs do: groups of up to seven arrivals share a timestamp, t=0
included, and guard admission is armed with brownout thresholds low
enough that one group's own starts would push the cluster EWT across
them. The driver admits every arrival of an instant before it starts
any of them, and a t=0 arrival starts after the nodes' own t=0 loops;
a driver that interleaved admissions with starts sheds a different set
of workflows and fails here.
"""

import pytest

from repro.baselines import BaselineSystem
from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.experiments.common import run_cluster
from repro.guard import GuardConfig
from repro.guard.config import AdmissionConfig
from repro.obs.fingerprint import cluster_fingerprint
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.traces.trace import Trace, TraceEvent

NAMES = ("WebServ", "ImgProc", "CNNServ", "LRServ", "MLTune", "DataAn",
         "eBook", "VidAn", "eBank")


def colliding_trace() -> Trace:
    """Six arrivals at t=0, then a group of 1-7 every 0.25 s."""
    events = [TraceEvent(0.0, name) for name in
              ("WebServ", "MLTune", "eBook", "ImgProc", "WebServ", "DataAn")]
    for k in range(1, 24):
        for i in range(1 + (k * 5) % 7):
            name = NAMES[(k * 3 + i) % len(NAMES)]
            events.append(TraceEvent(0.25 * k, name))
    return Trace(events, 6.5)


def run(system, reliability=None):
    guard = GuardConfig(admission=AdmissionConfig(
        rate_rps=4.0, burst=3.0, brownout_ewt_s=(0.02, 0.08),
        best_effort=("WebServ", "ImgProc", "eBook")))
    return run_cluster(system, colliding_trace(), ClusterConfig(
        n_servers=2, cores_per_server=4, seed=11, drain_s=4.0,
        guard=guard, reliability=reliability))


#: label -> (runner, (completed, shed, fingerprint)).
PINNED = {
    "ecofaas_direct": (
        lambda: run(EcoFaaSSystem(EcoFaaSConfig())),
        (72, 23, "43e31e13ac4deb079eef9ea04cd5b04e"
                 "59d9742f649cbd79e5606454d8e7d0d9")),
    "baseline_direct": (
        lambda: run(BaselineSystem()),
        (14, 36, "610c4c1091eb96e77ec543caf73a1530"
                 "19ae959ef59c9a2364f882352e12e550")),
    "ecofaas_reliable": (
        lambda: run(EcoFaaSSystem(EcoFaaSConfig()), ReliabilityPolicy()),
        (77, 19, "76d04870219d83ff6a92b9ec7bc28108"
                 "12d7d827edf4bb51eb6537cea51d8e4d")),
}


@pytest.mark.parametrize("label", list(PINNED))
def test_same_instant_arrivals_match_stored_fingerprint(label):
    runner, expected = PINNED[label]
    cluster = runner()
    metrics = cluster.metrics
    assert metrics.shed_count() > 0  # admission really decided something
    assert (len(metrics.workflow_records), metrics.shed_count(),
            cluster_fingerprint(cluster)) == expected


def test_stage_advance_keeps_the_completion_event_position():
    """Fuzz trial 112 at seed 7 is a reliable-path run in which another
    event is due at the instant a stage's last attempt loop ends. The
    next stage must start where the stage-completion event fired, after
    that event, not inside the loop's own end."""
    from repro.verify.fuzz import run_trial, sample_spec
    result = run_trial(sample_spec(112, 7))
    assert result["violations"] == []
    assert result["fingerprint"] == (
        "cb43d06b571254572a3b072075bdcaed964b58b59b78fdb2ffea4b40e8ce53e6")
