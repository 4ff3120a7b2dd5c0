"""The benchmark's workloads: seeded inputs and one batch simulation each.

Every workload is open-loop in simulated time: arrivals fire on their
schedule whatever the backlog, and a workflow's latency counts from its
scheduled arrival. On the host each simulation is one batch call.

Arrivals follow one of the paper's load levels (Section VII: a share of
the cluster's CPU capacity, benchmarks mixed uniformly) with each
benchmark's count pinned per one-second window: a Poisson process
conditioned on its per-window counts. The seed draws the arrival instants
inside each window, the invocation inputs and, where armed, the fault
schedule. Pinning the counts keeps the offered load identical from seed
to seed, so the host cost of a run varies with the seed far less than
with free Poisson counts.

This module imports the program lazily: the worker times those imports
as part of set-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

SERVERS = 3
CORES_PER_SERVER = 20
WINDOW_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a batch of independently seeded instances."""

    name: str
    system: str
    instances: int
    duration_s: float
    servers: int = SERVERS
    load: str = "medium"
    armed: bool = False


#: Why each workload exists is in README.md. At medium load, EcoFaaS's
#: pool controller drifts into seed-specific regimes once a trace runs
#: past about 15 s, and its host cost then varies by 10-25% from seed to
#: seed; eco_steady therefore pools two short traces. eco_long stays long
#: by running at low load, where that drift does not happen, on one
#: server: the workflow controllers re-solve the MILP on a simulated-time
#: cadence whatever the cluster size, so one server keeps a long trace
#: cheap on the host while the MILP's share of it grows.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("eco_steady", "EcoFaaS", instances=2, duration_s=10.0),
    Workload("baseline_steady", "Baseline", instances=1, duration_s=80.0),
    Workload("eco_long", "EcoFaaS", instances=2, duration_s=60.0,
             servers=1, load="low"),
    Workload("eco_armed", "EcoFaaS", instances=2, duration_s=12.0,
             armed=True),
)}

#: The layer-cost matrix: EcoFaaS on one 10 s trace with one opt-in
#: layer armed at a time, against the all-off arm.
MATRIX_DURATION_S = 10.0
MATRIX_ARMS = ("off", "trace", "ledger_audit", "fingerprints", "verify",
               "guard", "ha", "tenancy", "cancel", "faults")


def import_program() -> Any:
    """Import every program module a workload uses; returns ``repro``."""
    import repro
    import repro.baselines  # noqa: F401
    import repro.core  # noqa: F401
    import repro.experiments.chaos  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.experiments.overload  # noqa: F401
    import repro.experiments.tenancy  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.obs.export  # noqa: F401
    import repro.verify  # noqa: F401
    return repro


def instance_seeds(seed: int, index: int) -> Tuple[int, int, int]:
    """(trace, cluster, fault-plan) seeds of one instance of a batch."""
    import numpy as np
    trace_seed, cluster_seed, fault_seed = (
        np.random.SeedSequence([seed, index]).generate_state(3))
    return int(trace_seed), int(cluster_seed), int(fault_seed)


def make_trace(duration_s: float, seed: int, servers: int = SERVERS,
               load: str = "medium"):
    """Arrivals at ``load`` with every benchmark's per-window count pinned."""
    import numpy as np
    from repro.traces.poisson import LOAD_LEVELS, rate_for_utilization
    from repro.traces.trace import Trace, TraceEvent
    from repro.workloads.registry import all_benchmarks, benchmark_names
    names = benchmark_names()
    rate = rate_for_utilization(all_benchmarks(), LOAD_LEVELS[load],
                                total_cores=servers * CORES_PER_SERVER)
    per_window = rate * WINDOW_S / len(names)
    rng = np.random.default_rng(seed)
    events = []
    owed = 0.0
    for window in range(round(duration_s / WINDOW_S)):
        owed += per_window
        count = int(owed)
        owed -= count
        start = window * WINDOW_S
        for name in names:
            events.extend(TraceEvent(start + float(offset), name)
                          for offset in rng.uniform(0.0, WINDOW_S, count))
    return Trace(events, duration_s)


def _armed_config(cluster_seed: int, servers: int):
    from repro.cancel import CancelConfig
    from repro.experiments import chaos, overload
    from repro.ha import HAConfig
    from repro.platform.cluster import ClusterConfig
    return ClusterConfig(
        n_servers=servers, cores_per_server=CORES_PER_SERVER,
        seed=cluster_seed, drain_s=10.0,
        reliability=chaos.default_policy(),
        guard=overload.guard_config(servers, CORES_PER_SERVER),
        cancel=CancelConfig.full(), ha=HAConfig())


def _fault_plan(duration_s: float, fault_seed: int, servers: int):
    """The calibrated chaos mix without node crashes.

    Container kills, RPC spikes and DVFS stalls stay. A 2-5 s outage of
    one of three nodes in a 12 s trace moves the simulated outcome by
    10-25% from one seed to the next, more than any bound the benchmark
    can hold its metrics to.
    """
    from repro.experiments import chaos
    from repro.faults import FaultPlan
    return FaultPlan.calibrated(
        duration_s=duration_s, n_servers=servers,
        functions=chaos.all_function_names(), seed=fault_seed,
        crashes_per_node_hour=0.0, min_crashes=0)


def make_inputs(workload: Workload, seed: int) -> List[Dict[str, Any]]:
    """Every instance's trace, cluster config and fault plan."""
    from repro.platform.cluster import ClusterConfig
    inputs = []
    for index in range(workload.instances):
        trace_seed, cluster_seed, fault_seed = instance_seeds(seed, index)
        if workload.armed:
            config = _armed_config(cluster_seed, workload.servers)
            plan = _fault_plan(workload.duration_s, fault_seed,
                               workload.servers)
        else:
            config = ClusterConfig(n_servers=workload.servers,
                                   cores_per_server=CORES_PER_SERVER,
                                   seed=cluster_seed)
            plan = None
        trace = make_trace(workload.duration_s, trace_seed, workload.servers,
                           workload.load)
        inputs.append({"trace": trace, "config": config, "fault_plan": plan})
    return inputs


def make_system(name: str):
    from repro.baselines import BaselineSystem
    from repro.core import EcoFaaSSystem
    from repro.core.config import EcoFaaSConfig
    if name == "EcoFaaS":
        return EcoFaaSSystem(EcoFaaSConfig())
    if name == "Baseline":
        return BaselineSystem()
    raise ValueError(f"unknown system {name!r}")


def simulate(workload: Workload, inputs: List[Dict[str, Any]],
             artifact_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run the batch; returns its simulated summary.

    An armed workload also records a trace with the energy ledger and
    fingerprints, keeps the decision audit log, and writes all of their
    artifacts into ``artifact_dir``: that export is part of what a user
    of those layers waits for.
    """
    from repro.experiments.common import run_cluster

    def run_all():
        return [run_cluster(make_system(workload.system), item["trace"],
                            item["config"], fault_plan=item["fault_plan"],
                            label=f"instance{index}")
                for index, item in enumerate(inputs)]

    if not workload.armed:
        return summarize(run_all())
    from repro import obs
    from repro.obs import export
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    audit = obs.install_audit(obs.AuditLog())
    try:
        clusters = run_all()
    finally:
        obs.uninstall()
        obs.uninstall_audit()
    paths = {name: os.path.join(artifact_dir, name) for name in (
        "trace.json", "epochs.csv", "ledger.json", "audit.jsonl",
        "fingerprints.json")}
    export.write_chrome_trace(tracer, paths["trace.json"])
    export.write_epoch_metrics(tracer, paths["epochs.csv"])
    ledger = tracer.ledger.write(paths["ledger.json"])
    audit.write(paths["audit.jsonl"])
    tracer.fingerprint.write(paths["fingerprints.json"],
                             {"workload": workload.name,
                              "artifacts": sorted(paths)})
    summary = summarize(clusters)
    summary["ledger_conserved"] = all(run["conserved"]
                                      for run in ledger["runs"])
    return summary


def summarize(clusters) -> Dict[str, Any]:
    """The batch's simulated outcome; every value is seed-deterministic."""
    from repro.platform.metrics import percentile
    records = [r for c in clusters for r in c.metrics.workflow_records]
    functions = [r for c in clusters for r in c.metrics.function_records]
    lifecycle_ok = all(
        c.submitted_workflows == (len(c.metrics.workflow_records)
                                  + c.metrics.failed_workflows
                                  + c.metrics.shed_count() + c.inflight)
        for c in clusters)
    return {
        "energy_j": float(sum(c.total_energy_j for c in clusters)),
        "p99_latency_s": percentile([r.latency_s for r in records], 99.0),
        "submitted": sum(c.submitted_workflows for c in clusters),
        "completed": len(records),
        "met_slo": sum(1 for r in records if r.met_slo),
        "failed": sum(c.metrics.failed_workflows for c in clusters),
        "shed": sum(c.metrics.shed_count() for c in clusters),
        "inflight": sum(c.inflight for c in clusters),
        "invocations": len(functions),
        "cold_starts": sum(1 for r in functions if r.cold_start),
        "queue_wait_s": float(sum(r.t_queue_s for r in functions)),
        "lifecycle_ok": lifecycle_ok,
    }


# ---------------------------------------------------------------------------
# The layer-cost matrix
# ---------------------------------------------------------------------------
def matrix_run(arm: str, trace, seeds: Tuple[int, int, int]) -> None:
    """Run the matrix scenario with ``arm`` armed alone.

    The ledger and fingerprints record through the tracer, and HA
    recovers through the frontend's retry policy, so those arms carry
    their prerequisite too.
    """
    from dataclasses import replace

    from repro import obs, verify
    from repro.cancel import CancelConfig
    from repro.experiments import chaos, overload, tenancy
    from repro.experiments.common import run_cluster
    from repro.ha import HAConfig
    from repro.platform.cluster import ClusterConfig
    if arm not in MATRIX_ARMS:
        raise ValueError(f"unknown matrix arm {arm!r}")
    _, cluster_seed, fault_seed = seeds
    config = ClusterConfig(n_servers=SERVERS,
                           cores_per_server=CORES_PER_SERVER,
                           seed=cluster_seed)
    plan = None
    if arm == "guard":
        config = replace(config, guard=overload.guard_config(
            SERVERS, CORES_PER_SERVER))
    elif arm == "ha":
        config = replace(config, reliability=chaos.default_policy(),
                         ha=HAConfig())
    elif arm == "tenancy":
        config = replace(config, tenancy=tenancy.make_tenancy(SERVERS))
    elif arm == "cancel":
        config = replace(config, cancel=CancelConfig.full())
    elif arm == "faults":
        plan = _fault_plan(MATRIX_DURATION_S, fault_seed, SERVERS)
    tracer = audit = verifier = None
    if arm in ("trace", "ledger_audit", "fingerprints"):
        tracer = obs.install(obs.Tracer(
            ledger=obs.EnergyLedger() if arm == "ledger_audit" else None,
            fingerprint=(obs.FingerprintRecorder()
                         if arm == "fingerprints" else None)))
    if arm == "ledger_audit":
        audit = obs.install_audit(obs.AuditLog())
    if arm == "verify":
        verifier = verify.install(verify.Verifier())
    try:
        run_cluster(make_system("EcoFaaS"), trace, config, fault_plan=plan)
    finally:
        if tracer is not None:
            obs.uninstall()
        if audit is not None:
            obs.uninstall_audit()
        if verifier is not None:
            verify.uninstall()
    if verifier is not None and verifier.violations:
        raise RuntimeError(f"matrix arm verify: {len(verifier.violations)}"
                           f" invariant violation(s)")
