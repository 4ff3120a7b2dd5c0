"""Shared experiment infrastructure: result tables and standard runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs, verify
from repro.baselines import BaselineSystem, PowerCtrlSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.sim import Environment
from repro.traces.azure import (
    AzureTraceConfig,
    generate_azure_trace,
    map_to_benchmarks,
)
from repro.traces.poisson import (
    LOAD_LEVELS,
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace
from repro.workloads.model import FunctionModel
from repro.workloads.registry import all_benchmarks, benchmark_names

#: The three evaluated systems in the paper's presentation order.
SYSTEM_ORDER = ("Baseline", "Baseline+PowerCtrl", "EcoFaaS")


@dataclass
class ExperimentResult:
    """A reproduced table/figure: named rows of column → value."""

    name: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **columns: object) -> None:
        self.rows.append(columns)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]

    def row_for(self, **match: object) -> Dict[str, object]:
        """The first row whose columns match all of ``match``."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match} in {self.name}")

    def format_table(self) -> str:
        """Render the rows as a fixed-width text table."""
        if not self.rows:
            return f"{self.name}: (no rows)"
        columns = list(self.rows[0].keys())

        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        widths = {
            c: max(len(c), *(len(fmt(row.get(c, ""))) for row in self.rows))
            for c in columns
        }
        lines = [f"== {self.name}: {self.description} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append("  ".join(
                fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# System factories and standard runs
# ---------------------------------------------------------------------------
def make_systems(ecofaas_config: Optional[EcoFaaSConfig] = None) -> Dict[str, object]:
    """Fresh instances of the three evaluated systems."""
    return {
        "Baseline": BaselineSystem(),
        "Baseline+PowerCtrl": PowerCtrlSystem(),
        "EcoFaaS": EcoFaaSSystem(ecofaas_config or EcoFaaSConfig()),
    }


def _trace_counter_sampler(env, cluster, tracer):
    """Read-only periodic counters: per-node power draw, EWT, load.

    Armed only on traced runs; it mutates nothing and draws no random
    numbers, so metrics stay bit-identical to an untraced run.
    """
    while True:
        for node in cluster.nodes:
            track = f"node{node.server.server_id}"
            tracer.counter(track, "power_w", node.server.power_snapshot_w())
            tracer.counter(track, "ewt_s",
                           sum(pool.ewt_seconds
                               for pool in node.iter_pools()))
            tracer.counter(track, "outstanding", node.outstanding)
        yield env.timeout(tracer.counter_period_s)


def run_cluster(system, trace: Trace,
                config: Optional[ClusterConfig] = None,
                sample_period_s: Optional[float] = None,
                fault_plan=None, label: Optional[str] = None) -> Cluster:
    """Run one trace on one system; returns the finalized cluster.

    ``sample_period_s`` arms periodic frequency-timeline sampling on every
    server (the Fig. 14 data source). ``fault_plan`` arms deterministic
    fault injection (``repro.faults``); None or an empty plan leaves the
    run untouched. When a tracer is installed (``repro.obs``), the run is
    recorded as a new run scope named after the system — or ``label``,
    which experiment A/B arms pass so their fingerprints/manifests stay
    distinguishable.
    """
    env = Environment()
    if label is None:
        label = getattr(system, "name", type(system).__name__)
    tracer = obs.active_tracer()
    if tracer is not None:
        tracer.begin_run(label)
        tracer.bind(env)
    audit = obs.active_audit()
    if audit is not None:
        audit.begin_run(label)
        audit.bind(env)
    verifier = verify.active()
    if verifier is not None:
        # Invariant monitors (repro.verify): read-only checks of the
        # kernel clock, energy meters, breaker transitions, HA fencing,
        # and tenant budgets. Reads only — armed runs stay bit-identical.
        verifier.begin_run(label)
        verifier.bind(env)
    cluster = Cluster(env, system, config or ClusterConfig(),
                      fault_plan=fault_plan)
    if verifier is not None:
        verifier.arm(cluster)
    if tracer is not None:
        env.process(_trace_counter_sampler(env, cluster, tracer),
                    name="obs-counter-sampler")
    if sample_period_s is not None:
        def sampler():
            while True:
                for server in cluster.servers:
                    server.sample_timeline()
                yield env.timeout(sample_period_s)
        env.process(sampler(), name="freq-sampler")
    cluster.run_trace(trace)
    if verifier is not None:
        # End-of-run checks: workflow-lifecycle conservation, duplicate
        # completions, election-epoch monotonicity, plus a final sweep.
        verifier.close_run(cluster)
    if tracer is not None and tracer.ledger is not None:
        # Closing the run classifies this run's raw entries and checks
        # conservation against the hardware meters (raises on mismatch).
        tracer.ledger.close_run(cluster)
        if cluster.tenancy is not None:
            # Price the closed run into a per-tenant bill (repro.tenancy).
            cluster.tenancy.settle(tracer.ledger)
    if tracer is not None and tracer.fingerprint is not None:
        # Fold the run into per-epoch chain digests (repro.obs.fingerprint).
        # After the ledger close, so the energy chains see classified
        # entries; reads recorded state only.
        entry = tracer.fingerprint.close_run(cluster, tracer, audit=audit)
        if verifier is not None:
            # Self-check: the verify layer recomputes the chains from the
            # same recorded streams with its own inline hashing.
            verifier.check_fingerprints(tracer.fingerprint, entry, cluster)
    return cluster


def run_three_systems(trace: Trace, config: Optional[ClusterConfig] = None,
                      ecofaas_config: Optional[EcoFaaSConfig] = None,
                      sample_period_s: Optional[float] = None,
                      fault_plan=None) -> Dict[str, Cluster]:
    """Run the same trace on Baseline, Baseline+PowerCtrl, and EcoFaaS."""
    clusters = {}
    for name, system in make_systems(ecofaas_config).items():
        clusters[name] = run_cluster(system, trace, config, sample_period_s,
                                     fault_plan=fault_plan)
    return clusters


def make_load_trace(level: str, n_servers: int, duration_s: float,
                    seed: int = 1,
                    cores_per_server: int = 20) -> Trace:
    """The Section VII Poisson load at ``level`` in {low, medium, high}."""
    if level not in LOAD_LEVELS:
        raise ValueError(f"unknown load level {level!r}; "
                         f"expected one of {sorted(LOAD_LEVELS)}")
    rate = rate_for_utilization(
        all_benchmarks(), LOAD_LEVELS[level],
        total_cores=n_servers * cores_per_server)
    return generate_poisson_trace(PoissonLoadConfig(
        benchmark_names(), rate_rps=rate, duration_s=duration_s, seed=seed))


def make_azure_benchmark_trace(duration_s: float, seed: int = 0) -> Trace:
    """The Section VIII-A real-world-pattern trace mapped to benchmarks."""
    raw = generate_azure_trace(
        AzureTraceConfig.evaluation(duration_s=duration_s, seed=seed))
    return map_to_benchmarks(raw, benchmark_names())


# ---------------------------------------------------------------------------
# Micro-runs: one function on an unloaded fixed-frequency core
# ---------------------------------------------------------------------------
@dataclass
class MicroRun:
    """Mean unloaded service time and active energy of one function."""

    service_s: float
    run_s: float
    energy_j: float


def measure_unloaded(fn_model: FunctionModel, freq_ghz: float,
                     n_invocations: int = 20, seed: int = 0,
                     mem_time_multiplier: float = 1.0,
                     dispersion: float = 1.0) -> MicroRun:
    """Execute invocations back-to-back on one idle core at ``freq_ghz``.

    This drives the full core/scheduler machinery (not just the analytic
    model), so the Fig. 2/3 characterizations exercise the same code paths
    as the big experiments.
    """
    import numpy as np
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    core = Core(env, 0, power, meter, freq_ghz)
    pool = CorePoolScheduler(env, [core], frequency_ghz=freq_ghz,
                             context_switch_s=0.0)
    rng = np.random.default_rng(seed)
    jobs: List[Job] = []
    for i in range(n_invocations):
        spec = fn_model.sample_invocation(
            rng, dispersion=dispersion,
            mem_time_multiplier=mem_time_multiplier)
        job = Job(env, spec, fn_model.name, arrival_s=env.now)
        pool.submit(job)
        env.run()  # serial: one at a time, no queueing
        jobs.append(job)
    service = sum(j.latency_s for j in jobs) / len(jobs)
    run = sum(j.t_run for j in jobs) / len(jobs)
    energy = sum(j.energy_j for j in jobs) / len(jobs)
    return MicroRun(service_s=service, run_s=run, energy_j=energy)
