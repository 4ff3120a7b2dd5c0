"""Energy-attribution ledger: conservation, classification, epochs.

The load-bearing property: across seeds and operating regimes (plain,
chaos faults, guarded overload, HA partition), the classified ledger
components sum to the hardware energy model's total within the 1e-6
relative tolerance. That attaching a ledger never perturbs the
simulation itself is one column of ``tests/test_obs_determinism.py``.
"""

import pytest

from repro import obs
from repro.baselines import PowerCtrlSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.obs.ledger import EnergyConservationError, EnergyLedger, LedgerEntry
from repro.obs.registry import LEDGER_COMPONENTS
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy


def ecofaas():
    return EcoFaaSSystem(EcoFaaSConfig())


def scenario(name, seed):
    """(system_factory, trace, config, fault_plan) for one regime."""
    if name == "plain":
        return (ecofaas(), make_load_trace("low", 2, 6.0, seed=seed),
                ClusterConfig(n_servers=2, seed=seed, drain_s=4.0), None)
    if name == "chaos":
        plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                    seed=seed + 2)
        config = ClusterConfig(
            n_servers=2, seed=seed, drain_s=4.0,
            reliability=ReliabilityPolicy(max_retries=8,
                                          backoff_base_s=0.05))
        return (ecofaas(), make_load_trace("low", 2, 6.0, seed=seed),
                config, plan)
    if name == "overload":
        config = ClusterConfig(
            n_servers=2, seed=seed,
            guard=overload_experiment.guard_config(2, 20))
        return (ecofaas(),
                make_load_trace("high", 2, 6.0, seed=seed,
                                cores_per_server=20),
                config, None)
    assert name == "partition"
    config = ClusterConfig(
        n_servers=3, seed=seed, drain_s=8.0,
        reliability=partition_experiment.reliability_policy(),
        ha=partition_experiment.ha_config())
    return (ecofaas(), make_load_trace("low", 3, 16.0, seed=seed + 1),
            config, partition_experiment.partition_plan())


def run_with_ledger(name, seed):
    system, trace, config, plan = scenario(name, seed)
    ledger = EnergyLedger()
    obs.install(obs.Tracer(ledger=ledger))
    try:
        cluster = run_cluster(system, trace, config, fault_plan=plan)
    finally:
        obs.uninstall()
    return cluster, ledger


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name",
                         ["plain", "chaos", "overload", "partition"])
def test_components_sum_to_hardware_energy(name, seed):
    cluster, ledger = run_with_ledger(name, seed)
    assert len(ledger.reports) == 1
    report = ledger.reports[0]
    assert report.ok
    assert report.rel_error <= EnergyLedger.TOLERANCE
    assert report.hardware_j == cluster.total_energy_j
    total = sum(report.by_component.values())
    assert total == pytest.approx(report.hardware_j, rel=1e-6)
    assert set(report.by_component) == set(LEDGER_COMPONENTS)
    for component, joules in report.by_component.items():
        assert joules >= 0.0, component


def test_chaos_attributes_retry_waste():
    _, ledger = run_with_ledger("chaos", 3)
    assert ledger.reports[0].by_component["retry_waste"] > 0.0


def test_run_to_completion_attributes_block_energy():
    """The RTC baseline holds cores through blocks; EcoFaaS releases
    them — the ledger's block component is the visible difference."""
    trace = make_load_trace("medium", 2, 8.0, seed=1)
    by_system = {}
    for factory in (PowerCtrlSystem, ecofaas):
        ledger = EnergyLedger()
        obs.install(obs.Tracer(ledger=ledger))
        try:
            run_cluster(factory(), trace,
                        ClusterConfig(n_servers=2, seed=1))
        finally:
            obs.uninstall()
        by_system[factory] = ledger.reports[0].by_component
    assert by_system[PowerCtrlSystem]["block"] > 0.0
    assert by_system[ecofaas]["block"] == 0.0


def test_epoch_components_sum_to_run_totals():
    _, ledger = run_with_ledger("plain", 3)
    totals = ledger.by_component(run=0)
    n_epochs, epoch_s = 8, 2.0
    rows = ledger.epoch_component_j(0, n_epochs, epoch_s)
    assert len(rows) == n_epochs
    for component in LEDGER_COMPONENTS:
        summed = sum(row[component] for row in rows)
        assert summed == pytest.approx(totals[component], rel=1e-9,
                                       abs=1e-9)


def test_aggregations_cover_every_joule():
    _, ledger = run_with_ledger("plain", 3)
    report = ledger.reports[0]
    assert sum(ledger.by_node(0).values()) == \
        pytest.approx(report.ledger_j, rel=1e-9)
    # Pool/benchmark/function only cover core-attributed energy.
    assert 0.0 < sum(ledger.by_benchmark(0).values()) < report.ledger_j
    assert set(ledger.by_node(0)) == {"node0", "node1"}


def test_conservation_violation_raises():
    ledger = EnergyLedger()
    ledger.begin_run(0, "synthetic")
    ledger.record_static("node0", 0.0, 1.0, 10.0)

    class FakeCluster:
        total_energy_j = 25.0

    with pytest.raises(EnergyConservationError):
        ledger.close_run(FakeCluster())
    assert not ledger.reports[0].ok


class FakeJob:
    def __init__(self, aborted=False, abandoned=False, is_prewarm=False,
                 cancelled=False):
        self.aborted = aborted
        self.abandoned = abandoned
        self.is_prewarm = is_prewarm
        self.cancelled = cancelled


def classify(raw, job=None, uid=None, shed_uids=frozenset(),
             doomed_uids=frozenset()):
    entry = LedgerEntry(run=0, t0=0.0, t1=1.0, joules=1.0, raw=raw,
                        uid=uid, job=job)
    return EnergyLedger._classify(entry, shed_uids, doomed_uids)


def test_classification_precedence():
    assert classify("idle") == "idle"
    assert classify("blocked_hold", job=FakeJob()) == "block"
    assert classify("freq_switch") == "freq_switch"
    assert classify("static") == "static"
    # Aborted/abandoned beats cold_start and shed.
    assert classify("active_setup", job=FakeJob(aborted=True)) == \
        "retry_waste"
    assert classify("active_run", job=FakeJob(abandoned=True)) == \
        "retry_waste"
    assert classify("active_setup", job=FakeJob()) == "cold_start"
    assert classify("active_run", job=FakeJob(is_prewarm=True)) == \
        "cold_start"
    assert classify("active_run", job=FakeJob(), uid=7,
                    shed_uids={7}) == "shed"
    assert classify("active_run", job=FakeJob(), uid=8,
                    shed_uids={7}) == "run"
    # Cancelled beats everything but the direct raws (repro.cancel).
    assert classify("active_setup", job=FakeJob(cancelled=True)) == \
        "cancelled"
    assert classify("active_run",
                    job=FakeJob(cancelled=True, abandoned=True)) == \
        "cancelled"
    # Doomed workflows beat shed; completed doomed work is its own bucket.
    assert classify("active_run", job=FakeJob(), uid=9,
                    shed_uids={9}, doomed_uids={9}) == "doomed"


def test_ledger_summary_is_json_serializable(tmp_path):
    import json

    _, ledger = run_with_ledger("plain", 3)
    path = tmp_path / "ledger.json"
    document = ledger.write(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["components"] == list(LEDGER_COMPONENTS)
    assert loaded["runs"][0]["conserved"] is True
    assert document["runs"][0]["label"] == "EcoFaaS"


def test_cli_ledger_audit_burnrate_flags(monkeypatch, tmp_path, capsys):
    """``--out`` records the ledger, audit log and burn-rate monitors
    into one run directory, end to end through the CLI."""
    import importlib
    import json
    import sys
    import types

    import repro.cli as cli
    from repro.experiments.common import ExperimentResult

    def tiny_run(quick=True, seed=0):
        trace = make_load_trace("low", 1, 3.0, seed=3)
        run_cluster(ecofaas(), trace,
                    ClusterConfig(n_servers=1, seed=3))
        result = ExperimentResult("tiny", "cli smoke")
        result.add(value=1.0)
        return result

    module = types.ModuleType("fake_experiments.tiny")
    module.run = tiny_run
    sys.modules[module.__name__] = module
    monkeypatch.setattr(cli, "EXPERIMENTS", {"tiny": module.__name__})
    monkeypatch.setattr(importlib, "import_module",
                        lambda name: sys.modules[name])

    out_dir = tmp_path / "run"
    assert cli.main(["tiny", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "conservation OK" in out
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        obs.RUN_FILES)
    document = json.loads((out_dir / "ledger.json").read_text())
    assert document["runs"][0]["conserved"] is True
    assert (out_dir / "audit.jsonl").read_text().strip()
    # Ledger columns ride along in the epoch-metrics CSV.
    header = (out_dir / "epochs.csv").read_text().splitlines()[0]
    assert "energy_run_j" in header and "is_partial" in header
    fingerprints = json.loads((out_dir / "fingerprints.json").read_text())
    assert fingerprints["manifest"]["experiment"] == "tiny"
