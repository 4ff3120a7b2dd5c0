"""Observers must not perturb the simulation (the zero-overhead contract).

Two guarantees:

* an observed run reproduces the **stored reference fingerprint** of its
  row (``tests/fingerprints.py``): tracing, the ledger, burn-rate
  monitors, progressive fingerprints and the decision audit log only
  read state, never mutate it or draw random numbers. One matrix arms
  each observer set over layers-off, chaos, guarded and all-armed rows,
  plus a shedding overload run that no stored row covers (compared to
  its own bare twin). Each arm also checks that the run's control-plane
  decisions reached the trace;
* two traced runs of the same seed write **byte-identical** run
  directories (the exporters are fully deterministic).
"""

import functools

import pytest

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.audit import KINDS
from repro.obs.export import read_chrome_trace
from repro.platform.cluster import ClusterConfig
from tests.fingerprints import (
    cluster_fingerprint,
    load_reference,
    reference_runs,
)

def recorded_run(run_dir):
    """One low-load EcoFaaS run, recorded into the new ``run_dir``."""
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    try:
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                    make_load_trace("low", 2, 6.0, seed=3),
                    ClusterConfig(n_servers=2, drain_s=4.0))
    finally:
        obs.uninstall()
    run_dir.mkdir()
    obs.write_run(tracer, str(run_dir), {})


def overload_shed():
    """A guarded high-load run that sheds arrivals (no stored row)."""
    return run_cluster(
        EcoFaaSSystem(EcoFaaSConfig()),
        make_load_trace("high", 2, 8.0, seed=6, cores_per_server=20),
        ClusterConfig(n_servers=2, seed=6,
                      guard=overload.guard_config(2, 20)))


ROWS = {label: factory for label, factory in reference_runs()
        if label in ("baseline", "ecofaas", "ecofaas_chaos",
                     "guard_chaos", "all_armed")}
ROWS["overload_shed"] = overload_shed

#: Observer sets: a bare tracer, and ``full``: a tracer with the ledger,
#: burn-rate monitors and fingerprints.
OBSERVERS = {
    "trace": obs.Tracer,
    "full": lambda: obs.Tracer(ledger=obs.EnergyLedger(),
                               burnrate=obs.BurnRateMonitor(),
                               fingerprint=obs.FingerprintRecorder()),
}


@functools.lru_cache(maxsize=None)
def expected_fingerprint(row):
    stored = load_reference().get(row)
    if stored is not None:
        return stored
    cluster = ROWS[row]()
    assert cluster.metrics.shed_count() > 0, "the row must shed"
    return cluster_fingerprint(cluster)


@pytest.mark.parametrize("row", sorted(ROWS))
@pytest.mark.parametrize("observers", sorted(OBSERVERS))
def test_observed_run_matches_unobserved_fingerprint(observers, row):
    tracer = obs.install(OBSERVERS[observers]())
    try:
        cluster = ROWS[row]()
    finally:
        obs.uninstall()
    assert cluster_fingerprint(cluster) == expected_fingerprint(row)
    # The observers really watched the run and recorded its decisions
    # (the Baseline decides nothing).
    assert tracer.spans_of("invocation") and tracer.counters
    if row != "baseline":
        assert any(i.name in KINDS for i in tracer.instants)


def test_two_traced_runs_write_byte_identical_files(tmp_path):
    for i in range(2):
        recorded_run(tmp_path / f"run{i}")
    for name in obs.RUN_FILES:
        assert (tmp_path / "run0" / name).read_bytes() == \
            (tmp_path / "run1" / name).read_bytes(), name
    # The one trace reader validates the file as it reads it back.
    assert read_chrome_trace(str(tmp_path / "run0" / "trace.json")).spans


def test_cli_trace_and_report(tmp_path):
    """A run directory's trace through ``repro report`` end to end."""
    from repro.cli import main
    recorded_run(tmp_path / "run")
    assert main(["report", str(tmp_path / "run"), "--top", "3"]) == 0


@pytest.mark.parametrize("epoch_s", ["-1", "0", "nan", "inf"])
def test_epoch_s_must_be_positive_and_finite(epoch_s, tmp_path):
    from repro.cli import main
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit) as excinfo:
        main(["fig16", "--out", str(out_dir), "--epoch-s", epoch_s])
    assert excinfo.value.code == 2
    assert not out_dir.exists()
