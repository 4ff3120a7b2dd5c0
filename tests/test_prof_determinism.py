"""Self-profiling must not perturb the simulation, and must conserve wall.

Two guarantees (profiler-off runs reproducing the stored seed
fingerprints is pinned by ``tests/test_guard_determinism.py``):

* a *profiled* run produces bit-identical metrics to an unprofiled run
  of the same seed (the profiler reads only the host wall-clock);
* the profiler's attributed self-times sum to at least 90% of the
  externally measured wall-time (the wall-conservation contract of
  ``repro profile``).
"""

import pytest

from tests.fingerprints import cluster_fingerprint, reference_runs
from repro.obs import prof
from repro.obs import scaling as scaling_mod

MIN_CONSERVATION = 0.90


def test_profiled_runs_are_bit_identical_to_unprofiled():
    for label, factory in reference_runs():
        assert prof.active() is None, label
        plain = cluster_fingerprint(factory())
        profiler = prof.install(prof.Profiler())
        try:
            profiler.start()
            profiled_cluster = factory()
            profiler.stop()
        finally:
            prof.uninstall()
        assert cluster_fingerprint(profiled_cluster) == plain, label
        # And the profiler actually observed the run.
        assert profiler.pops > 0, label
        assert any("kernel.dispatch" in path
                   for path in profiler.self_s), label


def test_wall_conservation_on_quick_profile():
    document = scaling_mod.run_profile(scales=(1,), quick=True)
    (entry,) = document["scales"]
    assert entry["wall_conservation"] >= MIN_CONSERVATION
    assert entry["profiled_s"] == pytest.approx(
        sum(row["self_s"] for row in entry["components"]), rel=1e-3)
    assert entry["events_per_s"] > 0
    assert entry["collapsed"].strip()
    # The scenario touches every heavily instrumented layer.
    names = {row["component"] for row in entry["components"]}
    assert {"kernel.dispatch", "core.predictor",
            "hardware.energy"} <= names


def test_profile_document_is_seed_deterministic_in_sim_metrics():
    first = scaling_mod.run_profile(scales=(1,), quick=True)
    second = scaling_mod.run_profile(scales=(1,), quick=True)
    assert first["scales"][0]["sim_metrics"] == \
        second["scales"][0]["sim_metrics"]
