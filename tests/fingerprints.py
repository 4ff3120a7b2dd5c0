"""Canonical run fingerprints (the guard-determinism anchor).

A fingerprint digests every observable outcome of a small reference run —
function records, workflow records, reliability counters, per-server
energy — into one SHA-256 hex string. The reference fingerprints in
``tests/data/seed_fingerprint.json`` were generated from the pre-guard
seed code; ``tests/test_guard_determinism.py`` asserts that a guards-off
run still reproduces them byte-for-byte, which is the hard "opt-in means
untouched" contract of ``repro.guard``.

Regenerate (only when a PR *intentionally* changes baseline behaviour)::

    PYTHONPATH=src python tests/fingerprints.py --write
"""

from __future__ import annotations

import json
import os

from repro.obs.fingerprint import cluster_fingerprint  # noqa: F401
# Re-exported: the digest lives in repro.obs.fingerprint (shared with
# the fuzzer and the progressive-fingerprint recorder); this module
# keeps the reference-run definitions and the stored-seed plumbing.

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "seed_fingerprint.json")


def reference_runs():
    """The reference runs, as (label, cluster-factory) pairs.

    Three low-load runs on two servers, plus both baselines at medium
    load on three servers for 20 s, where per-function pools churn:
    they are created, re-split and retired many times over.
    """
    from repro.baselines import BaselineSystem, PowerCtrlSystem
    from repro.core import EcoFaaSSystem
    from repro.core.config import EcoFaaSConfig
    from repro.experiments.common import make_load_trace, run_cluster
    from repro.faults.plan import FaultPlan
    from repro.platform.cluster import ClusterConfig
    from repro.platform.reliability import ReliabilityPolicy

    def trace():
        return make_load_trace("low", 2, 6.0, seed=3)

    plain = ClusterConfig(n_servers=2, drain_s=4.0)
    chaos = ClusterConfig(
        n_servers=2, drain_s=4.0,
        reliability=ReliabilityPolicy(max_retries=8, backoff_base_s=0.05))

    def medium_trace():
        return make_load_trace("medium", 3, 20.0, seed=3)

    medium = ClusterConfig(n_servers=3, drain_s=4.0)

    def chaos_plan():
        return FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"], seed=5)

    return [
        ("baseline", lambda: run_cluster(BaselineSystem(), trace(), plain)),
        ("ecofaas", lambda: run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                                        trace(), plain)),
        ("ecofaas_chaos", lambda: run_cluster(
            EcoFaaSSystem(EcoFaaSConfig()), trace(), chaos,
            fault_plan=chaos_plan())),
        ("baseline_medium", lambda: run_cluster(
            BaselineSystem(), medium_trace(), medium)),
        ("powerctrl_medium", lambda: run_cluster(
            PowerCtrlSystem(), medium_trace(), medium)),
    ]


def current_fingerprints() -> dict:
    return {label: cluster_fingerprint(factory())
            for label, factory in reference_runs()}


def load_reference() -> dict:
    with open(DATA_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    import sys
    prints = current_fingerprints()
    if "--write" in sys.argv:
        os.makedirs(os.path.dirname(DATA_PATH), exist_ok=True)
        with open(DATA_PATH, "w") as fh:
            json.dump(prints, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {DATA_PATH}")
    for label, value in sorted(prints.items()):
        print(f"{label}: {value}")
