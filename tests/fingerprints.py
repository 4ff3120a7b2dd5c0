"""Canonical run fingerprints (the behavioural anchor of every refactor).

A fingerprint digests every observable outcome of a small reference run —
function records, workflow records, reliability counters, per-server
energy — into one SHA-256 hex string, stored per run label in
``tests/data/seed_fingerprint.json``. There are three kinds of row:

* **Layers off** (``baseline`` … ``powerctrl_medium``): generated from the
  pre-guard seed code. Reproducing them is the hard "opt-in means
  untouched" contract of every optional layer.
* **Predictor** (``ecofaas_medium``): EcoFaaS on the medium three-server
  trace, long enough that the input-aware MLP refines most predictions
  (the low-load ``ecofaas`` rows make none). It is the one row that
  pins the MLP's training and the compute/memory fit. It was stored
  before the MLP moved to one training tick per 8 observations, and
  re-pinned by that change together with ``ha_partition``, the only
  other row that makes many MLP-refined predictions (``ha_chaos`` makes
  two, and kept its hash).
* **Layers armed** (``guard_chaos``, ``cancel_chaos``, ``ha_chaos``,
  ``tenancy_cap``, ``all_armed``, ``ha_partition``): the ``ecofaas_chaos``
  run with guard, cancel (plus timeouts and hedging), HA or a capped
  tenancy policy armed, every layer at once, and the HA partition
  scenario. They were generated from the tree before the frontend's
  attempt path was folded into one, so an armed run is compared to a
  stored value and not only to a second run of itself: a refactor that
  changed armed behaviour identically on every run would still fail.

``tests/test_guard_determinism.py`` recomputes every row bare and
``tests/test_verify_integration.py`` with the invariant monitors armed.

Regenerate (only when a PR *intentionally* changes baseline behaviour)::

    PYTHONPATH=src python tests/fingerprints.py --write
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.obs.fingerprint import cluster_fingerprint  # noqa: F401
# Re-exported: the digest lives in repro.obs.fingerprint (shared with
# the fuzzer and the progressive-fingerprint recorder); this module
# keeps the reference-run definitions and the stored-seed plumbing.

DATA_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "seed_fingerprint.json")


def armed(faults=True, **layers):
    """A factory for the ``ecofaas_chaos`` run with ``layers`` set on its
    ClusterConfig (``faults=False`` drops the fault plan)."""
    from repro.core import EcoFaaSSystem
    from repro.core.config import EcoFaaSConfig
    from repro.experiments.common import make_load_trace, run_cluster
    from repro.faults.plan import FaultPlan
    from repro.platform.cluster import ClusterConfig
    from repro.platform.reliability import ReliabilityPolicy

    chaos = ClusterConfig(
        n_servers=2, drain_s=4.0,
        reliability=ReliabilityPolicy(max_retries=8, backoff_base_s=0.05))
    config = dataclasses.replace(chaos, **layers)
    return lambda: run_cluster(
        EcoFaaSSystem(EcoFaaSConfig()), make_load_trace("low", 2, 6.0, seed=3),
        config,
        fault_plan=(FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                         seed=5) if faults else None))


def reference_runs():
    """The reference runs, as (label, cluster-factory) pairs.

    Three low-load runs on two servers, plus both baselines and EcoFaaS
    at medium load on three servers for 20 s. There the baselines'
    per-function pools churn (they are created, re-split and retired
    many times over) and EcoFaaS's MLP trains and refines. Then the
    armed rows: five variants of the low-load chaos run, each with
    guard, cancel, HA, capped tenancy or all of them armed, and the
    28 s HA partition scenario on three servers.
    """
    from repro.baselines import BaselineSystem, PowerCtrlSystem
    from repro.cancel import CancelConfig
    from repro.core import EcoFaaSSystem
    from repro.core.config import EcoFaaSConfig
    from repro.experiments import partition
    from repro.experiments.common import make_load_trace, run_cluster
    from repro.experiments.tenancy import make_tenancy
    from repro.guard import GuardConfig
    from repro.ha import HAConfig
    from repro.platform.cluster import ClusterConfig
    from repro.platform.reliability import ReliabilityPolicy

    def trace():
        return make_load_trace("low", 2, 6.0, seed=3)

    plain = ClusterConfig(n_servers=2, drain_s=4.0)

    def medium_trace():
        return make_load_trace("medium", 3, 20.0, seed=3)

    medium = ClusterConfig(n_servers=3, drain_s=4.0)

    hedged = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05,
                               invocation_timeout_s=2.0, hedge_after_s=0.8)

    return [
        ("baseline", lambda: run_cluster(BaselineSystem(), trace(), plain)),
        ("ecofaas", lambda: run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                                        trace(), plain)),
        ("ecofaas_chaos", armed()),
        ("baseline_medium", lambda: run_cluster(
            BaselineSystem(), medium_trace(), medium)),
        ("powerctrl_medium", lambda: run_cluster(
            PowerCtrlSystem(), medium_trace(), medium)),
        ("ecofaas_medium", lambda: run_cluster(
            EcoFaaSSystem(EcoFaaSConfig()), medium_trace(), medium)),
        ("guard_chaos", armed(guard=GuardConfig.full())),
        ("cancel_chaos", armed(reliability=hedged,
                               cancel=CancelConfig.full())),
        ("ha_chaos", armed(reliability=hedged, ha=HAConfig())),
        ("tenancy_cap", armed(faults=False,
                              tenancy=make_tenancy(2, cap_w=150.0))),
        ("all_armed", armed(reliability=hedged, guard=GuardConfig.full(),
                            cancel=CancelConfig.full(), ha=HAConfig(),
                            tenancy=make_tenancy(2, cap_w=150.0))),
        ("ha_partition", lambda: partition.run_one(0, True, 28.0, 3)),
    ]


def reference_labels() -> list:
    """The reference-run labels, in definition order (for parametrize)."""
    return [label for label, _ in reference_runs()]


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
