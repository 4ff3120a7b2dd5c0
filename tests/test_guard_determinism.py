"""The repro.guard determinism contract, pinned to stored fingerprints.

Two halves:

1. **Opt-in means untouched** — a cluster built with no ``GuardConfig``
   must reproduce the pre-guard seed code's outputs byte-for-byte. The
   five layers-off fingerprints in ``tests/data/seed_fingerprint.json``
   were captured before the guard subsystem existed; this suite
   recomputes them (including the chaos reference with a live fault
   plan and retry policy) and compares hex-for-hex.
2. **Armed runs are pinned too** — every guard, cancel, HA and tenancy
   decision is a pure function of simulation time and counters, so the
   armed reference rows (``guard_chaos`` … ``ha_partition``) reproduce
   their stored fingerprints, not merely each other.
"""

import pytest

from tests.fingerprints import (
    armed,
    cluster_fingerprint,
    load_reference,
    reference_labels,
    reference_runs,
)


class TestGuardsOffMatchesSeed:
    """Every reference run, layers off or armed, matches its stored hash."""

    @pytest.mark.parametrize("label", reference_labels())
    def test_reference_fingerprint_is_reproduced(self, label):
        reference = load_reference()
        factory = dict(reference_runs())[label]
        assert cluster_fingerprint(factory()) == reference[label], (
            f"reference run {label!r} no longer matches its stored"
            f" fingerprint — a code path it exercises changed behaviour")

    def test_reference_file_covers_all_runs(self):
        assert set(load_reference()) == {label for label, _
                                         in reference_runs()}


class TestGuardedRunsAreDeterministic:
    """Guarded runs are pinned by the stored ``guard_chaos`` row above."""

    def test_guarded_differs_from_unguarded_under_chaos(self):
        """Sanity: the guards are live, not a no-op, once configured, so
        the stored row pins breaker and checkpoint activity."""
        cluster = dict(reference_runs())["guard_chaos"]()
        assert cluster.metrics.checkpoints_taken > 0
        assert cluster.metrics.breaker_fast_fails > 0
        assert (cluster_fingerprint(cluster)
                != load_reference()["ecofaas_chaos"])


class TestEmptyLayerConfigIsUnset:
    """An empty guard, cancel or tenancy config arms nothing: each, alone
    or all three together, reproduces the layers-off ``ecofaas_chaos``
    row. A cluster built without a layer runs that layer's runtime
    inert, and this equality is what that rests on."""

    @pytest.mark.parametrize("layers", ["guard", "cancel", "tenancy",
                                        "guard+cancel+tenancy"])
    def test_empty_config_reproduces_ecofaas_chaos(self, layers):
        from repro.cancel import CancelConfig
        from repro.guard import GuardConfig
        from repro.tenancy import TenancyConfig
        empty = {"guard": GuardConfig(), "cancel": CancelConfig(),
                 "tenancy": TenancyConfig()}
        chosen = {name: empty[name] for name in layers.split("+")}
        assert (cluster_fingerprint(armed(**chosen)())
                == load_reference()["ecofaas_chaos"])
