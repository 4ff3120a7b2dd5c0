"""The guard, tenancy, HA and cancel runtimes of one cluster: built on
every run, inert when their ``ClusterConfig`` field is unset, so callers
never check whether a layer is on (DESIGN.md §6b)."""

from typing import NamedTuple

from repro.cancel.runtime import CancelRuntime
from repro.guard.runtime import GuardRuntime
from repro.ha.runtime import HARuntime
from repro.tenancy.runtime import TenancyRuntime


class Layers(NamedTuple):
    """The one handle a cluster gives its nodes, in build and arm order."""

    guard: GuardRuntime
    tenancy: TenancyRuntime
    ha: HARuntime
    cancel: CancelRuntime

    @classmethod
    def build(cls, env, metrics, config) -> "Layers":
        """Build every runtime (before the cluster has nodes)."""
        return cls(*(runtime(env, metrics, config) for runtime in
                     (GuardRuntime, TenancyRuntime, HARuntime, CancelRuntime)))

    def pool_hooks(self) -> dict:
        """The dispatch hooks of a :class:`CorePoolScheduler`. An inert
        layer's hook would return its input, so it is left out and the
        pool never calls it."""
        hooks = {}
        if self.tenancy.caps_frequency:
            hooks["clamp_freq"] = self.tenancy.clamp_freq
        if self.cancel.cancels_attempts:
            hooks["drop_doomed"] = self.cancel.drop_if_doomed
        return hooks

    def arm(self, cluster) -> None:
        """Hand each runtime its cluster and start the armed processes."""
        for runtime in self:
            runtime.arm(cluster)
