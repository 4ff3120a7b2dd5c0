"""The cluster power-cap control loop.

Every ``period_s`` the :class:`PowerCapGovernor` compares the metered
cluster draw (the sum of every server's instantaneous
:meth:`~repro.hardware.server.Server.power_snapshot_w`) against the
active cap and moves one step along a fixed actuation ladder:

* steps ``1 .. len(levels)-1`` lower the cluster-wide **frequency
  ceiling** one DVFS level at a time (eco-freq's cheapest knob — lower
  frequency is also lower energy per operation under the paper's power
  model);
* further steps shrink the **usable core fraction** by
  :data:`CORE_STEP` per tick down to :data:`MIN_CORE_FRACTION` (pool
  shrinking, applied by the elastic node controllers at their next
  refresh).

Draw under ``RELEASE_FRACTION * cap`` releases one step per tick in the
reverse order, giving the loop hysteresis. The ceiling acts through the
existing controllers: pools above the ceiling are retuned down through
the kernel DVFS path, dispatch frequency choices are clamped, and pool
sizing folds demand above the ceiling into the ceiling level.

Every decision is a pure function of simulation time and the metered
draw, so capped runs are deterministic; each actuation change records
one ``power_cap_step`` decision instant stamped with the monotonically
increasing **cap epoch**.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.tenancy.config import PowerCapConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster

#: Frontend trace track for governor decisions (matches guard events).
FRONTEND_TRACK = "frontend"

#: Draw below ``RELEASE_FRACTION * cap`` releases one actuation step.
RELEASE_FRACTION = 0.85

#: Floor on the usable-core fraction when shrinking pools.
MIN_CORE_FRACTION = 0.25
#: Usable-core fraction removed (or restored) per governor tick.
CORE_STEP = 0.125


class PowerCapGovernor:
    """Keeps the metered cluster draw under a watt cap."""

    def __init__(self, cluster: "Cluster", config: PowerCapConfig):
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        self.scale = cluster.config.scale
        #: Actuation depth: 0 = uncapped behaviour.
        self.steps = 0
        #: Monotonic epoch, bumped on every actuation.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Ladder geometry
    # ------------------------------------------------------------------
    @property
    def _freq_steps(self) -> int:
        return len(self.scale.levels) - 1

    @property
    def _core_steps(self) -> int:
        span = 1.0 - MIN_CORE_FRACTION
        return int(math.ceil(span / CORE_STEP - 1e-9))

    @property
    def max_steps(self) -> int:
        return self._freq_steps + self._core_steps

    def freq_ceiling_ghz(self) -> Optional[float]:
        """The current cluster-wide frequency ceiling (None = uncapped)."""
        if self.steps <= 0:
            return None
        index = len(self.scale.levels) - 1 - min(self.steps,
                                                 self._freq_steps)
        return self.scale.levels[index]

    def core_fraction(self) -> float:
        """The usable fraction of each server's cores (1.0 = all)."""
        extra = max(0, self.steps - self._freq_steps)
        if extra <= 0:
            return 1.0
        return max(MIN_CORE_FRACTION, 1.0 - extra * CORE_STEP)

    def clamp(self, freq_ghz: Optional[float]) -> Optional[float]:
        """Clamp one frequency choice to the active ceiling."""
        ceiling = self.freq_ceiling_ghz()
        if ceiling is None or freq_ghz is None:
            return freq_ghz
        return min(freq_ghz, ceiling)

    def capped_cores(self, n_cores: int) -> int:
        """Usable cores out of ``n_cores`` under the active fraction."""
        fraction = self.core_fraction()
        if fraction >= 1.0:
            return n_cores
        return max(1, int(n_cores * fraction))

    # ------------------------------------------------------------------
    # The control loop body (driven by TenancyRuntime's process)
    # ------------------------------------------------------------------
    def draw_w(self) -> float:
        """Instantaneous metered cluster draw, watts."""
        return sum(server.power_snapshot_w()
                   for server in self.cluster.servers)

    def tick(self) -> None:
        """One governor decision: tighten, release, or hold."""
        cap = self.config.cap_w
        draw = self.draw_w()
        if draw > cap and self.steps < self.max_steps:
            self._actuate(self.steps + 1, draw, cap, "tighten")
        elif draw < RELEASE_FRACTION * cap and self.steps > 0:
            self._actuate(self.steps - 1, draw, cap, "release")

    def _actuate(self, new_steps: int, draw: float, cap: float,
                 direction: str) -> None:
        prev_steps = self.steps
        prev_ceiling = self.freq_ceiling_ghz()
        prev_fraction = self.core_fraction()
        self.steps = new_steps
        self.epoch += 1
        ceiling = self.freq_ceiling_ghz()
        fraction = self.core_fraction()
        self._apply_ceiling(ceiling)
        metrics = self.cluster.metrics
        metrics.power_cap_steps += 1
        if direction == "tighten":
            metrics.power_cap_tightens += 1
        else:
            metrics.power_cap_releases += 1
        self.env.trace.decision(
            "power_cap_step", FRONTEND_TRACK,
            inputs={"draw_w": round(draw, 6), "cap_w": round(cap, 6),
                    "steps": prev_steps,
                    "freq_ceiling_ghz": prev_ceiling,
                    "core_fraction": round(prev_fraction, 6)},
            action={"direction": direction, "steps": self.steps,
                    "epoch": self.epoch,
                    "freq_ceiling_ghz": ceiling,
                    "core_fraction": round(fraction, 6)},
            alternatives=[{"steps": prev_steps,
                           "rejected": ("draw exceeded the cap"
                                        if direction == "tighten"
                                        else "draw fell below the"
                                             " release threshold")}],
            reason="power-cap governor stepped the actuation ladder to"
                   " keep the metered cluster draw under the watt"
                   " budget")

    def _apply_ceiling(self, ceiling: Optional[float]) -> None:
        """Push the new ceiling onto every live node's pools right away.

        The elastic refresh re-applies it persistently; this immediate
        pass stops pools already running above the ceiling from drawing
        over-cap power for up to a whole ``T_refresh``.
        """
        for node in self.cluster.nodes:
            if not node.down:
                node.apply_frequency_ceiling(ceiling)
