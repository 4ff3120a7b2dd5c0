"""Analytic server power model.

The paper measures package + DRAM energy with CPU Energy Meter (RAPL) and
apportions socket power to cores using frequency and active-cycle counts
(Section VII). We model the same decomposition analytically:

* per-core active power ``P_act(f) = core_static + k · f³`` — the classic
  CMOS model (dynamic power ∝ C·V²·f with V roughly linear in f),
* per-core idle power (clock-gated),
* per-socket uncore power (LLC, ring, memory controller),
* DRAM background power per server plus an activity term per busy core.

Defaults are calibrated to the Intel Xeon E5-2660 v3 (10 cores/socket,
105 W TDP): at 3.0 GHz with all ten cores active a socket draws
``10·(1.5 + 0.26·27) + 18 ≈ 103 W``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerModel:
    """Power coefficients for one server; all values in watts (and GHz)."""

    core_static_w: float = 1.5
    core_dynamic_w_per_ghz3: float = 0.26
    core_idle_w: float = 0.4
    uncore_w_per_socket: float = 18.0
    dram_background_w: float = 8.0
    dram_active_w_per_core: float = 0.7
    sockets: int = 2
    cores_per_socket: int = 10

    def __post_init__(self) -> None:
        for name in ("core_static_w", "core_dynamic_w_per_ghz3",
                     "core_idle_w", "uncore_w_per_socket",
                     "dram_background_w", "dram_active_w_per_core"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("need at least one socket and one core")

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def core_active_power(self, freq_ghz: float) -> float:
        """Power of one core executing instructions at ``freq_ghz``."""
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_ghz}")
        return self.core_static_w + self.core_dynamic_w_per_ghz3 * freq_ghz ** 3

    def core_idle_power(self) -> float:
        """Power of one idle (clock-gated) core."""
        return self.core_idle_w

    def background_power(self) -> float:
        """Always-on power: uncore on every socket + DRAM background."""
        return self.uncore_w_per_socket * self.sockets + self.dram_background_w

    def dram_active_power(self, busy_cores: int) -> float:
        """DRAM activity power attributable to ``busy_cores`` running cores."""
        if busy_cores < 0:
            raise ValueError(f"busy_cores must be non-negative: {busy_cores}")
        return self.dram_active_w_per_core * busy_cores

    def server_power(self, core_freqs_ghz: list, busy_flags: list) -> float:
        """Instantaneous whole-server power for a core state snapshot.

        ``core_freqs_ghz[i]`` is core *i*'s frequency and ``busy_flags[i]``
        whether it is executing. Convenience for tests and the energy meter
        cross-check; the simulator itself integrates incrementally.
        """
        if len(core_freqs_ghz) != len(busy_flags):
            raise ValueError("core_freqs and busy_flags must align")
        busy = sum(1 for flag in busy_flags if flag)
        core_power = sum(
            self.core_active_power(f) if flag else self.core_idle_power()
            for f, flag in zip(core_freqs_ghz, busy_flags))
        return core_power + self.background_power() + self.dram_active_power(busy)
