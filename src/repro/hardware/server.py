"""A simulated server: cores + energy meter + background power.

Matches the evaluation platform (Section VII): 20 cores across two sockets,
7 DVFS levels. Background (uncore + DRAM standby) power accrues for the
whole lifetime of the server at :meth:`finalize` time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter, FrequencyTimeline
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.sim.engine import Environment


class Server:
    """A server with ``n_cores`` DVFS-capable cores and one energy meter."""

    def __init__(self, env: Environment, server_id: int = 0,
                 n_cores: Optional[int] = None,
                 scale: Optional[FrequencyScale] = None,
                 power: Optional[PowerModel] = None,
                 initial_freq_ghz: Optional[float] = None,
                 machine_type: str = "haswell",
                 ipc_factor: float = 1.0):
        self.env = env
        self.server_id = server_id
        self.scale = scale or FrequencyScale()
        self.power = power or PowerModel()
        #: Microarchitecture label + relative per-clock speed (VI-E3).
        self.machine_type = machine_type
        self.ipc_factor = ipc_factor
        self.n_cores = n_cores if n_cores is not None else self.power.total_cores
        if self.n_cores < 1:
            raise ValueError(f"need at least one core, got {self.n_cores}")
        self.meter = EnergyMeter()
        freq = initial_freq_ghz if initial_freq_ghz is not None else self.scale.max
        if freq not in self.scale:
            raise ValueError(
                f"initial frequency {freq} GHz is not in {self.scale.levels}")
        self.cores: List[Core] = [
            Core(env, core_id=i, power=self.power, meter=self.meter,
                 frequency_ghz=freq, ipc_factor=ipc_factor)
            for i in range(self.n_cores)
        ]
        for core in self.cores:
            core.track = f"node{server_id}"
        self.timeline = FrequencyTimeline()
        #: Advisory per-server power-cap share (repro.tenancy): the
        #: power-cap governor stamps its active cluster cap divided over
        #: the servers here. Purely observational — actuation happens
        #: through the node controllers — but it makes headroom a
        #: first-class hardware signal.
        self.power_cap_w: Optional[float] = None
        self._created_at = env.now
        self._finalized_until = env.now

    def idle_cores(self) -> List[Core]:
        """The currently idle cores, in id order."""
        return [core for core in self.cores if not core.busy]

    def busy_cores(self) -> List[Core]:
        """The currently busy cores, in id order."""
        return [core for core in self.cores if core.busy]

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of busy cores."""
        return len(self.busy_cores()) / self.n_cores

    def core_frequencies(self) -> List[float]:
        """Current frequency of every core, in core-id order."""
        return [core.frequency for core in self.cores]

    def sample_timeline(self) -> None:
        """Record the current average core frequency (Fig. 14 data)."""
        self.timeline.sample(self.env.now, self.core_frequencies())

    def power_snapshot_w(self) -> float:
        """Instantaneous whole-server power draw in watts.

        The time-integral of this snapshot over a run equals the metered
        energy (a cross-check the test-suite exercises).
        """
        return self.power.server_power(
            self.core_frequencies(),
            [core.busy for core in self.cores])

    def power_headroom_w(self) -> Optional[float]:
        """Watts of headroom under the advertised cap share, if any.

        Negative = currently drawing over the cap share. None when no
        power-cap governor has stamped a cap on this server.
        """
        if self.power_cap_w is None:
            return None
        return self.power_cap_w - self.power_snapshot_w()

    def finalize(self) -> None:
        """Accrue all outstanding energy up to the current time.

        Safe to call repeatedly; background power is charged exactly once
        per elapsed interval.
        """
        for core in self.cores:
            core.finalize()
        t0 = self._finalized_until
        elapsed = self.env.now - t0
        if elapsed > 0:
            background_j = self.power.background_power() * elapsed
            # Split the always-on power between its two physical sources so
            # the component breakdown stays meaningful.
            uncore_share = (self.power.uncore_w_per_socket * self.power.sockets
                            / self.power.background_power())
            self.meter.add("uncore", background_j * uncore_share)
            self.meter.add("dram", background_j * (1.0 - uncore_share))
            self._finalized_until = self.env.now
            ledger = self.env.trace.ledger
            if ledger is not None:
                ledger.record_static(f"node{self.server_id}", t0,
                                     self.env.now, background_j)

    @property
    def total_energy_j(self) -> float:
        """Total metered energy; call :meth:`finalize` first for accuracy."""
        return self.meter.total_j
