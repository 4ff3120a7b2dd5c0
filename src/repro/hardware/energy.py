"""Energy accounting: the simulated counterpart of RAPL / CPU Energy Meter.

:class:`EnergyMeter` integrates joules by component (active cores, idle
cores, uncore, DRAM, DVFS-transition overhead) and can additionally
*attribute* energy to named consumers (function names), mirroring the
paper's power-model apportionment of socket energy to invocations.

:class:`FrequencyTimeline` records the average core frequency over time
(Fig. 14) from irregular samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


#: Energy components tracked by the meter.
COMPONENTS = ("core_active", "core_idle", "uncore", "dram", "dvfs_overhead")


class EnergyMeter:
    """An integrating meter of joules by component and by consumer."""

    def __init__(self) -> None:
        self._by_component: Dict[str, float] = {c: 0.0 for c in COMPONENTS}
        self._by_consumer: Dict[str, float] = {}

    def add(self, component: str, joules: float) -> None:
        """Accrue ``joules`` into ``component``."""
        if component not in self._by_component:
            raise KeyError(
                f"unknown component {component!r}; expected one of {COMPONENTS}")
        if joules < 0:
            raise ValueError(f"cannot accrue negative energy: {joules}")
        self._by_component[component] += joules

    def attribute(self, consumer: str, joules: float) -> None:
        """Attribute ``joules`` of (already-accrued) energy to a consumer."""
        if joules < 0:
            raise ValueError(f"cannot attribute negative energy: {joules}")
        self._by_consumer[consumer] = self._by_consumer.get(consumer, 0.0) + joules

    @property
    def total_j(self) -> float:
        """Total metered energy in joules across all components."""
        return sum(self._by_component.values())

    def component_j(self, component: str) -> float:
        """Energy accrued to one component."""
        return self._by_component[component]

    def by_component(self) -> Dict[str, float]:
        """A copy of the component → joules map."""
        return dict(self._by_component)

    def consumer_j(self, consumer: str) -> float:
        """Energy attributed to one consumer (0.0 when never seen)."""
        return self._by_consumer.get(consumer, 0.0)

    def by_consumer(self) -> Dict[str, float]:
        """A copy of the consumer → joules map."""
        return dict(self._by_consumer)


@dataclass
class FrequencyTimeline:
    """Time series of the average core frequency in a server (Fig. 14)."""

    samples: List[Tuple[float, float]] = field(default_factory=list)

    def sample(self, time_s: float, core_freqs_ghz: Sequence[float]) -> None:
        """Record the mean of ``core_freqs_ghz`` at ``time_s``."""
        if not core_freqs_ghz:
            raise ValueError("cannot sample an empty frequency vector")
        if self.samples and time_s < self.samples[-1][0]:
            raise ValueError(
                f"samples must be time-ordered: {time_s} < {self.samples[-1][0]}")
        mean = sum(core_freqs_ghz) / len(core_freqs_ghz)
        self.samples.append((time_s, mean))

    @property
    def times(self) -> List[float]:
        return [t for t, _ in self.samples]

    @property
    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def time_average(self) -> float:
        """Time-weighted mean frequency over the sampled interval."""
        if not self.samples:
            raise ValueError("no samples recorded")
        if len(self.samples) == 1:
            return self.samples[0][1]
        total_time = 0.0
        weighted = 0.0
        for (t0, v0), (t1, _) in zip(self.samples, self.samples[1:]):
            dt = t1 - t0
            total_time += dt
            weighted += v0 * dt
        if total_time == 0:
            return self.samples[0][1]
        return weighted / total_time
