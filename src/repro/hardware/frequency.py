"""Discrete DVFS frequency scales and frequency-transition costs.

The paper's platform exposes 7 userspace-settable frequencies from 1.2 GHz
to 3.0 GHz in 0.3 GHz steps (Section VII). Changing frequency costs

* ~10 µs in hardware,
* a few tens of µs through the kernel/MSR path available to the (root)
  node controller (Section VIII-D), and
* 10–20 ms when a sandboxed userspace process has to cross the container
  and kernel boundaries (Section III-4) — the cost that cripples
  per-invocation DVFS in Baseline+PowerCtrl.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

#: The evaluation platform's levels, in GHz (Section VII).
HASWELL_LEVELS_GHZ: Tuple[float, ...] = (1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.0)


@dataclass(frozen=True)
class FrequencyScale:
    """An ordered set of discrete core frequencies, in GHz."""

    levels: Tuple[float, ...] = HASWELL_LEVELS_GHZ

    def __post_init__(self) -> None:
        levels = tuple(float(level) for level in self.levels)
        if not levels:
            raise ValueError("a frequency scale needs at least one level")
        if any(level <= 0 for level in levels):
            raise ValueError(f"frequencies must be positive: {levels}")
        if list(levels) != sorted(set(levels)):
            raise ValueError(f"levels must be strictly increasing: {levels}")
        object.__setattr__(self, "levels", levels)
        # at_or_above's answers: the levels from index i up, for every i.
        object.__setattr__(self, "_suffixes", tuple(
            levels[i:] for i in range(len(levels) + 1)))

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __contains__(self, freq: float) -> bool:
        return any(abs(freq - level) < 1e-9 for level in self.levels)

    @property
    def min(self) -> float:
        return self.levels[0]

    @property
    def max(self) -> float:
        return self.levels[-1]

    def index(self, freq: float) -> int:
        """Index of an exact level; raises ``ValueError`` for foreign values."""
        for i, level in enumerate(self.levels):
            if abs(level - freq) < 1e-9:
                return i
        raise ValueError(f"{freq} GHz is not a level of {self.levels}")

    def ceil(self, freq: float) -> float:
        """Smallest level >= ``freq`` (the pool a dispatcher would pick).

        Values above the top level clamp to the top level.
        """
        i = bisect.bisect_left(self.levels, freq - 1e-9)
        if i >= len(self.levels):
            return self.max
        return self.levels[i]

    def floor(self, freq: float) -> float:
        """Largest level <= ``freq``; values below the range clamp to min."""
        i = bisect.bisect_right(self.levels, freq + 1e-9) - 1
        if i < 0:
            return self.min
        return self.levels[i]

    def next_higher(self, freq: float) -> Optional[float]:
        """The level one step above ``freq``, or None at the top."""
        i = self.index(freq)
        if i + 1 >= len(self.levels):
            return None
        return self.levels[i + 1]

    def next_lower(self, freq: float) -> Optional[float]:
        """The level one step below ``freq``, or None at the bottom."""
        i = self.index(freq)
        if i == 0:
            return None
        return self.levels[i - 1]

    def at_or_above(self, freq: float) -> Tuple[float, ...]:
        """All levels >= ``freq`` in ascending order."""
        return self._suffixes[bisect.bisect_left(self.levels, freq - 1e-9)]

    def step_down(self, freq: float, steps: int = 1) -> float:
        """The level ``steps`` below ``freq``, clamped at the minimum.

        The power-cap governor's ladder helper: tightening one actuation
        step lowers the cluster frequency ceiling by one level.
        """
        if steps < 0:
            raise ValueError(f"steps must be >= 0: {steps}")
        i = max(0, self.index(freq) - steps)
        return self.levels[i]

    @classmethod
    def from_granularity(cls, step_mhz: int, lo_mhz: int = 1200,
                         hi_mhz: int = 3000) -> "FrequencyScale":
        """Build a scale from ``lo`` to ``hi`` MHz in ``step`` MHz increments.

        Used by the Fig. 21 granularity study (50 / 300 / 600 MHz steps).
        The top frequency is always included even when the step does not
        divide the range exactly.
        """
        if step_mhz <= 0:
            raise ValueError(f"step must be positive, got {step_mhz}")
        if hi_mhz <= lo_mhz:
            raise ValueError(f"empty range [{lo_mhz}, {hi_mhz}] MHz")
        levels_mhz = list(range(lo_mhz, hi_mhz + 1, step_mhz))
        if levels_mhz[-1] != hi_mhz:
            levels_mhz.append(hi_mhz)
        return cls(tuple(mhz / 1000.0 for mhz in levels_mhz))


@dataclass
class DvfsCostModel:
    """Time costs of a core-frequency transition, per issuing path.

    ``sandbox_switch_s`` is sampled uniformly from a range because the
    paper reports 10–20 ms depending on contention for the kernel path.
    """

    hardware_switch_s: float = 10e-6
    kernel_switch_s: float = 50e-6
    sandbox_switch_range_s: Tuple[float, float] = (10e-3, 20e-3)
    #: Extra sandbox delay per concurrent switcher, modelling the observed
    #: contention when many containers invoke the OS at once (Section VIII-C).
    sandbox_contention_s: float = 2e-3
    rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        lo, hi = self.sandbox_switch_range_s
        if not 0 <= lo <= hi:
            raise ValueError(
                f"invalid sandbox switch range {self.sandbox_switch_range_s}")
        if min(self.hardware_switch_s, self.kernel_switch_s) < 0:
            raise ValueError("switch costs must be non-negative")

    def kernel_cost(self) -> float:
        """Cost of a switch issued by the privileged node controller."""
        return self.kernel_switch_s

    def sandbox_cost(self, concurrent_switchers: int = 0) -> float:
        """Cost of a switch issued from inside a container/VM sandbox."""
        lo, hi = self.sandbox_switch_range_s
        if self.rng is None:
            base = (lo + hi) / 2.0
        else:
            base = float(self.rng.uniform(lo, hi))
        return base + self.sandbox_contention_s * max(0, concurrent_switchers)
