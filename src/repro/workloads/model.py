"""Per-function timing/energy models and invocation sampling.

A :class:`FunctionModel` captures what the paper's characterization
measures per function (Figs. 2–4): on-core time at the top frequency, its
frequency-scaled share, total blocking time and how it is chopped into
phases, cold-start duration, LLC/bandwidth sensitivity, and (optionally) an
:class:`InputModel` that makes execution time depend on the invocation's
input features through a simple polynomial — which is exactly the structure
the paper found after profiling 100+ open-source functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hardware.work import WorkUnit
from repro.workloads.inputs import SyntheticInputSpace
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment

#: Top frequency of the evaluation platform, GHz.
MAX_FREQ_GHZ = 3.0


@dataclass(frozen=True)
class InputModel:
    """How execution time depends on an invocation's input.

    ``multiplier`` maps a feature dict to a relative execution-time factor
    (≈1.0 for a median input). Only *relevant* features of ``space`` may
    influence it.
    """

    space: SyntheticInputSpace
    multiplier: Callable[[Dict[str, float]], float]

    def sample_features(self, rng: np.random.Generator,
                        dispersion: float = 1.0) -> Dict[str, float]:
        return self.space.sample(rng, dispersion)

    def time_multiplier(self, features: Dict[str, float]) -> float:
        value = float(self.multiplier(features))
        if value <= 0:
            raise ValueError(
                f"input multiplier must be positive, got {value}")
        return value


@dataclass(frozen=True)
class FunctionModel:
    """Analytic model of one serverless function."""

    name: str
    #: Total on-core time of a median warm invocation at 3.0 GHz (seconds).
    run_seconds_at_max: float
    #: Share of on-core time that scales with core frequency.
    compute_fraction: float
    #: Total off-core blocking time (RPC / storage), seconds.
    block_seconds: float
    #: How many block phases an invocation has (run segments = n_blocks+1).
    n_blocks: int
    #: Cold-start (container boot + runtime init) on-core work, seconds at
    #: the top frequency. Mostly compute (interpreter/library init).
    cold_start_seconds: float
    input_model: Optional[InputModel] = None
    #: Multiplicative run-time noise (lognormal cv) beyond input effects.
    run_noise_cv: float = 0.03
    #: Block times are much noisier (network/storage variance).
    block_noise_cv: float = 0.20
    llc_sensitivity: float = 0.1
    bw_sensitivity: float = 0.1
    max_freq_ghz: float = MAX_FREQ_GHZ

    def __post_init__(self) -> None:
        if self.run_seconds_at_max <= 0:
            raise ValueError(f"{self.name}: run time must be positive")
        if not 0.0 <= self.compute_fraction <= 1.0:
            raise ValueError(f"{self.name}: bad compute fraction")
        if self.block_seconds < 0 or self.cold_start_seconds < 0:
            raise ValueError(f"{self.name}: negative durations")
        if self.n_blocks < 0:
            raise ValueError(f"{self.name}: negative n_blocks")
        if self.block_seconds > 0 and self.n_blocks == 0:
            raise ValueError(
                f"{self.name}: blocking time requires at least one block phase")
        for attr in ("run_noise_cv", "block_noise_cv",
                     "llc_sensitivity", "bw_sensitivity"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{self.name}: negative {attr}")

    # ------------------------------------------------------------------
    # Expected (noise-free, median-input) characteristics
    # ------------------------------------------------------------------
    def run_seconds(self, freq_ghz: float) -> float:
        """Median on-core time at ``freq_ghz``."""
        if freq_ghz <= 0:
            raise ValueError(f"frequency must be positive: {freq_ghz}")
        scaled = self.compute_fraction * self.max_freq_ghz / freq_ghz
        flat = 1.0 - self.compute_fraction
        return self.run_seconds_at_max * (scaled + flat)

    def service_seconds(self, freq_ghz: float) -> float:
        """Median unqueued warm latency at ``freq_ghz`` (T_Run + T_Block)."""
        return self.run_seconds(freq_ghz) + self.block_seconds

    def slo_seconds(self, multiple: float = 5.0) -> float:
        """SLO = ``multiple`` × warm latency at the top frequency (§VII)."""
        if multiple <= 0:
            raise ValueError(f"SLO multiple must be positive: {multiple}")
        return multiple * self.service_seconds(self.max_freq_ghz)

    @property
    def idle_fraction(self) -> float:
        """Median share of an unqueued invocation spent blocked."""
        return self.block_seconds / self.service_seconds(self.max_freq_ghz)

    # ------------------------------------------------------------------
    # Invocation sampling
    # ------------------------------------------------------------------
    def sample_invocation(self, rng: np.random.Generator,
                          dispersion: float = 1.0,
                          mem_time_multiplier: float = 1.0) -> InvocationSpec:
        """Draw one concrete invocation.

        ``dispersion`` widens/narrows the input-feature distributions
        (Fig. 22's variability knob); ``mem_time_multiplier`` inflates the
        memory component (the Fig. 3 throttling study).
        """
        if mem_time_multiplier < 1.0:
            raise ValueError(
                f"mem_time_multiplier must be >= 1: {mem_time_multiplier}")
        features: Dict[str, float] = {}
        input_mult = 1.0
        if self.input_model is not None:
            features = self.input_model.sample_features(rng, dispersion)
            input_mult = self.input_model.time_multiplier(features)
        run_total = (self.run_seconds_at_max * input_mult
                     * self._lognoise(rng, self.run_noise_cv))
        # I/O time grows with input size too, but sub-linearly (larger
        # payloads amortise per-request latency). Every duration stays a
        # Python float, so the kernel clock never turns into a numpy
        # scalar (math.sqrt and np.sqrt both round correctly).
        block_total = (self.block_seconds * math.sqrt(input_mult)
                       * self._lognoise(rng, self.block_noise_cv))

        run_shares = self._shares(rng, self.n_blocks + 1)
        block_shares = self._shares(rng, self.n_blocks)
        segments = []
        for i, share in enumerate(run_shares):
            work = WorkUnit.from_profile(
                run_total * share, self.compute_fraction, self.max_freq_ghz)
            work.mem_seconds *= mem_time_multiplier
            segments.append(RunSegment(work))
            if i < self.n_blocks:
                segments.append(BlockSegment(block_total * block_shares[i]))
        return InvocationSpec(self.name, segments, features)

    def sample_cold_start_work(self, rng: np.random.Generator) -> WorkUnit:
        """On-core work of booting a container for this function."""
        seconds = self.cold_start_seconds * self._lognoise(rng, 0.1)
        return WorkUnit.from_profile(seconds, 0.85, self.max_freq_ghz)

    @staticmethod
    def _lognoise(rng: np.random.Generator, cv: float) -> float:
        """A lognormal factor with unit median and given dispersion."""
        if cv <= 0:
            return 1.0
        return float(np.exp(cv * rng.standard_normal()))

    @staticmethod
    def _shares(rng: np.random.Generator, n: int) -> List[float]:
        """n random positive shares summing to 1 (Dirichlet, mildly even).

        ``rng.dirichlet(np.full(n, 4.0))`` draws the same values and
        leaves the generator in the same state: for every alpha above 0.1
        numpy normalises standard-gamma draws by their running sum.
        """
        if n <= 0:
            return []
        if n == 1:
            return [1.0]
        gammas = rng.standard_gamma(4.0, n).tolist()
        # Add up in order, as numpy does: ``sum()`` compensates its
        # rounding on Python 3.12+ and can differ in the last bit.
        total = 0.0
        for g in gammas:
            total += g
        scale = 1.0 / total
        return [g * scale for g in gammas]
