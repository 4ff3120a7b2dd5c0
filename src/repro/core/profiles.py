"""Cluster-wide per-function profile store (heterogeneity-aware).

In the paper every Function Dispatcher profiles locally and ships its
History Table to the Workflow Controller every ``T_update``; functionally
the controller and dispatchers share one view of each function's behaviour.
We keep that shared view directly — one :class:`FrequencyProfile` per
*(machine type, function)* pair, since a Delay-Power Table measured on one
microarchitecture does not transfer to another (Section VI-E3).

For functions not yet profiled on some machine type, the store bridges
predictions from a profiled type through the paper's transfer-learning
regression: a linear model fitted over the functions measured on both
types rescales the source prediction. With fewer than two common
functions the bridge falls back to an identity ratio (equivalent to the
paper's short per-type profiling period).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import EcoFaaSConfig
from repro.core.ewma import AdaptiveEwma
from repro.core.history import HistoryTable
from repro.core.predictor import FrequencyProfile
from repro.core.transfer import TransferModel
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.workloads.model import FunctionModel

#: Default machine type of a homogeneous cluster.
DEFAULT_TYPE = "haswell"

#: History Table capacity (Section VII: the last 100 invocations).
HISTORY_CAPACITY = 100

#: Observations before a function's predictions are trusted.
MIN_PROFILE_OBSERVATIONS = 3


class ProfileStore:
    """Lazily-created per-(machine type, function) profiles."""

    def __init__(self, scale: FrequencyScale, power: PowerModel,
                 config: EcoFaaSConfig, seed: int = 0):
        self.scale = scale
        self.power = power
        self.config = config
        self.seed = seed
        self._profiles: Dict[Tuple[str, str], FrequencyProfile] = {}
        self._queue_ewma: Dict[str, AdaptiveEwma] = {}
        self._cold_ewma: Dict[str, AdaptiveEwma] = {}
        self._level_queue_ewma: Dict[float, AdaptiveEwma] = {}
        #: Cached transfer models keyed by (src_type, dst_type) plus the
        #: total observation count they were fitted at.
        self._bridges: Dict[Tuple[str, str], Tuple[int, Optional[TransferModel]]] = {}
        self._total_observations = 0

    # ------------------------------------------------------------------
    # Profile access
    # ------------------------------------------------------------------
    def profile(self, fn_model: FunctionModel,
                machine_type: str = DEFAULT_TYPE) -> FrequencyProfile:
        """The function's profile on one machine type (created lazily)."""
        key = (machine_type, fn_model.name)
        if key not in self._profiles:
            feature_names = []
            use_mlp = False
            if (self.config.use_input_model
                    and fn_model.input_model is not None):
                feature_names = fn_model.input_model.space.feature_names
                use_mlp = True
            self._profiles[key] = FrequencyProfile(
                scale=self.scale, power=self.power,
                history=HistoryTable(HISTORY_CAPACITY),
                use_mlp=use_mlp, feature_names=feature_names,
                seed=self.seed)
        return self._profiles[key]

    def profile_by_name(self, function_name: str,
                        machine_type: Optional[str] = None
                        ) -> FrequencyProfile:
        """An existing profile; without a type, the best-observed one."""
        if machine_type is not None:
            try:
                return self._profiles[(machine_type, function_name)]
            except KeyError:
                raise KeyError(
                    f"no profile yet for {function_name!r}"
                    f" on {machine_type!r}") from None
        candidates = [(profile.observations, mtype, profile)
                      for (mtype, name), profile in self._profiles.items()
                      if name == function_name]
        if not candidates:
            raise KeyError(f"no profile yet for {function_name!r}")
        candidates.sort(key=lambda c: (-c[0], c[1]))
        return candidates[0][2]

    @property
    def observations(self) -> int:
        """Observations noted so far; any cache of predictions made at
        an older count is stale."""
        return self._total_observations

    def note_observation(self) -> None:
        """Bridge-cache invalidation tick (called by dispatchers)."""
        self._total_observations += 1

    def ready(self, function_name: str,
              machine_type: str = DEFAULT_TYPE) -> bool:
        """Trustworthy on this machine type, directly or via a bridge."""
        if self._ready_direct(function_name, machine_type):
            return True
        return self._bridge_source(function_name, machine_type) is not None

    def _ready_direct(self, function_name: str, machine_type: str) -> bool:
        profile = self._profiles.get((machine_type, function_name))
        return (profile is not None
                and profile.observations
                >= MIN_PROFILE_OBSERVATIONS)

    def _types_with(self, function_name: str) -> List[str]:
        return [mtype for (mtype, name) in self._profiles
                if name == function_name
                and self._ready_direct(name, mtype)]

    # ------------------------------------------------------------------
    # Transfer bridging (Section VI-E3)
    # ------------------------------------------------------------------
    def _bridge_source(self, function_name: str,
                       machine_type: str) -> Optional[str]:
        """A machine type whose profile can stand in for ``machine_type``."""
        types = self._types_with(function_name)
        if not types:
            return None
        if DEFAULT_TYPE in types:
            return DEFAULT_TYPE
        return sorted(types)[0]

    def _bridge_ratio(self, src_type: str, dst_type: str) -> float:
        """Fitted src→dst run-time ratio (1.0 until two common functions)."""
        if src_type == dst_type:
            return 1.0
        cache_key = (src_type, dst_type)
        cached = self._bridges.get(cache_key)
        if cached is not None and cached[0] == self._total_observations:
            model = cached[1]
            return model.slope if model is not None else 1.0
        src_vals, dst_vals = [], []
        for (mtype, name), profile in self._profiles.items():
            if mtype != src_type:
                continue
            if not self._ready_direct(name, src_type):
                continue
            if not self._ready_direct(name, dst_type):
                continue
            other = self._profiles[(dst_type, name)]
            src_vals.append(profile.predict_t_run(self.scale.max))
            dst_vals.append(other.predict_t_run(self.scale.max))
        model = None
        if len(src_vals) >= 2:
            try:
                model = TransferModel.fit(src_vals, dst_vals)
            except ValueError:
                model = None
        self._bridges[cache_key] = (self._total_observations, model)
        return model.slope if model is not None else 1.0

    def predict_t_run(self, function_name: str, machine_type: str,
                      freq_ghz: float,
                      features: Optional[dict] = None) -> float:
        """T_Run prediction on ``machine_type``, bridged when necessary."""
        if self._ready_direct(function_name, machine_type):
            return self._profiles[(machine_type, function_name)].predict_t_run(
                freq_ghz, features)
        source = self._bridge_source(function_name, machine_type)
        if source is None:
            raise KeyError(f"no usable profile for {function_name!r}")
        base = self._profiles[(source, function_name)].predict_t_run(
            freq_ghz, features)
        return base * self._bridge_ratio(source, machine_type)

    def predict_t_block(self, function_name: str, machine_type: str,
                        features: Optional[dict] = None) -> float:
        """T_Block prediction (I/O time barely depends on the machine)."""
        if self._ready_direct(function_name, machine_type):
            return self._profiles[(machine_type, function_name)
                                  ].predict_t_block(features)
        source = self._bridge_source(function_name, machine_type)
        if source is None:
            raise KeyError(f"no usable profile for {function_name!r}")
        return self._profiles[(source, function_name)].predict_t_block(
            features)

    def predict_energy(self, function_name: str, machine_type: str,
                       freq_ghz: float,
                       features: Optional[dict] = None) -> float:
        """Active-energy prediction on ``machine_type``."""
        if self._ready_direct(function_name, machine_type):
            return self._profiles[(machine_type, function_name)
                                  ].predict_energy(freq_ghz, features)
        t_run = self.predict_t_run(function_name, machine_type, freq_ghz,
                                   features)
        power_w = (self.power.core_active_power(freq_ghz)
                   + self.power.dram_active_power(1))
        return t_run * power_w

    # ------------------------------------------------------------------
    # Shared EWMAs (machine-independent signals)
    # ------------------------------------------------------------------
    def queue_ewma(self, function_name: str) -> AdaptiveEwma:
        """Smoothed observed T_Queue (feeds the DPT's time entries)."""
        if function_name not in self._queue_ewma:
            self._queue_ewma[function_name] = AdaptiveEwma()
        return self._queue_ewma[function_name]

    def level_queue_ewma(self, freq_ghz: float) -> AdaptiveEwma:
        """Smoothed observed T_Queue at pools of one frequency level.

        Lower-frequency pools hold longer queues (their jobs run slower),
        so planning decisions must see a *per-level* queue estimate — a
        single global T_Queue would let the MILP plan tight functions onto
        hopelessly congested slow pools.
        """
        if freq_ghz not in self._level_queue_ewma:
            self._level_queue_ewma[freq_ghz] = AdaptiveEwma()
        return self._level_queue_ewma[freq_ghz]

    def level_queue_estimate(self, freq_ghz: float) -> float:
        """Non-negative T_Queue estimate for a level (0 before any data)."""
        ewma = self.level_queue_ewma(freq_ghz)
        return max(0.0, ewma.forecast_or(0.0))

    def cold_ewma(self, function_name: str) -> AdaptiveEwma:
        """Smoothed cold-start duration, normalised to the top frequency."""
        if function_name not in self._cold_ewma:
            self._cold_ewma[function_name] = AdaptiveEwma()
        return self._cold_ewma[function_name]
