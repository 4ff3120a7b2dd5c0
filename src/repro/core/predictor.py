"""Per-function performance/energy prediction at any frequency.

A :class:`FrequencyProfile` digests the History Table into estimates of
``T_Run(f)``, ``T_Block``, and ``Energy(f)`` for every frequency level:

* per-frequency adaptive EWMAs smooth the measured ``T_Run`` / ``Energy``;
* frequencies never measured are extrapolated through the physical
  two-parameter model ``T_Run(f) = a/f + b`` (compute + memory time),
  least-squares-fitted to the measured levels — with a single measured
  level the fit is conservative (``b = 0``, pure compute scaling, which
  over-predicts the cost of slowing down and therefore never causes a
  deadline miss by itself);
* energy at unmeasured levels comes from the provider's power model
  applied to the extrapolated run time;
* optionally (Section VI-E2) a 3-layer MLP over *all* input features
  refines ``T_Run`` per invocation; frequency scaling still goes through
  the fitted physical model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.ewma import AdaptiveEwma
from repro.core.history import HistoryTable
from repro.core.mlp import MLPRegressor
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel


def fit_compute_memory(points: Sequence[tuple]) -> tuple:
    """Least-squares fit of ``t = a/f + b`` with ``a, b >= 0``.

    ``points`` are ``(freq_ghz, t_seconds)`` pairs. With one point the fit
    is the conservative pure-compute model (``b = 0``).
    """
    if not points:
        raise ValueError("need at least one (frequency, time) point")
    if len(points) == 1:
        freq, t = points[0]
        return (t * freq, 0.0)
    inv_f = np.array([1.0 / f for f, _ in points])
    times = np.array([t for _, t in points])
    design = np.column_stack([inv_f, np.ones_like(inv_f)])
    (a, b), *_ = np.linalg.lstsq(design, times, rcond=None)
    if b < 0:
        # Degenerate fit (noise): fall back to pure compute scaling
        # through the mean of the scaled points.
        a = float(np.mean([t * f for f, t in points]))
        b = 0.0
    if a < 0:
        a = 0.0
        b = float(np.mean(times))
    return (float(a), float(b))


class FrequencyProfile:
    """Online estimator of one function's time/energy vs frequency."""

    #: Replay-training cadence for the MLP.
    _MLP_REPLAY_EVERY = 8
    _MLP_BATCH = 32

    def __init__(self, scale: FrequencyScale, power: PowerModel,
                 history: Optional[HistoryTable] = None,
                 use_mlp: bool = False,
                 feature_names: Optional[Sequence[str]] = None,
                 seed: int = 0):
        self.scale = scale
        self.power = power
        self.history = history if history is not None else HistoryTable()
        self._t_run: Dict[float, AdaptiveEwma] = {}
        self._energy: Dict[float, AdaptiveEwma] = {}
        self._t_block = AdaptiveEwma()
        self.use_mlp = use_mlp
        self.feature_names: List[str] = sorted(feature_names or [])
        self._mlp: Optional[MLPRegressor] = None
        if use_mlp and self.feature_names:
            self._mlp = MLPRegressor(len(self.feature_names), seed=seed)
        self._rng = np.random.default_rng(seed)
        self._observations = 0
        # State derived from the observations, valid until the next
        # observe(): the (a, b) fit, and the MLP's top-frequency estimate
        # per feature row (one forward per job, however many levels the
        # dispatcher asks about).
        self._fit_cache: Optional[tuple] = None
        self._mlp_cache: Dict[tuple, float] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @property
    def has_data(self) -> bool:
        return self._observations > 0

    @property
    def observations(self) -> int:
        return self._observations

    def observe(self, freq_ghz: float, t_run_s: float, t_block_s: float,
                energy_j: float,
                features: Optional[Dict[str, float]] = None) -> None:
        """Absorb one measured invocation (the dispatcher's profiling)."""
        self._fit_cache = None
        self._mlp_cache.clear()
        self.history.record(freq_ghz, t_run_s, t_block_s, energy_j, features)
        self._t_run.setdefault(freq_ghz, AdaptiveEwma()).update(t_run_s)
        self._energy.setdefault(freq_ghz, AdaptiveEwma()).update(energy_j)
        self._t_block.update(t_block_s)
        self._observations += 1
        if self._mlp is not None and features:
            self._train_mlp(features, freq_ghz, t_run_s)

    def _train_mlp(self, features: Dict[str, float], freq_ghz: float,
                   t_run_s: float) -> None:
        a, b = self._fit()
        target = self._to_max_freq(t_run_s, freq_ghz, a, b)
        if target <= 0:
            return
        row = [features.get(name, 0.0) for name in self.feature_names]
        self._mlp.partial_fit([row], [target], epochs=2)
        if self._observations % self._MLP_REPLAY_EVERY == 0:
            self._replay()

    def _replay(self) -> None:
        rows = self.history.rows
        if len(rows) < 4:
            return
        a, b = self._fit()
        sample = self._rng.choice(
            len(rows), size=min(self._MLP_BATCH, len(rows)), replace=False)
        x, y = [], []
        for i in sample:
            row = rows[i]
            if not row.features:
                continue
            target = self._to_max_freq(row.t_run_s, row.freq_ghz, a, b)
            if target <= 0:
                continue
            x.append([row.features.get(n, 0.0) for n in self.feature_names])
            y.append(target)
        if x:
            self._mlp.partial_fit(x, y, epochs=2)

    # ------------------------------------------------------------------
    # Frequency scaling
    # ------------------------------------------------------------------
    def _fit(self) -> tuple:
        if self._fit_cache is None:
            points = [(freq, ewma.forecast())
                      for freq, ewma in self._t_run.items()
                      if ewma.initialized]
            if not points:
                raise RuntimeError("no T_Run observations yet")
            self._fit_cache = fit_compute_memory(points)
        return self._fit_cache

    def _to_max_freq(self, t_run_s: float, freq_ghz: float,
                     a: float, b: float) -> float:
        """Rescale a measured run time to the top frequency via the fit."""
        t_at_freq = a / freq_ghz + b
        t_at_max = a / self.scale.max + b
        if t_at_freq <= 0:
            return t_run_s
        return t_run_s * t_at_max / t_at_freq

    def _from_max_freq(self, t_at_max: float, freq_ghz: float,
                       a: float, b: float) -> float:
        t_max_model = a / self.scale.max + b
        t_f_model = a / freq_ghz + b
        if t_max_model <= 0:
            return t_at_max
        return t_at_max * t_f_model / t_max_model

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def predict_t_run(self, freq_ghz: float,
                      features: Optional[Dict[str, float]] = None) -> float:
        """Expected on-core seconds at ``freq_ghz`` (input-aware if set)."""
        if not self.has_data:
            raise RuntimeError("no observations yet")
        a, b = self._fit()
        fit_value = max(0.0, a / freq_ghz + b)
        if (self._mlp is not None and features
                and self._mlp.samples_seen >= self._MLP_BATCH):
            row = [features.get(n, 0.0) for n in self.feature_names]
            key = tuple(row)
            t_at_max = self._mlp_cache.get(key)
            if t_at_max is None:
                t_at_max = self._mlp_cache[key] = self._mlp.predict_one(row)
            refined = self._from_max_freq(t_at_max, freq_ghz, a, b)
            # A barely-trained network can be wildly off; never let it
            # stray far from the fitted physical model. The band is never
            # inverted (fit_value >= 0); a NaN ``refined`` propagates.
            return min(max(refined, 0.25 * fit_value), 4.0 * fit_value)
        ewma = self._t_run.get(freq_ghz)
        if ewma is not None and ewma.initialized:
            return max(0.0, ewma.forecast())
        return fit_value

    def predict_t_block(self,
                        features: Optional[Dict[str, float]] = None) -> float:
        if not self._t_block.initialized:
            raise RuntimeError("no observations yet")
        return max(0.0, self._t_block.forecast())

    def predict_energy(self, freq_ghz: float,
                       features: Optional[Dict[str, float]] = None) -> float:
        """Expected active energy of one invocation at ``freq_ghz``."""
        if not self.has_data:
            raise RuntimeError("no observations yet")
        ewma = self._energy.get(freq_ghz)
        if features is None and ewma is not None and ewma.initialized:
            return max(0.0, ewma.forecast())
        # Derive from the predicted run time through the power model.
        t_run = self.predict_t_run(freq_ghz, features)
        power_w = (self.power.core_active_power(freq_ghz)
                   + self.power.dram_active_power(1))
        return t_run * power_w
