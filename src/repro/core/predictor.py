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

    ``points`` are ``(freq_ghz, t_seconds)`` pairs. The unconstrained fit
    is the closed-form solution of the 2x2 normal equations, centred on
    the means. When every point sits at one frequency (one point, or a
    rank-one design) the fit is the conservative pure-compute model
    (``b = 0``) through the mean time.
    """
    if not points:
        raise ValueError("need at least one (frequency, time) point")
    inv_f = [1.0 / f for f, _ in points]
    times = [t for _, t in points]
    n = len(points)
    t_mean = sum(times) / n
    if min(inv_f) == max(inv_f):
        return (t_mean * points[0][0], 0.0)
    x_mean = sum(inv_f) / n
    sxx = sxy = 0.0
    for x, t in zip(inv_f, times):
        dx = x - x_mean
        sxx += dx * dx
        sxy += dx * (t - t_mean)
    a = sxy / sxx
    b = t_mean - a * x_mean
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

    #: MLP training cadence: every ``_MLP_REPLAY_EVERY`` observations,
    #: one ``partial_fit`` of ``_MLP_EPOCHS`` epochs on the rows observed
    #: since the last tick plus a replay sample of up to ``_MLP_BATCH``
    #: history rows (DESIGN.md §4b).
    _MLP_REPLAY_EVERY = 8
    _MLP_BATCH = 32
    _MLP_EPOCHS = 4

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
        #: Featured ``(row, freq_ghz, t_run_s)`` observations the MLP has
        #: not trained on yet.
        self._pending: List[tuple] = []
        # The (a, b) fit, valid until the next observe(); and the MLP's
        # top-frequency estimate per feature row (one forward per job,
        # however many levels the dispatcher asks about), valid until the
        # MLP next trains.
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
        self.history.record(freq_ghz, t_run_s, t_block_s, energy_j, features)
        t_run = self._t_run.get(freq_ghz)
        if t_run is None:
            t_run = self._t_run[freq_ghz] = AdaptiveEwma()
            self._energy[freq_ghz] = AdaptiveEwma()
        t_run.update(t_run_s)
        self._energy[freq_ghz].update(energy_j)
        self._t_block.update(t_block_s)
        self._observations += 1
        if self._mlp is not None and features:
            self._pending.append((self._row(features), freq_ghz, t_run_s))
            if self._observations % self._MLP_REPLAY_EVERY == 0:
                self._train_mlp()

    def _row(self, features: Dict[str, float]) -> List[float]:
        return [features.get(name, 0.0) for name in self.feature_names]

    def _train_mlp(self) -> None:
        """One training tick: the pending rows plus a replay sample, every
        target rescaled to the top frequency through the current fit."""
        batch, self._pending = self._pending, []
        rows = self.history.rows
        if len(rows) >= 4:
            sample = self._rng.choice(
                len(rows), size=min(self._MLP_BATCH, len(rows)),
                replace=False)
            batch += [(self._row(row.features), row.freq_ghz, row.t_run_s)
                      for row in (rows[i] for i in sample) if row.features]
        a, b = self._fit()
        x, y = [], []
        for row, freq_ghz, t_run_s in batch:
            target = self._to_max_freq(t_run_s, freq_ghz, a, b)
            if target > 0:
                x.append(row)
                y.append(target)
        if x:
            self._mlp.partial_fit(x, y, epochs=self._MLP_EPOCHS)
            self._mlp_cache.clear()

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
            row = self._row(features)
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
