"""Tests for FrequencyProfile and the compute/memory fit."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.predictor as predictor_module
from repro.core.mlp import MLPRegressor
from repro.core.predictor import FrequencyProfile, fit_compute_memory
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel


class TestFitComputeMemory:
    def test_single_point_is_pure_compute(self):
        a, b = fit_compute_memory([(3.0, 0.3)])
        assert a == pytest.approx(0.9)
        assert b == 0.0

    def test_two_points_recover_exact_model(self):
        # t = 0.6/f + 0.1
        points = [(3.0, 0.3), (1.2, 0.6)]
        a, b = fit_compute_memory(points)
        assert a == pytest.approx(0.6)
        assert b == pytest.approx(0.1)

    def test_fit_is_least_squares_over_many_points(self):
        rng = np.random.default_rng(0)
        freqs = [1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.0]
        points = [(f, 0.5 / f + 0.2 + rng.normal(0, 0.002)) for f in freqs]
        a, b = fit_compute_memory(points)
        assert a == pytest.approx(0.5, abs=0.05)
        assert b == pytest.approx(0.2, abs=0.03)

    def test_negative_memory_falls_back_to_compute_scaling(self):
        # Noise implying negative b must not produce negative times.
        points = [(3.0, 0.3), (1.2, 0.4)]  # slower than 1/f would allow
        a, b = fit_compute_memory(points)
        assert a >= 0 and b >= 0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            fit_compute_memory([])


freqs_st = st.floats(min_value=0.5, max_value=4.0)
times_st = st.floats(min_value=0.0, max_value=10.0)


class TestFitComputeMemoryDegenerate:
    """Today's behaviour on degenerate inputs, pinned point by point."""

    @given(st.lists(freqs_st, min_size=1, max_size=7), times_st)
    def test_identical_times_fit_nonnegative(self, freqs, t):
        a, b = fit_compute_memory([(f, t) for f in freqs])
        assert a >= 0 and b >= 0

    @given(freqs_st, st.lists(times_st, min_size=2, max_size=7))
    def test_one_repeated_frequency_fits_nonnegative(self, freq, times):
        # Every point at one frequency: the design matrix is rank one.
        a, b = fit_compute_memory([(freq, t) for t in times])
        assert a >= 0 and b >= 0

    @given(st.lists(freqs_st, min_size=2, max_size=7, unique=True),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_points_on_the_model_fit_nonnegative(self, freqs, a0, b0):
        a, b = fit_compute_memory([(f, a0 / f + b0) for f in freqs])
        assert a >= 0 and b >= 0

    @given(st.lists(freqs_st, min_size=1, max_size=7))
    def test_all_zero_times_fit_zero(self, freqs):
        assert fit_compute_memory([(f, 0.0) for f in freqs]) == (0.0, 0.0)

    @given(st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=1.2, max_value=2.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1.1, max_value=3.0))
    def test_negative_intercept_pair_falls_back_to_compute_scaling(
            self, f_low, ratio, t_high, work_ratio):
        # More work (t * f) at the lower frequency puts the line's
        # intercept below zero: the fit becomes pure compute scaling
        # through the mean of the scaled points.
        f_high = f_low * ratio
        t_low = work_ratio * t_high * f_high / f_low
        points = [(f_low, t_low), (f_high, t_high)]
        a, b = fit_compute_memory(points)
        assert a == float(np.mean([t * f for f, t in points]))
        assert b == 0.0

    @given(st.floats(min_value=0.5, max_value=2.0),
           st.floats(min_value=1.2, max_value=2.0),
           st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1.1, max_value=3.0))
    def test_negative_slope_pair_falls_back_to_constant_time(
            self, f_low, ratio, t_low, rise):
        # Slower at the higher frequency: a negative slope in 1/f, so the
        # fit drops the compute term and keeps the mean time.
        points = [(f_low, t_low), (f_low * ratio, t_low * rise)]
        a, b = fit_compute_memory(points)
        assert a == 0.0
        assert b == float(np.mean([t for _, t in points]))

    @given(st.lists(freqs_st, min_size=1, max_size=7, unique=True),
           st.data())
    def test_nan_time_propagates_instead_of_raising(self, freqs, data):
        # Guard safe mode screens NaN predictions, so the fit must hand
        # a NaN on rather than raise.
        times = [data.draw(times_st) for _ in freqs]
        times[data.draw(st.integers(0, len(freqs) - 1))] = math.nan
        a, b = fit_compute_memory(list(zip(freqs, times)))
        assert math.isnan(a)
        if len(freqs) == 1:
            assert b == 0.0
        else:
            assert math.isnan(b)


def make_profile(use_mlp=False, feature_names=None):
    return FrequencyProfile(FrequencyScale(), PowerModel(),
                            use_mlp=use_mlp,
                            feature_names=feature_names, seed=0)


class TestFrequencyProfile:
    def test_predictions_require_data(self):
        profile = make_profile()
        assert not profile.has_data
        with pytest.raises(RuntimeError):
            profile.predict_t_run(3.0)
        with pytest.raises(RuntimeError):
            profile.predict_t_block()
        with pytest.raises(RuntimeError):
            profile.predict_energy(3.0)

    def test_observed_frequency_uses_smoothed_measurements(self):
        profile = make_profile()
        for _ in range(20):
            profile.observe(3.0, 0.1, 0.05, 1.0)
        assert profile.predict_t_run(3.0) == pytest.approx(0.1, rel=0.05)
        assert profile.predict_t_block() == pytest.approx(0.05, rel=0.05)
        assert profile.predict_energy(3.0) == pytest.approx(1.0, rel=0.05)

    def test_single_frequency_extrapolates_conservatively(self):
        """With only top-frequency data, lower frequencies are predicted
        by pure compute scaling — an overestimate that can never cause a
        deadline miss by itself."""
        profile = make_profile()
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0, 1.0)
        predicted = profile.predict_t_run(1.2)
        assert predicted == pytest.approx(0.12 * 2.5, rel=0.05)

    def test_two_frequencies_recover_memory_component(self):
        profile = make_profile()
        # t(f) = 0.24/f + 0.04: t(3.0)=0.12, t(1.5)=0.20
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0, 1.0)
            profile.observe(1.5, 0.20, 0.0, 0.6)
        predicted = profile.predict_t_run(1.2)
        assert predicted == pytest.approx(0.24 / 1.2 + 0.04, rel=0.1)

    def test_energy_at_unmeasured_frequency_uses_power_model(self):
        profile = make_profile()
        power = PowerModel()
        for _ in range(10):
            profile.observe(3.0, 0.12, 0.0,
                            0.12 * power.core_active_power(3.0))
        e_low = profile.predict_energy(1.2)
        t_low = profile.predict_t_run(1.2)
        expected = t_low * (power.core_active_power(1.2)
                            + power.dram_active_power(1))
        assert e_low == pytest.approx(expected, rel=0.01)

    def test_lower_frequency_costs_less_energy_despite_longer_runtime(self):
        """The headroom the whole paper exploits must hold in the profile's
        own estimates."""
        profile = make_profile()
        power = PowerModel()
        for _ in range(10):
            profile.observe(3.0, 0.2, 0.0,
                            0.2 * power.core_active_power(3.0))
        assert profile.predict_energy(1.2) < profile.predict_energy(3.0)
        assert profile.predict_t_run(1.2) > profile.predict_t_run(3.0)

    def test_observation_counter(self):
        profile = make_profile()
        profile.observe(3.0, 0.1, 0.0, 1.0)
        profile.observe(3.0, 0.1, 0.0, 1.0)
        assert profile.observations == 2

    def test_mlp_refines_input_dependent_predictions(self):
        rng = np.random.default_rng(0)
        profile = make_profile(use_mlp=True, feature_names=["size", "noise"])
        # t_run at 3.0 = 0.01 * size
        for _ in range(300):
            size = float(rng.uniform(5, 20))
            profile.observe(3.0, 0.01 * size, 0.0, 1.0,
                            {"size": size, "noise": float(rng.uniform())})
        small = profile.predict_t_run(3.0, {"size": 6.0, "noise": 0.5})
        large = profile.predict_t_run(3.0, {"size": 18.0, "noise": 0.5})
        assert large > 1.8 * small

    def test_mlp_prediction_clamped_to_fit(self):
        profile = make_profile(use_mlp=True, feature_names=["x"])
        for i in range(40):
            profile.observe(3.0, 0.1, 0.0, 1.0, {"x": 1.0})
        # An absurd feature value cannot push the prediction outside the
        # safety band around the physical fit.
        wild = profile.predict_t_run(3.0, {"x": 1e9})
        assert 0.2 * 0.1 <= wild <= 5 * 0.1

    def test_history_is_shared_with_table(self):
        profile = make_profile()
        profile.observe(3.0, 0.1, 0.02, 1.0, {"a": 1.0})
        assert len(profile.history) == 1
        assert profile.history.rows[0].features == {"a": 1.0}


# ----------------------------------------------------------------------
# Caches: differential against a predictor that recomputes every call
# ----------------------------------------------------------------------
def reference_t_run(profile, freq, features=None):
    """``predict_t_run`` without caches: refit and run a forward each call."""
    points = [(f, ewma.forecast()) for f, ewma in profile._t_run.items()
              if ewma.initialized]
    a, b = fit_compute_memory(points)
    fit_value = max(0.0, a / freq + b)
    mlp = profile._mlp
    if (mlp is not None and features
            and mlp.samples_seen >= profile._MLP_BATCH):
        row = [features.get(n, 0.0) for n in profile.feature_names]
        refined = profile._from_max_freq(mlp.predict_one(row), freq, a, b)
        return float(np.clip(refined, 0.25 * fit_value, 4.0 * fit_value))
    ewma = profile._t_run.get(freq)
    if ewma is not None and ewma.initialized:
        return max(0.0, ewma.forecast())
    return fit_value


def reference_energy(profile, freq, features=None):
    ewma = profile._energy.get(freq)
    if features is None and ewma is not None and ewma.initialized:
        return max(0.0, ewma.forecast())
    power = profile.power
    return reference_t_run(profile, freq, features) * (
        power.core_active_power(freq) + power.dram_active_power(1))


FEATURES = ["noise", "size"]


@pytest.mark.parametrize("use_mlp,feature_names,seed", [
    (False, None, 1),
    (False, FEATURES, 2),
    (True, FEATURES, 3),
    (True, FEATURES, 4),
])
def test_cached_predictions_equal_recomputed_ones(use_mlp, feature_names,
                                                  seed):
    rng = random.Random(seed)
    profile = make_profile(use_mlp=use_mlp, feature_names=feature_names)
    levels = profile.scale.levels
    observed = [levels[0], levels[len(levels) // 2], levels[-1]]
    # A few rows recur, as one job's row does across the levels asked.
    rows = [{"size": rng.uniform(5, 20), "noise": rng.random()}
            for _ in range(6)]
    mlp_predictions = 0
    for step in range(600):
        features = rng.choice(rows + [None]) if feature_names else None
        if step < 3 or rng.random() < 0.3:
            freq = rng.choice(observed)
            size = features["size"] if features else 10.0
            t_run = (0.004 * size * 3.0 / freq + 0.01) * rng.uniform(0.9, 1.1)
            profile.observe(freq, t_run, rng.uniform(0.0, 0.02),
                            t_run * 20.0 * rng.uniform(0.9, 1.1), features)
            continue
        for freq in rng.sample(levels, rng.randint(3, 6)):
            kind = rng.random()
            if kind < 0.6:
                assert (profile.predict_t_run(freq, features)
                        == reference_t_run(profile, freq, features))
                if (use_mlp and features
                        and profile._mlp.samples_seen >= profile._MLP_BATCH):
                    mlp_predictions += 1
            elif kind < 0.9:
                assert (profile.predict_energy(freq, features)
                        == reference_energy(profile, freq, features))
            else:
                assert (profile.predict_t_block(features)
                        == max(0.0, profile._t_block.forecast()))
    if use_mlp:
        assert mlp_predictions > 200


def trained_profile(use_mlp):
    profile = make_profile(use_mlp=use_mlp, feature_names=["x"])
    for i in range(40):
        profile.observe(3.0 if i % 2 else 1.5, 0.1 + 0.01 * (i % 3), 0.0,
                        1.0, {"x": float(i % 5)})
    return profile


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_observe_invalidates_the_fit_cache(monkeypatch):
    profile = trained_profile(use_mlp=False)
    fits = count_calls(monkeypatch, predictor_module, "fit_compute_memory")
    before = [profile.predict_t_run(f) for f in (1.2, 2.0, 2.4)]
    assert len(fits) <= 1
    fits.clear()
    profile.observe(1.2, 0.5, 0.0, 1.0)
    after = [profile.predict_t_run(f) for f in (1.2, 2.0, 2.4)]
    assert len(fits) == 1
    assert after[1:] != before[1:]
    assert after == [reference_t_run(profile, f) for f in (1.2, 2.0, 2.4)]


def test_observe_invalidates_the_mlp_cache(monkeypatch):
    """A training tick clears the MLP cache; any other observe keeps it,
    because the cached value depends only on the network."""
    profile = trained_profile(use_mlp=True)  # 40 observations: a tick
    forwards = count_calls(monkeypatch, profile._mlp, "predict_one")
    row, levels = {"x": 2.0}, (1.2, 2.0, 3.0)
    before = [profile.predict_t_run(f, row) for f in levels]
    for _ in range(profile._MLP_REPLAY_EVERY - 1):
        profile.observe(3.0, 0.3, 0.0, 1.0, {"x": 2.0})
        between = [profile.predict_t_run(f, row) for f in levels]
    assert len(forwards) == 1
    assert between == [reference_t_run(profile, f, row) for f in levels]
    forwards.clear()
    profile.observe(3.0, 0.3, 0.0, 1.0, {"x": 2.0})
    after = [profile.predict_t_run(f, row) for f in levels]
    assert len(forwards) == 1
    assert after != before
    assert after == [reference_t_run(profile, f, row) for f in levels]


def test_eight_featured_observations_train_once(monkeypatch):
    profile = make_profile(use_mlp=True, feature_names=["x"])
    fits = count_calls(monkeypatch, profile._mlp, "partial_fit")
    steps = count_calls(monkeypatch, profile._mlp, "_adam_step")
    every = profile._MLP_REPLAY_EVERY
    for i in range(2 * every):
        profile.observe(3.0, 0.1 + 0.01 * (i % 3), 0.0, 1.0, {"x": float(i)})
        assert len(fits) == (i + 1) // every
    assert len(steps) == 2 * profile._MLP_EPOCHS
    # Each tick trains on its pending rows plus a replay sample of the
    # history so far.
    assert [len(x) for x, _ in fits] == [every + every, every + 2 * every]


def test_mlp_predict_one_is_uncached(monkeypatch):
    model = MLPRegressor(2, seed=0)
    model.partial_fit([[1.0, 2.0], [3.0, 1.0]], [0.1, 0.3])
    forwards = count_calls(monkeypatch, model, "_forward")
    first = model.predict_one([1.0, 2.0])
    assert model.predict_one([1.0, 2.0]) == first
    assert len(forwards) == 2
    model.partial_fit([[1.0, 2.0]], [0.5], epochs=3)
    assert model.predict_one([1.0, 2.0]) != first


# ----------------------------------------------------------------------
# Oracles that do not trust the code under test
# ----------------------------------------------------------------------
def lstsq_fit(points):
    """Unconstrained least squares of ``t = a/f + b`` through numpy."""
    inv_f = np.array([1.0 / f for f, _ in points])
    design = np.column_stack([inv_f, np.ones_like(inv_f)])
    times = np.array([t for _, t in points])
    (a, b), *_ = np.linalg.lstsq(design, times, rcond=None)
    return float(a), float(b)


class TestFitMatchesLeastSquaresOracle:
    # Distinct levels on a 0.1 GHz grid: well-conditioned designs only,
    # so any disagreement is the fit's and not the conditioning's.
    @given(st.lists(st.integers(5, 40), min_size=2, max_size=7,
                    unique=True).map(lambda tenths: [t / 10 for t in tenths]),
           st.data())
    def test_matches_lstsq_wherever_no_fallback_fires(self, freqs, data):
        # Noisy points around a random compute/memory split: most fits
        # land inside the non-negative quadrant, some fall back.
        a0 = data.draw(st.floats(min_value=0.0, max_value=2.0))
        b0 = data.draw(st.floats(min_value=0.0, max_value=1.0))
        times = [(a0 / f + b0) * data.draw(st.floats(0.7, 1.3)) + 1e-3
                 for f in freqs]
        points = list(zip(freqs, times))
        a_ref, b_ref = lstsq_fit(points)
        a, b = fit_compute_memory(points)
        if a_ref < 0 or b_ref < 0:
            assert a >= 0 and b >= 0
            return
        # ``b`` is a difference of terms as large as the times, so its
        # error scales with them and not with ``b`` itself.
        scale = max(times)
        assert a == pytest.approx(a_ref, rel=1e-9, abs=1e-9 * scale)
        assert b == pytest.approx(b_ref, rel=1e-9, abs=1e-9 * scale)


def true_t_run(features, freq):
    compute = 0.004 * features["size"] + 0.002 * features["depth"]
    return compute * 3.0 / freq + 0.01 + 0.002 * features["size"]


def mlp_stream(seed, n_observations):
    """Feed a profile a random, input-driven stream of observations.

    Yields ``(profile, features, freq, rng)`` before each observation.
    Ground truth is ``true_t_run``, measured with 5% noise at two to four
    random levels.
    """
    rng = random.Random(seed)
    profile = make_profile(use_mlp=True, feature_names=["depth", "size"])
    observed = rng.sample(profile.scale.levels, rng.randint(2, 4))
    for _ in range(n_observations):
        features = {"size": rng.uniform(5, 20), "depth": rng.uniform(0, 10)}
        freq = rng.choice(observed)
        yield profile, features, freq, rng
        t_run = true_t_run(features, freq) * rng.uniform(0.95, 1.05)
        profile.observe(freq, t_run, 0.0, t_run * 20.0, features)


def mlp_gate_open(profile):
    return profile._mlp.samples_seen >= profile._MLP_BATCH


class TestMlpPathOracles:
    @pytest.mark.parametrize("seed", range(4))
    def test_predictions_never_rise_with_frequency(self, seed):
        # T_run = C/f + M with C, M >= 0, refined and clamped through the
        # fit: a faster clock never predicts a longer run, for any row.
        checked = 0
        for profile, _, _, rng in mlp_stream(seed, 120):
            if not mlp_gate_open(profile):
                continue
            features = {"size": rng.uniform(0, 40),
                        "depth": rng.uniform(-5, 15)}
            times = [profile.predict_t_run(f, features)
                     for f in profile.scale.levels]
            assert all(slow >= fast for slow, fast
                       in zip(times, times[1:])), times
            checked += 1
        assert checked > 50

    def test_refined_predictions_beat_the_fit_alone(self):
        # Observation-stream MAPE: each prediction is made before its
        # observation is absorbed. Pooled over five streams, because one
        # online-trained network's error swings from stream to stream.
        refined, fit_only = [], []
        for seed in range(5):
            for profile, features, freq, _ in mlp_stream(seed, 200):
                if not mlp_gate_open(profile):
                    continue
                truth = true_t_run(features, freq)
                refined.append(abs(profile.predict_t_run(freq, features)
                                   - truth) / truth)
                fit_only.append(
                    abs(profile.predict_t_run(freq) - truth) / truth)
        mape, fit_mape = float(np.mean(refined)), float(np.mean(fit_only))
        assert mape < fit_mape
        assert mape < 0.2
