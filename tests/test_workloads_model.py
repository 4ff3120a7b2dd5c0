"""Tests for FunctionModel: calibration, sampling, paper-shape checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import inputs
from repro.workloads.functionbench import (
    CNN_SERV,
    ML_TRAIN,
    STANDALONE_FUNCTIONS,
    VID_PROC,
    WEB_SERV,
)
from repro.workloads.model import FunctionModel
from repro.workloads.registry import all_benchmarks
from repro.workloads.spec import RunSegment

#: Every function model of the twelve benchmarks, by name.
ALL_FUNCTIONS = {fn.name: fn for workflow in all_benchmarks()
                 for stage in workflow.stages for fn in stage.functions}

#: Every discrete ("choice") feature of the shipped input spaces.
CHOICE_FEATURES = {
    (space.name, feature.name): feature
    for space in (inputs.json_space(), inputs.image_space(),
                  inputs.video_space(), inputs.text_space(),
                  inputs.tabular_space())
    for feature in space.features if feature.kind == "choice"}


class TestFunctionModelBasics:
    def test_run_seconds_at_top_frequency_matches_parameter(self):
        for f in STANDALONE_FUNCTIONS:
            assert f.run_seconds(3.0) == pytest.approx(f.run_seconds_at_max)

    def test_run_seconds_grows_at_lower_frequency(self):
        for f in STANDALONE_FUNCTIONS:
            assert f.run_seconds(1.2) > f.run_seconds(3.0)

    def test_slo_is_five_times_warm_latency(self):
        f = CNN_SERV
        assert f.slo_seconds() == pytest.approx(5 * f.service_seconds(3.0))
        assert f.slo_seconds(multiple=3.0) == pytest.approx(
            3 * f.service_seconds(3.0))

    def test_slo_multiple_must_be_positive(self):
        with pytest.raises(ValueError):
            CNN_SERV.slo_seconds(multiple=0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FunctionModel("bad", run_seconds_at_max=0.0,
                          compute_fraction=0.5, block_seconds=0.0,
                          n_blocks=0, cold_start_seconds=0.1)
        with pytest.raises(ValueError):
            FunctionModel("bad", run_seconds_at_max=0.1,
                          compute_fraction=1.5, block_seconds=0.0,
                          n_blocks=0, cold_start_seconds=0.1)
        with pytest.raises(ValueError):
            FunctionModel("bad", run_seconds_at_max=0.1,
                          compute_fraction=0.5, block_seconds=0.1,
                          n_blocks=0, cold_start_seconds=0.1)

    def test_frequency_must_be_positive(self):
        with pytest.raises(ValueError):
            CNN_SERV.run_seconds(0.0)


class TestPaperCalibration:
    """The characterization shapes the whole design rests on (Figs. 2-3)."""

    def test_webserv_is_io_dominated(self):
        # WebServ at 1.2 GHz loses only ~12% response time in the paper.
        rt_slow = WEB_SERV.service_seconds(1.2)
        rt_fast = WEB_SERV.service_seconds(3.0)
        assert 1.05 < rt_slow / rt_fast < 1.25

    def test_cnnserv_loses_about_quarter_at_2ghz(self):
        # Paper: 2 GHz costs CNNServ ~23% response time.
        rt_slow = CNN_SERV.service_seconds(2.1)
        rt_fast = CNN_SERV.service_seconds(3.0)
        assert 1.15 < rt_slow / rt_fast < 1.35

    def test_mltrain_is_most_frequency_sensitive(self):
        ratios = {
            f.name: f.service_seconds(1.2) / f.service_seconds(3.0)
            for f in STANDALONE_FUNCTIONS
        }
        assert max(ratios, key=ratios.get) == "MLTrain"

    def test_storage_functions_idle_majority_of_time(self):
        # Section III-3: storage-accessing functions idle ~70%.
        assert WEB_SERV.idle_fraction > 0.6

    def test_execution_times_span_milliseconds_to_seconds(self):
        times = [f.run_seconds_at_max for f in STANDALONE_FUNCTIONS]
        assert min(times) < 0.01
        assert max(times) > 1.0

    def test_energy_saving_headroom_exists_for_compute_bound(self):
        """Running CNNServ at 2.1 GHz must cost ~40% less energy than at
        3.0 GHz (Fig. 2b) under the calibrated power model."""
        from repro.hardware.power import PowerModel
        power = PowerModel()
        def run_energy(freq):
            return power.core_active_power(freq) * CNN_SERV.run_seconds(freq)
        saving = 1.0 - run_energy(2.1) / run_energy(3.0)
        assert 0.25 < saving < 0.55


class TestInvocationSampling:
    def test_sampled_run_time_near_model_median(self):
        rng = np.random.default_rng(0)
        samples = [
            CNN_SERV.sample_invocation(rng).total_run_seconds(3.0)
            for _ in range(500)
        ]
        assert np.median(samples) == pytest.approx(
            CNN_SERV.run_seconds_at_max, rel=0.15)

    def test_segment_structure_matches_n_blocks(self):
        rng = np.random.default_rng(0)
        spec = VID_PROC.sample_invocation(rng)
        assert len(spec.run_segments) == VID_PROC.n_blocks + 1
        assert len(spec.block_segments) == VID_PROC.n_blocks

    def test_features_populated_for_input_sensitive_functions(self):
        rng = np.random.default_rng(0)
        spec = VID_PROC.sample_invocation(rng)
        assert "duration_s" in spec.features

    def test_input_dependence_moves_execution_time(self):
        rng = np.random.default_rng(0)
        specs = [VID_PROC.sample_invocation(rng) for _ in range(300)]
        durations = [s.features["duration_s"] for s in specs]
        runs = [s.total_run_seconds(3.0) for s in specs]
        corr = np.corrcoef(durations, runs)[0, 1]
        assert corr > 0.9

    def test_zero_dispersion_removes_input_variation(self):
        rng = np.random.default_rng(0)
        runs = [
            VID_PROC.sample_invocation(rng, dispersion=0.0).total_run_seconds(3.0)
            for _ in range(100)
        ]
        spread = np.std(runs) / np.mean(runs)
        assert spread < 0.15  # only the residual run noise remains

    def test_mem_multiplier_inflates_memory_time_only(self):
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        base = CNN_SERV.sample_invocation(rng1)
        throttled = CNN_SERV.sample_invocation(rng2, mem_time_multiplier=1.5)
        base_cycles = sum(s.work.gcycles for s in base.run_segments)
        throttled_cycles = sum(s.work.gcycles for s in throttled.run_segments)
        base_mem = sum(s.work.mem_seconds for s in base.run_segments)
        throttled_mem = sum(s.work.mem_seconds for s in throttled.run_segments)
        assert throttled_cycles == pytest.approx(base_cycles)
        assert throttled_mem == pytest.approx(base_mem * 1.5)

    def test_mem_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            CNN_SERV.sample_invocation(np.random.default_rng(0),
                                       mem_time_multiplier=0.5)

    def test_cold_start_work_is_compute_heavy(self):
        rng = np.random.default_rng(0)
        work = CNN_SERV.sample_cold_start_work(rng)
        assert work.duration(3.0) == pytest.approx(
            CNN_SERV.cold_start_seconds, rel=0.5)
        # Cold starts are compute-dominated (interpreter + library init).
        assert work.gcycles / 3.0 > work.mem_seconds

    def test_sampling_is_deterministic_per_seed(self):
        a = ML_TRAIN.sample_invocation(np.random.default_rng(3))
        b = ML_TRAIN.sample_invocation(np.random.default_rng(3))
        assert a.total_run_seconds(3.0) == b.total_run_seconds(3.0)
        assert a.features == b.features


@settings(max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000),
       freq=st.sampled_from([1.2, 1.8, 2.4, 3.0]))
def test_sampled_segments_always_consistent(seed, freq):
    """Sampled invocations always satisfy the structural invariants the
    platform relies on: positive run work, block total matches segments."""
    rng = np.random.default_rng(seed)
    for model in STANDALONE_FUNCTIONS:
        spec = model.sample_invocation(rng)
        assert spec.total_run_seconds(freq) > 0
        assert spec.total_block_seconds >= 0
        assert spec.function_name == model.name
        assert spec.service_time(freq) == pytest.approx(
            spec.total_run_seconds(freq) + spec.total_block_seconds)


def test_sampled_durations_are_python_floats():
    """The kernel clock stays a float only if every sampled duration is
    one: a numpy scalar delay turns ``Environment.now`` into numpy math
    for the rest of the run."""
    assert len(ALL_FUNCTIONS) == 37
    rng = np.random.default_rng(11)
    for model in ALL_FUNCTIONS.values():
        for _ in range(3):
            spec = model.sample_invocation(rng)
            for segment in spec.segments:
                if isinstance(segment, RunSegment):
                    values = (segment.work.gcycles, segment.work.mem_seconds)
                else:
                    values = (segment.seconds,)
                assert all(type(v) is float for v in values), (
                    model.name, segment)
            assert all(type(v) is float for v in spec.features.values())


class TestRngEquivalence:
    """The sampler's cheaper draws against numpy's own calls.

    Each pair of twin generators must yield equal values and be left in
    the same state, so every later draw of a run is unchanged too.
    """

    SEEDS = range(40)

    @pytest.mark.parametrize("key", sorted(CHOICE_FEATURES),
                             ids="-".join)
    def test_choice_matches_generator_choice(self, key):
        feature = CHOICE_FEATURES[key]
        for seed in self.SEEDS:
            ours = np.random.default_rng(seed)
            oracle = np.random.default_rng(seed)
            for _ in range(50):
                assert feature.sample(ours) == float(
                    oracle.choice(feature.params))
            assert ours.random() == oracle.random()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_shares_match_generator_dirichlet(self, n):
        for seed in self.SEEDS:
            ours = np.random.default_rng(seed)
            oracle = np.random.default_rng(seed)
            for _ in range(50):
                shares = FunctionModel._shares(ours, n)
                assert all(type(v) is float for v in shares)
                assert shares == oracle.dirichlet(np.full(n, 4.0)).tolist()
            assert ours.random() == oracle.random()

    def test_degenerate_shares_draw_nothing(self):
        ours = np.random.default_rng(5)
        oracle = np.random.default_rng(5)
        assert FunctionModel._shares(ours, 0) == []
        assert FunctionModel._shares(ours, 1) == [1.0]
        assert ours.random() == oracle.random()
