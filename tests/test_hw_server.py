"""Tests for the server assembly, energy meter, and frequency timeline."""

import pytest

from repro.hardware.energy import EnergyMeter, FrequencyTimeline
from repro.hardware.frequency import FrequencyScale
from repro.hardware.server import Server
from repro.hardware.work import WorkUnit
from repro.sim import Environment


class TestEnergyMeter:
    def test_starts_empty(self):
        meter = EnergyMeter()
        assert meter.total_j == 0.0
        assert meter.consumer_j("anything") == 0.0

    def test_add_and_total(self):
        meter = EnergyMeter()
        meter.add("core_active", 10.0)
        meter.add("uncore", 5.0)
        assert meter.total_j == 15.0
        assert meter.component_j("core_active") == 10.0

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            EnergyMeter().add("gpu", 1.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyMeter().add("dram", -1.0)
        with pytest.raises(ValueError):
            EnergyMeter().attribute("f", -1.0)

    def test_attribution_accumulates(self):
        meter = EnergyMeter()
        meter.attribute("f", 2.0)
        meter.attribute("f", 3.0)
        meter.attribute("g", 1.0)
        assert meter.consumer_j("f") == 5.0
        assert meter.by_consumer() == {"f": 5.0, "g": 1.0}

    def test_by_component_returns_copy(self):
        meter = EnergyMeter()
        snapshot = meter.by_component()
        snapshot["dram"] = 999.0
        assert meter.component_j("dram") == 0.0


class TestFrequencyTimeline:
    def test_sample_and_read_back(self):
        timeline = FrequencyTimeline()
        timeline.sample(0.0, [3.0, 1.2])
        timeline.sample(1.0, [1.2, 1.2])
        assert timeline.times == [0.0, 1.0]
        assert timeline.values == [pytest.approx(2.1), pytest.approx(1.2)]

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            FrequencyTimeline().sample(0.0, [])

    def test_rejects_time_travel(self):
        timeline = FrequencyTimeline()
        timeline.sample(5.0, [1.0])
        with pytest.raises(ValueError):
            timeline.sample(4.0, [1.0])

    def test_time_average_weights_by_interval(self):
        timeline = FrequencyTimeline()
        timeline.sample(0.0, [3.0])
        timeline.sample(3.0, [1.0])   # 3.0 held for 3 s
        timeline.sample(4.0, [1.0])   # 1.0 held for 1 s
        assert timeline.time_average() == pytest.approx((3.0 * 3 + 1.0) / 4)

    def test_time_average_of_empty_raises(self):
        with pytest.raises(ValueError):
            FrequencyTimeline().time_average()

    def test_time_average_single_sample(self):
        timeline = FrequencyTimeline()
        timeline.sample(0.0, [2.4])
        assert timeline.time_average() == 2.4


class TestServer:
    def test_default_matches_paper_platform(self):
        server = Server(Environment())
        assert server.n_cores == 20
        assert all(core.frequency == 3.0 for core in server.cores)

    def test_initial_frequency_must_be_a_level(self):
        with pytest.raises(ValueError):
            Server(Environment(), initial_freq_ghz=2.0)

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            Server(Environment(), n_cores=0)

    def test_idle_and_busy_core_views(self):
        env = Environment()
        server = Server(env, n_cores=2)
        assert len(server.idle_cores()) == 2
        server.cores[0].start(WorkUnit(3.0), "f", lambda c: None)
        assert len(server.idle_cores()) == 1
        assert server.busy_cores() == [server.cores[0]]
        assert server.utilization == 0.5

    def test_finalize_charges_background_power_once(self):
        env = Environment()
        server = Server(env, n_cores=2)
        env.run(until=10.0)
        server.finalize()
        first = server.total_energy_j
        server.finalize()  # idempotent at same timestamp
        assert server.total_energy_j == first
        background = server.power.background_power() * 10.0
        idle = 2 * server.power.core_idle_power() * 10.0
        assert first == pytest.approx(background + idle)

    def test_finalize_across_intervals_is_additive(self):
        env = Environment()
        server = Server(env, n_cores=1)
        env.run(until=4.0)
        server.finalize()
        e1 = server.total_energy_j
        env.run(until=10.0)
        server.finalize()
        assert server.total_energy_j == pytest.approx(e1 * 10.0 / 4.0)

    def test_sample_timeline_records_all_cores(self):
        env = Environment()
        server = Server(env, n_cores=4, scale=FrequencyScale())
        server.cores[0].set_frequency(1.2)
        server.sample_timeline()
        assert server.timeline.values[0] == pytest.approx(
            (1.2 + 3.0 * 3) / 4)

    def test_busy_server_energy_exceeds_idle_server_energy(self):
        def run_server(load_cores):
            env = Environment()
            server = Server(env, n_cores=4)
            for core in server.cores[:load_cores]:
                core.start(WorkUnit(gcycles=30.0), "f", lambda c: None)
            env.run(until=5.0)
            server.finalize()
            return server.total_energy_j

        assert run_server(4) > run_server(1) > run_server(0)
