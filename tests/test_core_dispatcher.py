"""Focused tests for the Energy-Aware Dispatcher and the EcoFaaS node."""

import numpy as np
import pytest

from repro.core.config import EcoFaaSConfig
from repro.core.node import EcoFaaSNode
from repro.core.profiles import ProfileStore
from repro.hardware.server import Server
from repro.platform.metrics import MetricsCollector
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.functionbench import CNN_SERV, WEB_SERV


def make_node(config=None, n_cores=4):
    # elastic=False: the refresh loop is an infinite process, and these
    # unit tests drive env.run() without an `until` bound.
    env = Environment()
    server = Server(env, n_cores=n_cores)
    config = config or EcoFaaSConfig(prewarm=False, elastic=False)
    store = ProfileStore(server.scale, server.power, config)
    node = EcoFaaSNode(env, server, MetricsCollector(), RngRegistry(0),
                       config, store)
    return env, node, store


def warm_profile(store, fn_model, freq=3.0, t_run=None, t_block=None,
                 energy=1.0, n=10):
    """Pre-populate a function's profile with consistent observations."""
    profile = store.profile(fn_model)
    t_run = t_run if t_run is not None else fn_model.run_seconds(freq)
    t_block = t_block if t_block is not None else fn_model.block_seconds
    for _ in range(n):
        profile.observe(freq, t_run, t_block, energy)
    return profile


def submit(env, node, fn_model, deadline_offset=None, seniority=None):
    spec = fn_model.sample_invocation(np.random.default_rng(0))
    deadline = (env.now + deadline_offset
                if deadline_offset is not None else None)
    return node.submit(fn_model, spec, deadline, fn_model.name,
                       seniority_time_s=seniority)


class TestDispatcherColdPaths:
    def test_no_profile_runs_at_max(self):
        env, node, _ = make_node()
        job = submit(env, node, WEB_SERV, deadline_offset=10.0)
        assert job.chosen_freq_ghz == 3.0
        env.run()
        assert job.finished

    def test_cold_start_runs_at_max_even_with_profile(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        job = submit(env, node, WEB_SERV, deadline_offset=10.0)
        assert job.cold_start
        assert job.chosen_freq_ghz == 3.0

    def test_no_deadline_runs_at_max(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        # Warm the container first.
        submit(env, node, WEB_SERV, deadline_offset=10.0)
        env.run()
        job = submit(env, node, WEB_SERV, deadline_offset=None)
        assert job.chosen_freq_ghz == 3.0


class TestDispatcherProfiledPath:
    def _warm_container(self, env, node, fn_model):
        job = submit(env, node, fn_model, deadline_offset=100.0)
        env.run()
        return job

    def test_loose_deadline_picks_lowest_available_pool(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        self._warm_container(env, node, WEB_SERV)
        # Force a low-frequency pool into existence.
        node._pools.append(node._make_pool(1.2, []))
        node._pools[-1].add_core(node._pools[0].release_idle_core())
        job = submit(env, node, WEB_SERV, deadline_offset=100.0)
        assert job.chosen_freq_ghz == 1.2
        env.run()
        assert job.finished and job.met_deadline

    def test_tight_deadline_picks_fast_pool(self):
        env, node, store = make_node()
        warm_profile(store, CNN_SERV)
        self._warm_container(env, node, CNN_SERV)
        node._pools.append(node._make_pool(1.2, []))
        node._pools[-1].add_core(node._pools[0].release_idle_core())
        # Deadline only achievable at high frequency.
        tight = CNN_SERV.service_seconds(3.0) * 1.3
        job = submit(env, node, CNN_SERV, deadline_offset=tight)
        assert job.chosen_freq_ghz > 1.2

    def test_wanted_lower_flag_set_when_no_low_pool(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        self._warm_container(env, node, WEB_SERV)
        # Only the max pool exists; a leisurely WebServ wants lower.
        job = submit(env, node, WEB_SERV, deadline_offset=100.0)
        assert job.wanted_lower_freq

    def test_hopeless_deadline_boosted_without_pool_raise(self):
        env, node, store = make_node()
        warm_profile(store, CNN_SERV)
        self._warm_container(env, node, CNN_SERV)
        low_pool = node._make_pool(1.2, [node._pools[0].release_idle_core()])
        node._pools.append(low_pool)
        job = submit(env, node, CNN_SERV, deadline_offset=1e-6)
        assert job.boosted
        assert job.chosen_freq_ghz == 3.0
        # The low pool kept its frequency (no collateral damage).
        assert low_pool.frequency_ghz == 1.2

    def test_correction_raises_frequency_after_long_wait(self):
        env, node, store = make_node()
        warm_profile(store, CNN_SERV)
        self._warm_container(env, node, CNN_SERV)
        job = submit(env, node, CNN_SERV,
                     deadline_offset=CNN_SERV.service_seconds(1.2) * 2)
        assert job.dispatch_correction is not None
        # If dispatch happened immediately, a low level suffices ...
        relaxed = job.dispatch_correction(1.2)
        assert relaxed == 1.2
        # ... but after the budget is nearly gone, the correction boosts.
        env.run(until=env.now + CNN_SERV.service_seconds(1.2) * 1.9)
        if not job.finished:
            boosted = job.dispatch_correction(1.2)
            assert boosted > 1.2

    def test_completion_feeds_profile_and_queue_ewmas(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        self._warm_container(env, node, WEB_SERV)
        before = store.profile(WEB_SERV).observations
        job = submit(env, node, WEB_SERV, deadline_offset=10.0)
        env.run()
        assert store.profile(WEB_SERV).observations == before + 1
        assert store.queue_ewma(WEB_SERV.name).initialized
        assert store.level_queue_ewma(job.chosen_freq_ghz).initialized

    def test_cold_start_measurements_excluded_from_profile(self):
        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        before = store.profile(WEB_SERV).observations
        job = submit(env, node, WEB_SERV, deadline_offset=10.0)  # cold
        env.run()
        assert job.cold_start
        assert store.profile(WEB_SERV).observations == before

    def test_armed_guard_screens_each_level_under_its_own_label(self):
        class RecordingGuard:
            def __init__(self):
                self.kinds = []

            def sanitize_prediction(self, function_name, kind, value, track):
                self.kinds.append(kind)
                return value

        env, node, store = make_node()
        warm_profile(store, WEB_SERV)
        job = submit(env, node, WEB_SERV, deadline_offset=10.0)
        dispatcher = node._dispatcher(WEB_SERV)
        env.guard = RecordingGuard()
        dispatcher._predict_t_run(1.2, job)
        dispatcher._predict_t_block(job)
        dispatcher._predict_energy(2.4, job)
        assert env.guard.kinds == ["t_run@1.20", "t_block", "energy@2.40"]


class TestNodeMechanics:
    def test_note_demand_accumulates(self):
        env, node, _ = make_node()
        node.note_demand(1.2, 0.5)
        node.note_demand(1.2, 0.25)
        assert node._demand[1.2] == pytest.approx(0.75)

    def test_refresh_creates_pool_for_demanded_level(self):
        env, node, _ = make_node()
        node.note_demand(1.2, 10.0)
        node.refresh()
        freqs = {p.frequency_ghz for p in node._pools}
        assert 1.2 in freqs

    def test_refresh_caps_pool_count(self):
        config = EcoFaaSConfig(prewarm=False, elastic=False, max_pools=2)
        env, node, _ = make_node(config=config, n_cores=8)
        for level in (1.2, 1.5, 1.8, 2.1, 2.4, 3.0):
            node.note_demand(level, 1.0)
        node.refresh()
        assert node.pool_count() <= 2

    def test_refresh_conserves_cores(self):
        env, node, _ = make_node(n_cores=8)
        for level in (1.2, 2.1, 3.0):
            node.note_demand(level, 3.0)
        node.refresh()
        env.run(until=1.0)
        node.refresh()
        total = (sum(p.n_cores for p in node._pools)
                 + sum(p.n_cores for p in node._retiring)
                 + len(node._free))
        assert total == 8

    def test_active_pools_never_empty(self):
        env, node, _ = make_node()
        assert node.active_pools()
        node.refresh()
        assert node.active_pools()

    def test_raise_pool_frequency_only_raises(self):
        env, node, _ = make_node()
        pool = node._pools[0]
        node.raise_pool_frequency(pool, 1.2)  # below current: no-op
        assert pool.frequency_ghz == 3.0

    def test_mixed_signals_split_demand_both_ways(self):
        """A single hot pool with both boost and wanted-lower pressure
        must differentiate into multiple levels (not just promote)."""
        env, node, _ = make_node(n_cores=8)
        pool = node._pools[0]
        node.note_demand(3.0, 10.0)
        pool.stats.served = 10
        pool.stats.boosted = 5          # > 10% of served
        pool.stats.wanted_lower_freq = 5  # > 25% of served
        node.refresh()
        freqs = {p.frequency_ghz for p in node._pools}
        assert 2.7 in freqs  # demotion happened despite boost pressure

    def test_idle_refresh_keeps_current_shape(self):
        env, node, _ = make_node()
        node.refresh()  # no demand at all
        assert node.pool_count() == 1
        assert node.active_pools()[0].frequency_ghz == 3.0


class TestPrewarm:
    def test_prewarm_warms_container_off_critical_path(self):
        env, node, _ = make_node(config=EcoFaaSConfig(prewarm=True, elastic=False))
        assert node.containers.state(WEB_SERV.name) == "cold"
        node.prewarm(WEB_SERV, budget_s=5.0, benchmark="WebServ")
        assert node.containers.state(WEB_SERV.name) == "starting"
        env.run()
        assert node.containers.is_warm(WEB_SERV.name)

    def test_prewarm_updates_cold_start_profile(self):
        env, node, store = make_node(config=EcoFaaSConfig(prewarm=True, elastic=False))
        node.prewarm(WEB_SERV, budget_s=5.0, benchmark="WebServ")
        env.run()
        assert store.cold_ewma(WEB_SERV.name).initialized

    def test_prewarm_noop_when_already_warm(self):
        env, node, _ = make_node(config=EcoFaaSConfig(prewarm=True, elastic=False))
        node.prewarm(WEB_SERV, budget_s=5.0, benchmark="WebServ")
        env.run()
        cold_starts_before = node.containers.cold_starts
        node.prewarm(WEB_SERV, budget_s=5.0, benchmark="WebServ")
        assert node.containers.cold_starts == cold_starts_before

    def test_prewarm_jobs_do_not_pollute_metrics(self):
        env, node, _ = make_node(config=EcoFaaSConfig(prewarm=True, elastic=False))
        node.prewarm(WEB_SERV, budget_s=5.0, benchmark="WebServ")
        env.run()
        assert node.metrics.function_records == []

    def test_prewarm_uses_profiled_cold_duration_for_pool_choice(self):
        env, node, store = make_node(config=EcoFaaSConfig(prewarm=True, elastic=False))
        store.cold_ewma(WEB_SERV.name).update(WEB_SERV.cold_start_seconds)
        node._pools.append(node._make_pool(1.2, []))
        node._pools[-1].add_core(node._pools[0].release_idle_core())
        pool = node._prewarm_pool(WEB_SERV.name, budget_s=100.0)
        assert pool.frequency_ghz == 1.2  # plenty of budget: lowest pool
        pool = node._prewarm_pool(WEB_SERV.name, budget_s=1e-6)
        assert pool.frequency_ghz == 3.0  # impossible budget: fastest
