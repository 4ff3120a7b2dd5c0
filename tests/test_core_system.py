"""Integration tests for the EcoFaaS system: dispatchers, elastic pools,
workflow controller, prewarming, and end-to-end behaviour."""

import pytest

from repro.baselines import BaselineSystem, PartitionedNode, PowerCtrlSystem
from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.core import dpt as dpt_module
from repro.core import node as node_module
from repro.core import profiles as profiles_module
from repro.core.mlp import MLPRegressor
from repro.core.predictor import FrequencyProfile
from repro.core.profiles import ProfileStore
from repro.experiments.common import make_load_trace, run_cluster
from repro.platform.cluster import Cluster, ClusterConfig
from repro.sim import Environment
from repro.sim.events import AllOf, Initialize
from repro.sim.process import Process
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace, TraceEvent
from repro.workloads.registry import all_benchmarks, workflow_for


def run_system(system, trace, n_servers=2, seed=3, drain=30.0):
    env = Environment()
    cluster = Cluster(env, system,
                      ClusterConfig(n_servers=n_servers, seed=seed,
                                    drain_s=drain))
    cluster.run_trace(trace)
    return cluster


def poisson(names, rate, duration=15.0, seed=1):
    return generate_poisson_trace(
        PoissonLoadConfig(names, rate_rps=rate, duration_s=duration,
                          seed=seed))


class TestEcoFaaSConfig:
    def test_paper_defaults(self):
        config = EcoFaaSConfig()
        assert config.t_update_s == 5.0
        assert config.t_refresh_s == 2.0
        assert profiles_module.HISTORY_CAPACITY == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            EcoFaaSConfig(t_refresh_s=0.0)
        with pytest.raises(ValueError):
            EcoFaaSConfig(overprediction_error=-0.1)


class TestEcoFaaSEndToEnd:
    def test_completes_all_workflows(self):
        trace = poisson(["WebServ", "CNNServ"], rate=20.0)
        cluster = run_system(EcoFaaSSystem(), trace)
        assert cluster.metrics.completed_workflows() == len(trace)
        assert cluster.inflight == 0

    def test_uses_multiple_frequencies(self):
        trace = poisson(["CNNServ", "MLTrain", "WebServ"], rate=15.0,
                        duration=30.0)
        cluster = run_system(EcoFaaSSystem(), trace, drain=40.0)
        histogram = cluster.metrics.frequency_histogram()
        assert len(histogram) >= 2
        assert min(histogram) < 3.0

    def test_saves_energy_vs_baseline(self):
        names = [wf.name for wf in all_benchmarks()]
        rate = rate_for_utilization(all_benchmarks(), 0.4, total_cores=40)
        trace = poisson(names, rate=rate, duration=30.0)
        base = run_system(BaselineSystem(), trace, drain=40.0)
        eco = run_system(EcoFaaSSystem(), trace, drain=40.0)
        assert eco.total_energy_j < base.total_energy_j

    def test_saves_energy_vs_powerctrl(self):
        names = [wf.name for wf in all_benchmarks()]
        rate = rate_for_utilization(all_benchmarks(), 0.4, total_cores=40)
        trace = poisson(names, rate=rate, duration=30.0)
        power = run_system(PowerCtrlSystem(), trace, drain=40.0)
        eco = run_system(EcoFaaSSystem(), trace, drain=40.0)
        assert eco.total_energy_j < power.total_energy_j

    def test_tail_latency_better_than_powerctrl(self):
        names = [wf.name for wf in all_benchmarks()]
        rate = rate_for_utilization(all_benchmarks(), 0.5, total_cores=40)
        trace = poisson(names, rate=rate, duration=30.0)
        power = run_system(PowerCtrlSystem(), trace, drain=40.0)
        eco = run_system(EcoFaaSSystem(), trace, drain=40.0)
        assert (eco.metrics.latency_p99()
                < power.metrics.latency_p99())

    def test_most_workflows_meet_slo(self):
        names = [wf.name for wf in all_benchmarks()]
        rate = rate_for_utilization(all_benchmarks(), 0.3, total_cores=40)
        trace = poisson(names, rate=rate, duration=30.0)
        eco = run_system(EcoFaaSSystem(), trace, drain=40.0)
        assert eco.metrics.slo_violation_rate() < 0.15

    def test_deterministic_given_seed(self):
        trace = poisson(["WebServ", "eBank"], rate=10.0)
        a = run_system(EcoFaaSSystem(), trace, seed=5)
        b = run_system(EcoFaaSSystem(), trace, seed=5)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)


class TestElasticPools:
    def test_pools_appear_beyond_initial_max_pool(self):
        trace = poisson(["CNNServ", "MLTrain"], rate=10.0, duration=20.0)
        cluster = run_system(EcoFaaSSystem(), trace, n_servers=1,
                             drain=40.0)
        node = cluster.nodes[0]
        counts = [count for _, count in node.pool_count_samples]
        assert max(counts) >= 2

    def test_pool_counts_bounded_by_max_pools(self, monkeypatch):
        monkeypatch.setattr(node_module, "MAX_POOLS", 3)
        trace = poisson([wf.name for wf in all_benchmarks()], rate=20.0,
                        duration=20.0)
        cluster = run_system(EcoFaaSSystem(), trace, n_servers=1,
                             drain=40.0)
        node = cluster.nodes[0]
        assert all(count <= 3 for _, count in node.pool_count_samples)

    def test_static_pools_ablation_keeps_single_pool(self):
        config = EcoFaaSConfig(elastic=False)
        trace = poisson(["CNNServ"], rate=10.0, duration=10.0)
        cluster = run_system(EcoFaaSSystem(config), trace, n_servers=1)
        node = cluster.nodes[0]
        assert node.pool_count() == 1
        assert node.active_pools()[0].frequency_ghz == 3.0

    def test_cores_conserved_across_refreshes(self):
        trace = poisson([wf.name for wf in all_benchmarks()], rate=25.0,
                        duration=20.0)
        cluster = run_system(EcoFaaSSystem(), trace, n_servers=1, drain=40.0)
        node = cluster.nodes[0]
        total = (sum(p.n_cores for p in node._pools)
                 + sum(p.n_cores for p in node._retiring)
                 + len(node._free))
        assert total == node.server.n_cores


class TestWorkflowController:
    def test_deadlines_cover_every_function(self):
        trace = poisson(["eBank"], rate=10.0, duration=20.0)
        system = EcoFaaSSystem()
        run_system(system, trace, drain=40.0)
        workflow = workflow_for("eBank")
        controller = system.controller(workflow)
        deadlines = controller.deadlines(arrival_s=1000.0, slo_s=2.0)
        assert set(deadlines) == {f.name for f in workflow.functions}
        values = [deadlines[f.name] for f in workflow.functions]
        assert values == sorted(values)
        assert values[-1] <= 1000.0 + 2.0 + 1e-6

    def test_milp_runs_once_profiles_ready(self):
        trace = poisson(["eBank"], rate=10.0, duration=20.0)
        system = EcoFaaSSystem()
        run_system(system, trace, drain=40.0)
        assert system.controller(workflow_for("eBank")).milp_runs >= 1

    def test_milp_ablation_uses_proportional_split(self):
        system = EcoFaaSSystem(EcoFaaSConfig(use_milp=False))
        trace = poisson(["eBank"], rate=10.0, duration=20.0)
        run_system(system, trace, drain=40.0)
        assert system.controller(workflow_for("eBank")).milp_runs == 0


class TestPrewarming:
    def test_prewarm_reduces_critical_path_cold_starts(self):
        trace = Trace([TraceEvent(0.5, "eBook"), TraceEvent(30.0, "VidAn")],
                      duration_s=40.0)

        def cold_count(prewarm):
            system = EcoFaaSSystem(EcoFaaSConfig(prewarm=prewarm))
            cluster = run_system(system, trace, n_servers=1, drain=30.0)
            return cluster.metrics.cold_start_count()

        assert cold_count(True) < cold_count(False)

    def test_prewarm_disabled_by_config(self):
        system = EcoFaaSSystem(EcoFaaSConfig(prewarm=False))
        trace = Trace([TraceEvent(0.5, "eBank")], duration_s=5.0)
        cluster = run_system(system, trace, n_servers=1)
        # Every function cold-starts on its critical path.
        assert cluster.metrics.cold_start_count() == 6

    def test_prewarm_jobs_not_in_metrics(self):
        system = EcoFaaSSystem(EcoFaaSConfig(prewarm=True))
        trace = Trace([TraceEvent(0.5, "eBank")], duration_s=5.0)
        cluster = run_system(system, trace, n_servers=1)
        # Only real invocations appear (6 functions in the chain).
        assert len(cluster.metrics.function_records) == 6


class TestOverpredictionKnob:
    def test_overprediction_raises_energy(self):
        names = ["CNNServ", "ImgProc", "RNNServ"]
        rate = 10.0
        trace = poisson(names, rate=rate, duration=30.0)
        exact = run_system(EcoFaaSSystem(EcoFaaSConfig()), trace, drain=40.0)
        wrong = run_system(
            EcoFaaSSystem(EcoFaaSConfig(overprediction_error=0.8)),
            trace, drain=40.0)
        assert wrong.total_energy_j > exact.total_energy_j


class TestFloatClock:
    """DESIGN.md §5: simulated time is a Python float for the whole run.

    numpy scalars round like floats, so a numpy clock would not change a
    result, only make every time computation of the run numpy math. The
    run ends with ``run(until=...)``, which sets a float clock, so the
    clock is checked after every event too.
    """

    @pytest.mark.parametrize("system", [
        lambda: EcoFaaSSystem(EcoFaaSConfig()), BaselineSystem],
        ids=["ecofaas", "baseline"])
    def test_clock_stays_a_float(self, monkeypatch, system):
        clock_types = set()
        step = Environment.step

        def watched(env):
            step(env)
            clock_types.add(type(env.now))

        monkeypatch.setattr(Environment, "step", watched)
        trace = make_load_trace("low", 2, 4.0, seed=3)
        cluster = run_cluster(system(), trace,
                              ClusterConfig(n_servers=2, seed=3))
        assert cluster.metrics.workflow_records
        assert type(cluster.env.now) is float
        assert clock_types == {float}


class TestWorkCounters:
    """Exact kernel, platform, predictor and splitter work for pinned runs.

    The scenarios are ``ecofaas_low`` and ``baseline_low`` of
    ``tests/test_seed_anchors.py``. A lost cache or an extra event fails
    here on a count, not on a timer.
    """

    @staticmethod
    def _count(monkeypatch, targets):
        """Count calls to each ``(owner, name)`` under its key."""
        counts = dict.fromkeys([key for _, _, key in targets], 0)

        def spy(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name, key in targets:
            spy(owner, name, key)
        return counts

    def test_ecofaas_low_load_work_counts(self, monkeypatch):
        counts = self._count(monkeypatch, [
            (Environment, "step", "events"),
            (FrequencyProfile, "observe", "observations"),
            (dpt_module, "solve_milp", "solves"),
            (MLPRegressor, "partial_fit", "fits"),
            (MLPRegressor, "_adam_step", "adam_steps"),
            (ProfileStore, "predict_t_run", "store_predictions")])
        trace = make_load_trace("low", 2, 8.0, seed=3)
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                    ClusterConfig(n_servers=2, seed=3))
        assert counts == {"events": 2379, "observations": 352,
                          "solves": 11, "fits": 16, "adam_steps": 64,
                          "store_predictions": 560}

    def test_baseline_low_load_work_counts(self, monkeypatch):
        counts = self._count(monkeypatch, [
            (Environment, "step", "events"),
            (PartitionedNode, "_rebalance", "rebalances"),
            (Cluster, "pick_node", "picks")])
        trace = make_load_trace("low", 2, 8.0, seed=3)
        run_cluster(BaselineSystem(), trace,
                    ClusterConfig(n_servers=2, seed=3))
        assert counts == {"events": 2400, "rebalances": 263, "picks": 383}

    @pytest.mark.parametrize("system", [EcoFaaSSystem, BaselineSystem])
    def test_direct_dispatch_builds_no_process_per_workflow(
            self, monkeypatch, system):
        """Only the nodes' control loops are processes: a workflow is
        driven by callbacks on its jobs' ``done`` events."""
        counts = self._count(monkeypatch, [
            (Process, "__init__", "processes"),
            (Initialize, "__init__", "starts"),
            (AllOf, "__init__", "all_ofs")])
        trace = make_load_trace("low", 2, 8.0, seed=3)
        cluster = run_cluster(system() if system is BaselineSystem
                              else system(EcoFaaSConfig()), trace,
                              ClusterConfig(n_servers=2, seed=3))
        assert len(cluster.metrics.workflow_records) > 100
        assert counts == {"processes": 2, "starts": 2, "all_ofs": 0}
