"""Integration tests: cluster + Baseline and Baseline+PowerCtrl systems."""

import pytest

from repro.baselines import BaselineSystem, PowerCtrlSystem
from repro.baselines.powerctrl import proportional_deadlines
from repro.hardware.server import Server
from repro.hardware.work import WorkUnit
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.sim import Environment
from repro.sim.rng import RngRegistry
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace, TraceEvent
from repro.workloads.registry import all_benchmarks, workflow_for
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment


def small_trace(names, rate=20.0, duration=10.0, seed=1):
    return generate_poisson_trace(
        PoissonLoadConfig(names, rate_rps=rate, duration_s=duration,
                          seed=seed))


def run_cluster(system, trace, n_servers=2, seed=3, drain=30.0):
    env = Environment()
    cluster = Cluster(env, system,
                      ClusterConfig(n_servers=n_servers, seed=seed,
                                    drain_s=drain))
    cluster.run_trace(trace)
    return cluster


class TestProportionalDeadlines:
    def test_deadlines_are_cumulative_and_end_at_slo(self):
        workflow = workflow_for("eBank")
        deadlines = proportional_deadlines(workflow, arrival_s=100.0,
                                           slo_s=2.0)
        values = [deadlines[f.name] for f in workflow.functions]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(102.0)

    def test_parallel_stage_members_share_a_deadline(self):
        workflow = workflow_for("MLTune")
        deadlines = proportional_deadlines(workflow, 0.0, 10.0)
        stage = workflow.stages[1]
        stage_deadlines = {deadlines[f.name] for f in stage.functions}
        assert len(stage_deadlines) == 1

    def test_split_proportional_to_stage_latency(self):
        workflow = workflow_for("VidAn")
        slo = 10.0
        deadlines = proportional_deadlines(workflow, 0.0, slo)
        latencies = [s.warm_latency(3.0) for s in workflow.stages]
        first_budget = deadlines[workflow.stages[0].functions[0].name]
        assert first_budget == pytest.approx(
            slo * latencies[0] / sum(latencies))

    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError):
            proportional_deadlines(workflow_for("eBank"), 0.0, 0.0)


class TestBaselineSystem:
    def test_completes_all_workflows(self):
        trace = small_trace(["WebServ", "ImgProc"], rate=30.0)
        cluster = run_cluster(BaselineSystem(), trace)
        assert cluster.metrics.completed_workflows() == len(trace)
        assert cluster.inflight == 0

    def test_everything_runs_at_max_frequency(self):
        trace = small_trace(["CNNServ"], rate=10.0)
        cluster = run_cluster(BaselineSystem(), trace)
        for record in cluster.metrics.function_records:
            assert set(record.freq_run_seconds) == {3.0}

    def test_no_deadlines_assigned(self):
        system = BaselineSystem()
        assert system.function_deadlines(workflow_for("eBank"), 0.0, 1.0) is None

    def test_cold_starts_only_until_containers_warm(self):
        trace = small_trace(["WebServ"], rate=20.0, duration=5.0)
        cluster = run_cluster(BaselineSystem(), trace, n_servers=1)
        cold = cluster.metrics.cold_start_count()
        assert 1 <= cold <= 3  # first request(s) only; rest hit warm

    def test_multi_function_app_executes_all_stages(self):
        trace = Trace([TraceEvent(0.1, "eBank")], 1.0)
        cluster = run_cluster(BaselineSystem(), trace, n_servers=1)
        functions = {r.function for r in cluster.metrics.function_records}
        assert functions == {f.name for f in workflow_for("eBank").functions}

    def test_energy_accrues_and_attributes(self):
        trace = small_trace(["MLTrain"], rate=5.0, duration=5.0)
        cluster = run_cluster(BaselineSystem(), trace, n_servers=1)
        assert cluster.total_energy_j > 0
        assert cluster.energy_by_benchmark().get("MLTrain", 0.0) > 0

    def test_deterministic_under_same_seed(self):
        trace = small_trace(["WebServ", "CNNServ"], rate=20.0, duration=5.0)
        a = run_cluster(BaselineSystem(), trace, seed=5)
        b = run_cluster(BaselineSystem(), trace, seed=5)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)
        assert a.metrics.latency_p99() == pytest.approx(b.metrics.latency_p99())


    def test_pool_whose_only_job_is_blocked_is_not_retired(self):
        """A blocked job keeps its pool alive past the idle timeout.

        The pool's one job blocks for 30 s, longer than the idle timeout,
        so the retire sweep sees a pool with nothing queued or running.
        Retiring it would strand the job: its wake-up would requeue it
        into a pool with no cores and no owner.
        """
        env = Environment()
        metrics = MetricsCollector()
        node = BaselineSystem().make_node(
            env, Server(env), metrics, RngRegistry(0),
            Layers.build(env, metrics, ClusterConfig()))
        fn_model = workflow_for("eBank").functions[0]
        spec = InvocationSpec(fn_model.name, [
            RunSegment(WorkUnit(gcycles=0.03)), BlockSegment(30.0),
            RunSegment(WorkUnit(gcycles=0.03))])
        job = node.submit(fn_model, spec, None, "eBank")
        env.run(until=20.0)
        assert [pool.blocked_count for pool in node.iter_pools()] == [1]
        assert node.outstanding == 1
        env.run(until=120.0)
        assert job.finished
        assert node.outstanding == 0


class TestPowerCtrlSystem:
    def test_completes_all_workflows(self):
        trace = small_trace(["WebServ", "LRServ"], rate=30.0)
        cluster = run_cluster(PowerCtrlSystem(), trace)
        assert cluster.metrics.completed_workflows() == len(trace)

    def test_uses_lower_frequencies_when_slack_allows(self):
        trace = small_trace(["CNNServ"], rate=2.0)
        cluster = run_cluster(PowerCtrlSystem(), trace)
        chosen = {r.chosen_freq_ghz
                  for r in cluster.metrics.function_records
                  if not r.cold_start}
        assert min(chosen) < 3.0

    def test_saves_energy_against_baseline(self):
        names = [wf.name for wf in all_benchmarks()]
        rate = rate_for_utilization(all_benchmarks(), 0.4, total_cores=40)
        trace = small_trace(names, rate=rate, duration=20.0)
        base = run_cluster(BaselineSystem(), trace)
        power = run_cluster(PowerCtrlSystem(), trace)
        assert power.total_energy_j < base.total_energy_j

    def test_average_latency_higher_than_baseline(self):
        # PowerCtrl deliberately slows requests toward their deadline.
        trace = small_trace(["CNNServ"], rate=5.0)
        base = run_cluster(BaselineSystem(), trace)
        power = run_cluster(PowerCtrlSystem(), trace)
        assert power.metrics.latency_avg() > base.metrics.latency_avg()

    def test_pays_sandbox_switch_overhead(self):
        trace = small_trace(["CNNServ", "WebServ"], rate=20.0)
        cluster = run_cluster(PowerCtrlSystem(), trace)
        overhead = cluster.energy_by_component()["dvfs_overhead"]
        assert overhead > 0
