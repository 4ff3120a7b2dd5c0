"""Tests for scheduler draining and EWT remaining-work semantics."""

import pytest

from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.sim import Environment
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment


def make_pool(env, n_cores=1, freq=3.0, **kwargs):
    meter = EnergyMeter()
    power = PowerModel()
    cores = [Core(env, i, power, meter, freq) for i in range(n_cores)]
    kwargs.setdefault("context_switch_s", 0.0)
    return CorePoolScheduler(env, cores, frequency_ghz=freq, **kwargs)


def job_of(env, run_s=1.0, blocks=()):
    segments = [RunSegment(WorkUnit(gcycles=run_s * 3.0))]
    for block_s, next_run in blocks:
        segments.append(BlockSegment(block_s))
        segments.append(RunSegment(WorkUnit(gcycles=next_run * 3.0)))
    return Job(env, InvocationSpec("fn", segments), "bench",
               arrival_s=env.now)


class TestDrainReady:
    def test_drain_returns_queued_jobs_only(self):
        env = Environment()
        pool = make_pool(env, n_cores=1)
        running = job_of(env, run_s=5.0)
        queued = [job_of(env) for _ in range(3)]
        pool.submit(running)
        for job in queued:
            pool.submit(job)
        drained = pool.drain_ready()
        assert set(drained) == set(queued)
        assert pool.queue_length == 0
        assert pool.running_count == 1

    def test_drained_jobs_carry_remaining_ewt(self):
        env = Environment()
        pool = make_pool(env, n_cores=1)
        pool.submit(job_of(env, run_s=5.0))
        job = job_of(env, run_s=2.0)
        job.registered_run_seconds = 2.0
        pool.submit(job)
        ewt_before = pool.ewt_seconds
        drained = pool.drain_ready()
        assert drained == [job]
        assert pool.ewt_seconds == pytest.approx(ewt_before - 2.0)
        assert job.registered_run_seconds == pytest.approx(2.0)

    def test_drained_job_finishes_in_another_pool(self):
        env = Environment()
        pool_a = make_pool(env, n_cores=1)
        pool_b = make_pool(env, n_cores=1, freq=1.5)
        blocker = job_of(env, run_s=10.0)
        waiter = job_of(env, run_s=1.5)
        pool_a.submit(blocker)
        pool_a.submit(waiter)
        [drained] = pool_a.drain_ready()
        pool_b.submit(drained)
        env.run(until=5.0)
        assert waiter.finished
        assert waiter.completion_time == pytest.approx(3.0)  # 1.5s at 1.5GHz

    def test_drain_empty_queue(self):
        env = Environment()
        pool = make_pool(env)
        assert pool.drain_ready() == []


class TestEwtRemainingWork:
    def test_ewt_shrinks_as_segments_complete(self):
        """A blocked job only contributes its *remaining* run time, not its
        full registered amount (otherwise T_Queue estimates explode)."""
        env = Environment()
        pool = make_pool(env, n_cores=1)
        job = job_of(env, run_s=1.0, blocks=[(5.0, 1.0)])
        job.registered_run_seconds = 2.0
        pool.submit(job)
        assert pool.ewt_seconds == pytest.approx(2.0)
        env.run(until=1.5)  # first run segment done, job blocked
        assert pool.ewt_seconds == pytest.approx(1.0)
        env.run()
        assert pool.ewt_seconds == pytest.approx(0.0)

    def test_ewt_shrinks_on_preemption(self):
        env = Environment()
        pool = make_pool(env, n_cores=1, preemptive=True)
        old = job_of(env, run_s=0.5, blocks=[(1.0, 0.5)])
        pool.submit(old)
        env.run(until=0.6)  # old is blocked until 1.5
        young = job_of(env, run_s=10.0)
        young.registered_run_seconds = 10.0
        pool.submit(young)
        env.run(until=1.6)  # old came back and preempted young
        # Young consumed ~0.9s of its 10s; EWT reflects the remainder.
        assert pool.ewt_seconds < 10.0
        env.run()
        assert pool.ewt_seconds == pytest.approx(0.0, abs=1e-6)

    def test_ewt_never_negative(self):
        env = Environment()
        pool = make_pool(env, n_cores=2)
        for _ in range(5):
            job = job_of(env, run_s=0.3, blocks=[(0.2, 0.3)])
            job.registered_run_seconds = 0.1  # underestimate on purpose
            pool.submit(job)
        env.run()
        assert pool.ewt_seconds >= 0.0


class TestSeniorityInheritance:
    def test_workflow_seniority_overrides_arrival(self):
        env = Environment()
        env.run(until=5.0)
        spec = InvocationSpec("fn", [RunSegment(WorkUnit(1.0))])
        late_stage = Job(env, spec, "app", arrival_s=5.0,
                         seniority_time_s=1.0)
        fresh = Job(env, InvocationSpec("g", [RunSegment(WorkUnit(1.0))]),
                    "other", arrival_s=4.0)
        assert late_stage.seniority < fresh.seniority

    def test_inherited_seniority_preempts_younger_request(self):
        env = Environment()
        pool = make_pool(env, n_cores=1, preemptive=True)
        young = job_of(env, run_s=10.0)  # arrives at t=0, request t=0
        pool.submit(young)
        env.run(until=1.0)
        # A stage-2 function of a request that arrived BEFORE young.
        spec = InvocationSpec("fn", [RunSegment(WorkUnit(3.0))])
        old_stage = Job(env, spec, "app", arrival_s=env.now,
                        seniority_time_s=-1.0)
        pool.submit(old_stage)
        env.run(until=2.5)
        assert old_stage.finished  # it preempted young immediately
        assert not young.finished


class TestLoadTally:
    """``node.outstanding`` is a tally the pools keep; it must equal the
    sum of the pools' ``load`` counters after every kind of change."""

    @staticmethod
    def node_of(system):
        from repro.platform.cluster import Cluster, ClusterConfig
        cluster = Cluster(Environment(), system,
                          ClusterConfig(n_servers=1, cores_per_server=2))
        return cluster.env, cluster.nodes[0]

    @staticmethod
    def assert_tally(node, expected):
        loads = sum(pool.load for pool in node.iter_pools())
        assert node.outstanding == loads == expected

    def test_tally_follows_submit_drain_cancel_and_abort(self):
        from repro.core import EcoFaaSConfig, EcoFaaSSystem
        env, node = self.node_of(EcoFaaSSystem(EcoFaaSConfig()))
        pool = node.iter_pools()[0]
        blocker = job_of(env, run_s=0.5, blocks=[(10.0, 0.5)])
        running = job_of(env, run_s=5.0)
        queued = [job_of(env) for _ in range(3)]
        for job in [blocker, running, *queued]:
            pool.submit(job)
        self.assert_tally(node, 5)
        drained = pool.drain_ready()
        assert drained and all(job in queued for job in drained)
        self.assert_tally(node, 5 - len(drained))
        for job in drained:
            pool.submit(job)
        self.assert_tally(node, 5)
        assert pool.cancel_job(queued[-1])  # queued
        self.assert_tally(node, 4)
        env.run(until=1.0)  # the blocker is now in its block segment
        assert pool.blocked_count == 1
        assert pool.cancel_job(blocker)  # blocked
        self.assert_tally(node, 3)
        assert pool.cancel_job(running)  # running
        self.assert_tally(node, 2)
        assert len(node.crash()) == 2  # abort_all
        self.assert_tally(node, 0)
        node.reboot()
        fresh = node.iter_pools()[0]
        assert fresh is not pool
        fresh.submit(job_of(env))
        self.assert_tally(node, 1)

    def test_tally_survives_idle_pool_deletion(self):
        from repro.baselines import BaselineSystem
        from repro.baselines.partitioned import POOL_IDLE_TIMEOUT_S
        env, node = self.node_of(BaselineSystem())
        idle, busy = node._pool_for("idle"), node._pool_for("busy")
        idle.submit(job_of(env, run_s=0.1))
        busy.submit(job_of(env, run_s=3 * POOL_IDLE_TIMEOUT_S))
        self.assert_tally(node, 2)
        env.run(until=2 * POOL_IDLE_TIMEOUT_S)
        assert list(node.iter_pools()) == [busy]  # the idle pool is gone
        self.assert_tally(node, 1)

    @pytest.mark.parametrize("system", ["EcoFaaS", "Baseline"])
    def test_tally_equals_pool_sum_at_every_pick(self, monkeypatch, system):
        """A chaos run with crashes, hedges and cancels, checked at
        every load-balancer decision."""
        from repro.baselines import BaselineSystem
        from repro.cancel import CancelConfig
        from repro.core import EcoFaaSConfig, EcoFaaSSystem
        from repro.experiments.common import make_load_trace, run_cluster
        from repro.faults.plan import FaultPlan
        from repro.platform.cluster import Cluster, ClusterConfig
        from repro.platform.reliability import ReliabilityPolicy

        original = Cluster.pick_node
        picks = []

        def checked(self, exclude=None):
            for node in self.nodes:
                assert node.outstanding == sum(
                    pool.load for pool in node.iter_pools())
            picks.append(exclude)
            return original(self, exclude)

        monkeypatch.setattr(Cluster, "pick_node", checked)
        config = ClusterConfig(
            n_servers=2, drain_s=4.0, cancel=CancelConfig.full(),
            reliability=ReliabilityPolicy(
                max_retries=8, backoff_base_s=0.05,
                invocation_timeout_s=2.0, hedge_after_s=0.8))
        run_cluster(
            EcoFaaSSystem(EcoFaaSConfig()) if system == "EcoFaaS"
            else BaselineSystem(),
            make_load_trace("low", 2, 6.0, seed=3), config,
            fault_plan=FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                            seed=5))
        assert len(picks) > 100
