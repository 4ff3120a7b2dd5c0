"""repro.faults: deterministic plans, the injector, and reliability policies.

Covers the acceptance properties of the fault subsystem: plans are
bit-identical per seed; an empty plan is provably inert; crashed nodes
lose no invocations once the frontend retries; timeouts/hedges behave and
are accounted; spike/stall windows compose and restore exactly.
"""


import pytest

from repro.baselines import BaselineSystem, PowerCtrlSystem
from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.faults import (
    CONTAINER_KILL,
    DVFS_STALL,
    NODE_CRASH,
    RPC_SPIKE,
    FaultEvent,
    FaultPlan,
)
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.sim import Environment
from repro.traces.trace import Trace, TraceEvent


def run_chaos(system, events, duration, plan=None, policy=None,
              n_servers=2, drain=60.0, seed=0):
    env = Environment()
    cluster = Cluster(env, system,
                      ClusterConfig(n_servers=n_servers, seed=seed,
                                    drain_s=drain, reliability=policy),
                      fault_plan=plan)
    cluster.run_trace(Trace(events, duration))
    return cluster


def steady(benchmark, rate_hz, duration):
    step = 1.0 / rate_hz
    return [TraceEvent(0.1 + i * step, benchmark)
            for i in range(int((duration - 0.2) * rate_hz))]


RETRY = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05,
                          backoff_multiplier=2.0, backoff_jitter=0.1)


class TestFaultPlan:
    def test_same_seed_identical_plan(self):
        a = FaultPlan.calibrated(300.0, 4, ["WebServ", "CNNServ"], seed=7)
        b = FaultPlan.calibrated(300.0, 4, ["WebServ", "CNNServ"], seed=7)
        assert a == b
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = FaultPlan.calibrated(300.0, 4, ["WebServ"], seed=1)
        b = FaultPlan.calibrated(300.0, 4, ["WebServ"], seed=2)
        assert a != b

    def test_events_time_sorted(self):
        plan = FaultPlan.calibrated(300.0, 4, ["WebServ"], seed=3)
        times = [e.time_s for e in plan.events]
        assert times == sorted(times)
        # Construction order does not matter either.
        late = FaultEvent(5.0, NODE_CRASH, duration_s=1.0)
        early = FaultEvent(1.0, NODE_CRASH, duration_s=1.0)
        assert FaultPlan((late, early)).events == (early, late)

    def test_calibrated_guarantees_a_crash(self):
        # Even a tiny run gets min_crashes crashes so recovery is exercised.
        plan = FaultPlan.calibrated(10.0, 1, [], seed=0)
        assert plan.count(NODE_CRASH) >= 1
        assert plan.has_node_crashes

    def test_none_plan_is_empty(self):
        plan = FaultPlan.none()
        assert plan.events == ()
        assert plan.count() == 0
        assert not plan.has_node_crashes

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor_strike")
        with pytest.raises(ValueError):
            FaultEvent(-1.0, NODE_CRASH, duration_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, NODE_CRASH, duration_s=0.0)  # no downtime
        with pytest.raises(ValueError):
            FaultEvent(1.0, CONTAINER_KILL)  # no function
        with pytest.raises(ValueError):
            FaultEvent(1.0, RPC_SPIKE, duration_s=0.0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, DVFS_STALL, duration_s=1.0, magnitude=0.0)


class TestReliabilityPolicy:
    def test_backoff_schedule(self):
        policy = ReliabilityPolicy(backoff_base_s=0.1,
                                   backoff_multiplier=2.0,
                                   backoff_jitter=0.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(4) == pytest.approx(0.8)

    def test_jitter_scales_symmetrically(self):
        policy = ReliabilityPolicy(backoff_base_s=1.0,
                                   backoff_multiplier=1.0,
                                   backoff_jitter=0.5)
        assert policy.backoff_s(1, jitter_draw=1.0) == pytest.approx(1.5)
        assert policy.backoff_s(1, jitter_draw=-1.0) == pytest.approx(0.5)
        assert policy.backoff_s(1, jitter_draw=0.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ReliabilityPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            ReliabilityPolicy(backoff_jitter=1.0)
        with pytest.raises(ValueError):
            ReliabilityPolicy(invocation_timeout_s=0.0)
        with pytest.raises(ValueError):
            ReliabilityPolicy(hedge_after_s=-1.0)
        with pytest.raises(ValueError):
            RETRY.backoff_s(0)

    @pytest.mark.parametrize("field", [
        "backoff_base_s", "backoff_multiplier", "backoff_jitter",
        "invocation_timeout_s", "hedge_after_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_values_are_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            ReliabilityPolicy(**{field: bad})

    def test_backoff_stays_in_jitter_bounds(self):
        policy = ReliabilityPolicy(backoff_base_s=0.1,
                                   backoff_multiplier=2.0,
                                   backoff_jitter=0.3)
        for attempt in (1, 2, 5):
            nominal = 0.1 * 2.0 ** (attempt - 1)
            for draw in (-1.0, -0.5, 0.0, 0.5, 1.0):
                delay = policy.backoff_s(attempt, jitter_draw=draw)
                assert nominal * 0.7 - 1e-12 <= delay
                assert delay <= nominal * 1.3 + 1e-12

    def test_max_hedges_caps_duplicates(self):
        # CNNServ's 1.5 s cold start leaves room for many 0.1 s hedge
        # windows; an attempt still launches exactly one duplicate.
        policy = ReliabilityPolicy(max_retries=2, backoff_jitter=0.0,
                                   hedge_after_s=0.1)
        cluster = run_chaos(BaselineSystem(),
                            [TraceEvent(0.1, "CNNServ")], 4.0,
                            n_servers=4, policy=policy)
        assert cluster.metrics.completed_workflows() == 1
        assert cluster.metrics.hedges == 1


class TestInertness:
    def test_empty_plan_is_bit_identical(self):
        """The all-zero plan must change nothing, bit for bit."""
        events = steady("WebServ", 10.0, 5.0)

        def run(plan):
            return run_chaos(EcoFaaSSystem(EcoFaaSConfig()), events, 5.0,
                             plan=plan)

        plain = run(None)
        chaos = run(FaultPlan.none())
        assert chaos.fault_injector is None
        assert chaos.total_energy_j == plain.total_energy_j
        assert ([r.latency_s for r in chaos.metrics.workflow_records]
                == [r.latency_s for r in plain.metrics.workflow_records])
        assert chaos.metrics.retries == 0
        assert chaos.metrics.failure_count() == 0

    def test_crash_plan_without_policy_is_rejected(self):
        plan = FaultPlan((FaultEvent(1.0, NODE_CRASH, duration_s=2.0),))
        with pytest.raises(ValueError, match="reliability"):
            run_chaos(BaselineSystem(), [TraceEvent(0.1, "WebServ")], 5.0,
                      plan=plan)

    def test_crash_free_plan_needs_no_policy(self):
        plan = FaultPlan((FaultEvent(
            1.0, CONTAINER_KILL, function="WebServ"),))
        cluster = run_chaos(BaselineSystem(), [TraceEvent(0.1, "WebServ")],
                            5.0, plan=plan)
        assert cluster.fault_injector is not None


class TestCrashRecovery:
    def plan(self):
        return FaultPlan((FaultEvent(1.0, NODE_CRASH, node=0,
                                     duration_s=1.5),))

    @pytest.mark.parametrize("system_factory", [
        BaselineSystem, lambda: EcoFaaSSystem(EcoFaaSConfig())],
        ids=["baseline", "ecofaas"])
    def test_no_invocation_lost_to_a_crash(self, system_factory):
        # CNNServ's 1.5 s cold start guarantees the t=1.0 crash lands on
        # in-flight work (jobs still queued behind the container boot).
        events = steady("CNNServ", 10.0, 4.0)
        cluster = run_chaos(system_factory(), events, 4.0,
                            plan=self.plan(), policy=RETRY)
        metrics = cluster.metrics
        # Every workflow still completes; nothing is lost for good.
        assert metrics.completed_workflows() == len(events)
        assert metrics.failed_workflows == 0
        assert metrics.lost_invocations == 0
        # The crash actually hit in-flight work, and every lost job was
        # re-dispatched to completion.
        assert metrics.failure_count("node_crash") == 1
        assert metrics.jobs_lost_to_crash > 0
        assert metrics.crash_redispatches == metrics.jobs_lost_to_crash
        assert metrics.retries > 0
        assert metrics.mttr_s() == pytest.approx(1.5)
        # Partial executions charged to retry energy.
        assert metrics.retry_energy_j > 0

    def test_node_rejoins_and_serves_again(self):
        events = steady("CNNServ", 10.0, 4.0)
        cluster = run_chaos(BaselineSystem(), events, 4.0,
                            plan=self.plan(), policy=RETRY)
        node = cluster.nodes[0]
        assert not node.down
        assert node.crash_count == 1
        # The rebooted node took traffic after t=2.5 (crash at 1.0 + 1.5).
        late = [r for r in cluster.metrics.function_records
                if r.arrival_s > 2.6]
        assert late  # traffic kept flowing post-recovery

    def test_single_node_cluster_waits_out_the_outage(self):
        # With every node down the frontend must stall, not crash-loop.
        events = [TraceEvent(0.5, "WebServ"), TraceEvent(1.2, "WebServ")]
        cluster = run_chaos(BaselineSystem(), events, 3.0, n_servers=1,
                            plan=self.plan(), policy=RETRY)
        assert cluster.metrics.completed_workflows() == 2
        assert cluster.metrics.lost_invocations == 0

    def test_crash_determinism(self):
        events = steady("WebServ", 20.0, 4.0)

        def run():
            cluster = run_chaos(EcoFaaSSystem(EcoFaaSConfig()), events, 4.0,
                                plan=self.plan(), policy=RETRY, seed=5)
            return (cluster.total_energy_j, cluster.metrics.retries,
                    [r.latency_s for r in cluster.metrics.workflow_records])

        assert run() == run()


class TestContainerKill:
    def test_kill_forces_fresh_cold_start(self):
        events = [TraceEvent(0.1, "WebServ"), TraceEvent(3.0, "WebServ")]
        plan = FaultPlan((FaultEvent(2.0, CONTAINER_KILL, node=0,
                                     function="WebServ"),))
        cluster = run_chaos(BaselineSystem(), events, 5.0, n_servers=1,
                            plan=plan)
        metrics = cluster.metrics
        assert metrics.completed_workflows() == 2
        # Warm container was killed between the requests: two cold starts.
        assert metrics.cold_start_count() == 2
        assert metrics.failure_count(CONTAINER_KILL) == 1
        assert cluster.nodes[0].containers.kills == 1

    def test_kill_of_cold_container_is_not_counted(self):
        events = [TraceEvent(0.1, "WebServ")]
        plan = FaultPlan((FaultEvent(2.0, CONTAINER_KILL, node=0,
                                     function="CNNServ"),))  # never started
        cluster = run_chaos(BaselineSystem(), events, 5.0, n_servers=1,
                            plan=plan)
        assert cluster.metrics.failure_count(CONTAINER_KILL) == 0
        assert cluster.fault_injector.applied == []


class TestLatencyFaults:
    def test_rpc_spike_stretches_block_time(self):
        events = [TraceEvent(0.5, "WebServ")]
        plan = FaultPlan((FaultEvent(0.0, RPC_SPIKE, node=0,
                                     duration_s=30.0, magnitude=5.0),))
        calm = run_chaos(BaselineSystem(), list(events), 2.0, n_servers=1)
        spiky = run_chaos(BaselineSystem(), list(events), 2.0, n_servers=1,
                          plan=plan)
        calm_r = calm.metrics.function_records[0]
        spiky_r = spiky.metrics.function_records[0]
        assert spiky_r.t_block_s > calm_r.t_block_s * 2
        assert spiky_r.latency_s > calm_r.latency_s

    def test_dvfs_stall_inflates_transition_cost(self):
        # PowerCtrl re-programs cores per job (sandboxed switch cost paid
        # whenever the core's frequency changes); a stall makes those
        # transitions expensive, so latency rises.
        events = steady("WebServ", 10.0, 3.0)
        plan = FaultPlan((FaultEvent(0.0, DVFS_STALL, node=0,
                                     duration_s=60.0, magnitude=200.0),))
        calm = run_chaos(PowerCtrlSystem(), list(events), 3.0, n_servers=1)
        stalled = run_chaos(PowerCtrlSystem(), list(events), 3.0,
                            n_servers=1, plan=plan)
        assert (stalled.metrics.latency_avg()
                > calm.metrics.latency_avg())

    def test_overlapping_spikes_compose_and_restore_exactly(self):
        plan = FaultPlan((
            FaultEvent(0.5, RPC_SPIKE, node=0, duration_s=2.0,
                       magnitude=3.0),
            FaultEvent(1.0, RPC_SPIKE, node=0, duration_s=2.0,
                       magnitude=7.0),
        ))
        env = Environment()
        cluster = Cluster(env, BaselineSystem(),
                          ClusterConfig(n_servers=1, seed=0),
                          fault_plan=plan)
        node = cluster.nodes[0]
        seen = {}
        for t in (0.75, 1.5, 2.75, 4.0):
            env.run(until=t)
            seen[t] = node.rpc_latency_factor
        assert seen[0.75] == pytest.approx(3.0)
        assert seen[1.5] == pytest.approx(21.0)   # windows overlap
        assert seen[2.75] == pytest.approx(7.0)   # first window over
        assert seen[4.0] == 1.0                   # exact restore


class TestTimeoutsAndHedging:
    def test_timeout_abandons_and_eventually_loses(self):
        # A timeout far below any feasible service time: every attempt is
        # written off and the invocation is finally lost.
        policy = ReliabilityPolicy(max_retries=2, backoff_base_s=0.01,
                                   backoff_jitter=0.0,
                                   invocation_timeout_s=0.001)
        events = [TraceEvent(0.1, "WebServ")]
        cluster = run_chaos(BaselineSystem(), events, 2.0, n_servers=1,
                            policy=policy)
        metrics = cluster.metrics
        assert metrics.timeouts == 3          # initial + 2 retries
        assert metrics.retries == 2
        assert metrics.lost_invocations == 1
        assert metrics.failed_workflows == 1
        assert metrics.completed_workflows() == 0
        # The written-off attempts still ran to completion during the
        # drain; their energy is accounted as retry waste, not results.
        assert metrics.abandoned_completions == 3
        assert metrics.retry_energy_j > 0
        assert metrics.function_records == []

    def test_hedge_launches_duplicate_on_second_node(self):
        policy = ReliabilityPolicy(max_retries=2, backoff_jitter=0.0,
                                   hedge_after_s=0.01)
        events = [TraceEvent(0.1, "CNNServ")]
        cluster = run_chaos(BaselineSystem(), events, 3.0, n_servers=2,
                            policy=policy)
        metrics = cluster.metrics
        assert metrics.hedges == 1
        assert metrics.completed_workflows() == 1
        # One attempt won; the loser finished as an abandoned duplicate.
        assert metrics.abandoned_completions == 1
        assert len(metrics.function_records) == 1

    def test_policy_without_faults_changes_no_outcome(self):
        # A generous policy on a healthy cluster: no retries, no hedges,
        # identical completion counts to the plain path.
        events = steady("WebServ", 10.0, 3.0)
        plain = run_chaos(BaselineSystem(), list(events), 3.0)
        guarded = run_chaos(BaselineSystem(), list(events), 3.0,
                            policy=RETRY)
        assert (guarded.metrics.completed_workflows()
                == plain.metrics.completed_workflows() == len(events))
        assert guarded.metrics.retries == 0
        assert guarded.metrics.timeouts == 0
        assert guarded.metrics.hedges == 0


class TestInjectorDeterminism:
    def test_applied_log_is_reproducible(self):
        plan = FaultPlan.calibrated(20.0, 2, ["WebServ"], seed=11,
                                    kills_per_node_hour=2000.0,
                                    spikes_per_hour=2000.0)
        events = steady("WebServ", 10.0, 20.0)

        def run():
            cluster = run_chaos(BaselineSystem(), list(events), 20.0,
                                plan=plan, policy=RETRY, seed=11)
            return cluster.fault_injector.applied

        first, second = run(), run()
        assert first == second
        assert first  # something actually fired


class TestPlanValidationAndSerialization:
    """Cluster-relative validation and the fuzz-artifact JSON round trip."""

    def test_nan_and_inf_times_are_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FaultEvent(bad, NODE_CRASH, duration_s=1.0)
            with pytest.raises(ValueError, match="finite"):
                FaultEvent(1.0, RPC_SPIKE, duration_s=bad)
            with pytest.raises(ValueError, match="finite"):
                FaultEvent(1.0, DVFS_STALL, duration_s=1.0, magnitude=bad)

    def test_check_flags_cluster_relative_problems(self):
        plan = FaultPlan((
            FaultEvent(1.0, NODE_CRASH, node=5, duration_s=2.0),
            FaultEvent(2.0, CONTAINER_KILL, node=0, function="Ghost"),
        ))
        problems = plan.check(n_servers=2, functions=["WebServ"])
        assert len(problems) == 2
        assert any("out of range" in p for p in problems)
        assert any("Ghost" in p for p in problems)
        # Without a cluster shape, nothing is checkable.
        assert plan.check() == []

    def test_check_flags_overlapping_crash_windows(self):
        plan = FaultPlan((
            FaultEvent(1.0, NODE_CRASH, node=0, duration_s=3.0),
            FaultEvent(2.0, NODE_CRASH, node=0, duration_s=3.0),
            FaultEvent(2.0, NODE_CRASH, node=1, duration_s=3.0),
        ))
        problems = plan.check(n_servers=2)
        assert len(problems) == 1
        assert "overlaps" in problems[0]

    def test_validate_raises_listing_every_problem(self):
        plan = FaultPlan((
            FaultEvent(1.0, NODE_CRASH, node=9, duration_s=2.0),
            FaultEvent(4.0, NODE_CRASH, node=9, duration_s=2.0),
        ))
        with pytest.raises(ValueError, match="invalid fault plan"):
            plan.validate(n_servers=2)
        assert plan.validate(n_servers=10) is plan  # clean shape passes

    def test_calibrated_plans_keep_passing_node_range_checks(self):
        plan = FaultPlan.calibrated(60.0, 3, ["WebServ"], seed=11)
        problems = plan.check(n_servers=3, functions=["WebServ"])
        assert all("overlaps" in p for p in problems)

    def test_json_round_trip_is_identity(self):
        plan = FaultPlan.calibrated(30.0, 2, ["WebServ", "CNNServ"],
                                    seed=4)
        data = plan.to_json()
        import json
        assert json.loads(json.dumps(data)) == data
        assert FaultPlan.from_json(data) == plan

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-event fields"):
            FaultPlan.from_json([{"time_s": 1.0, "kind": NODE_CRASH,
                                  "duration_s": 1.0, "severity": "bad"}])
