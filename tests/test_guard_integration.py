"""repro.guard wired through the cluster: end-to-end degradation tests.

Covers the acceptance behaviours of the guard subsystem on live
simulations: admission keeps zero SLO-bearing sheds below saturation and
sheds best-effort first past it; circuit breakers compose with the
``repro.faults`` retry machinery (strictly less retry energy than
retries alone under a persistent fault); checkpoints restore crashed
node controllers within the staleness bound; the watchdog kicks stuck
control loops; and safe mode screens pathological predictions, budgets
the MILP, and pins frequencies on stale profiles.
"""

import math

from repro.core import EcoFaaSConfig, EcoFaaSSystem
from repro.core.profiles import ProfileStore
from repro.experiments import overload
from repro.faults import CONTAINER_KILL, NODE_CRASH, FaultEvent, FaultPlan
from repro.guard import BreakerConfig, GuardConfig
from repro.guard import checkpoint as checkpoint_module
from repro.guard import runtime as guard_runtime
from repro.guard import safemode as safemode_module
from repro.platform.cluster import Cluster, ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.sim import Environment
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace, TraceEvent
from repro.workloads.registry import all_benchmarks, benchmark_names


def build_cluster(guard, *, n_servers=2, cores=20, drain_s=5.0,
                  policy=None, fault_plan=None, slo_multiple=5.0, seed=0):
    env = Environment()
    return Cluster(env, EcoFaaSSystem(EcoFaaSConfig()),
                   ClusterConfig(n_servers=n_servers,
                                 cores_per_server=cores, seed=seed,
                                 drain_s=drain_s, reliability=policy,
                                 guard=guard, slo_multiple=slo_multiple),
                   fault_plan=fault_plan)


def steady(benchmark, rate_hz, duration, start=0.1):
    step = 1.0 / rate_hz
    return [TraceEvent(start + i * step, benchmark)
            for i in range(int((duration - start) * rate_hz))]


class TestAdmissionShedding:
    """The overload experiment's structural invariants, at test scale."""

    N_SERVERS, CORES = 2, 8

    def run_at(self, utilization, guards_on=True, duration=10.0):
        guard = (overload.guard_config(self.N_SERVERS, self.CORES)
                 if guards_on else None)
        saturation = rate_for_utilization(
            all_benchmarks(), 1.0, total_cores=self.N_SERVERS * self.CORES)
        trace = generate_poisson_trace(PoissonLoadConfig(
            benchmark_names(), rate_rps=saturation * utilization,
            duration_s=duration, seed=42))
        cluster = build_cluster(guard, n_servers=self.N_SERVERS,
                                cores=self.CORES, drain_s=8.0)
        cluster.run_trace(trace)
        return trace, cluster

    def shed_split(self, metrics):
        best_effort = set(overload.best_effort_benchmarks())
        slo = sum(count for bench, count in metrics.shed_by_benchmark.items()
                  if bench not in best_effort)
        be = sum(count for bench, count in metrics.shed_by_benchmark.items()
                 if bench in best_effort)
        return slo, be

    def test_sub_saturation_sheds_no_slo_work(self):
        """The CI smoke invariant: below saturation the admission guard
        never touches an SLO-bearing workflow."""
        trace, cluster = self.run_at(0.8)
        shed_slo, _ = self.shed_split(cluster.metrics)
        assert shed_slo == 0
        assert cluster.inflight == 0  # nothing stranded either

    def test_overload_sheds_best_effort_and_bounds_backlog(self):
        trace, guarded = self.run_at(2.5)
        _, unguarded = self.run_at(2.5, guards_on=False)
        shed_slo, shed_be = self.shed_split(guarded.metrics)
        # Past saturation both classes are shed, best-effort included.
        assert shed_be > 0
        assert shed_slo > 0
        assert guarded.metrics.shed_count() == shed_slo + shed_be
        # The guards-off arm strands far more work at end of run: the
        # queue blow-up that admission control exists to prevent.
        assert guarded.inflight < unguarded.inflight
        assert unguarded.metrics.shed_count() == 0

    def test_shed_workflows_never_reach_the_engine(self):
        trace, cluster = self.run_at(2.5)
        metrics = cluster.metrics
        offered = sum(trace.invocation_counts().values())
        accounted = (metrics.completed_workflows() + metrics.failed_workflows
                     + metrics.shed_count() + cluster.inflight)
        assert accounted == offered


class TestBreakerRetryComposition:
    """Breakers must compose with (not multiply) the retry machinery."""

    def run(self, guard):
        # CNNServ's 1.5 s cold start can never beat the 1.0 s attempt
        # timeout while the injector keeps killing the container
        # mid-boot, so every attempt fails for the whole trace window —
        # a persistent fault the retry policy alone keeps paying for.
        events = steady("CNNServ", 2.0, 8.0)
        kills = tuple(FaultEvent(0.3 + 0.4 * k, CONTAINER_KILL, node=0,
                                 function="CNNServ") for k in range(20))
        policy = ReliabilityPolicy(max_retries=3, backoff_base_s=0.05,
                                   backoff_jitter=0.0,
                                   invocation_timeout_s=1.0)
        cluster = build_cluster(guard, n_servers=1, drain_s=20.0,
                                policy=policy,
                                fault_plan=FaultPlan(kills))
        cluster.run_trace(Trace(events, 8.0))
        return cluster

    def test_breaker_cuts_retry_energy_of_a_persistent_fault(self):
        plain = self.run(None)
        guarded = self.run(GuardConfig(breaker=BreakerConfig(
            window_s=10.0, min_failures=3, failure_rate=0.5,
            open_for_s=4.0)))
        # The fault actually bit: the plain run burned retries and energy
        # on attempts that were doomed from the start.
        assert plain.metrics.timeouts > 0
        assert plain.metrics.retry_energy_j > 0
        # The breaker opened and failed the doomed invocations fast...
        assert guarded.metrics.breaker_opens >= 1
        assert guarded.metrics.breaker_fast_fails > 0
        assert guarded.metrics.retries < plain.metrics.retries
        # ...so the total energy wasted on retries is strictly lower.
        assert (guarded.metrics.retry_energy_j
                < plain.metrics.retry_energy_j)

    def test_breaker_is_quiet_on_a_healthy_cluster(self):
        guard = GuardConfig(breaker=BreakerConfig())
        policy = ReliabilityPolicy(max_retries=3, backoff_jitter=0.0)
        cluster = build_cluster(guard, n_servers=1, policy=policy)
        cluster.run_trace(Trace(steady("WebServ", 10.0, 3.0), 3.0))
        metrics = cluster.metrics
        assert metrics.completed_workflows() == len(
            steady("WebServ", 10.0, 3.0))
        assert metrics.breaker_opens == 0
        assert metrics.breaker_fast_fails == 0


CRASH_POLICY = ReliabilityPolicy(max_retries=8, backoff_base_s=0.05,
                                 backoff_jitter=0.0)


class TestCheckpointRestore:
    def run(self, monkeypatch, max_staleness_s, crash_duration_s):
        monkeypatch.setattr(guard_runtime, "CHECKPOINT_PERIOD_S", 0.5)
        monkeypatch.setattr(checkpoint_module, "MAX_STALENESS_S",
                            max_staleness_s)
        plan = FaultPlan((FaultEvent(4.0, NODE_CRASH, node=0,
                                     duration_s=crash_duration_s),))
        cluster = build_cluster(GuardConfig(checkpoint=True),
                                policy=CRASH_POLICY, fault_plan=plan)
        cluster.run_trace(Trace(steady("WebServ", 20.0, 6.0), 6.5))
        return cluster

    def test_fresh_checkpoint_restores_the_pool_shape(self, monkeypatch):
        cluster = self.run(monkeypatch, 5.0, 1.0)
        metrics = cluster.metrics
        assert metrics.checkpoints_taken > 0
        assert metrics.checkpoint_restores == 1
        assert metrics.lost_invocations == 0
        # The restored controller came back with a learned multi-pool
        # shape instead of the cold single max-frequency pool.
        assert len(cluster.nodes[0]._targets) > 1

    def test_stale_checkpoint_is_discarded(self, monkeypatch):
        # The node is down for longer than the staleness bound, so its
        # last pre-crash snapshot must NOT be restored (stale control
        # state is worse than cold state).
        cluster = self.run(monkeypatch, 1.0, 2.0)
        assert cluster.metrics.checkpoints_taken > 0
        assert cluster.metrics.checkpoint_restores == 0

    def test_watchdog_kicks_a_stuck_control_loop(self, monkeypatch):
        monkeypatch.setattr(guard_runtime, "CHECKPOINT_PERIOD_S", 0.5)
        cluster = build_cluster(GuardConfig(checkpoint=True))
        cluster.env.run(until=4.0)
        assert cluster.metrics.watchdog_kicks == 0  # loop is healthy
        # Simulate a wedged refresh loop: the controller has not run for
        # far longer than WATCHDOG_FACTOR * t_refresh.
        node = cluster.nodes[0]
        node.last_refresh_s = cluster.env.now - 100.0
        cluster.env.run(until=cluster.env.now + 0.6)
        assert cluster.metrics.watchdog_kicks >= 1
        # The kick actually refreshed the node.
        assert cluster.env.now - node.last_refresh_s < 1.0


class TestSafeMode:
    def test_tiny_milp_budget_falls_back_to_proportional_split(
            self, monkeypatch):
        monkeypatch.setattr(guard_runtime, "MILP_NODE_BUDGET", 1)
        cluster = build_cluster(GuardConfig(safe_mode=True),
                                slo_multiple=1.1)
        events = [TraceEvent(0.1 + i * 0.1, "eBank") for i in range(80)]
        cluster.run_trace(Trace(events, 8.1))
        metrics = cluster.metrics
        # The one-node budget exhausts on a tight-SLO multi-stage solve;
        # the controller degrades to the proportional split and the
        # workflows all still complete.
        assert metrics.milp_fallbacks >= 1
        assert metrics.completed_workflows() == len(events)

    def test_generous_milp_budget_never_falls_back(self, monkeypatch):
        monkeypatch.setattr(guard_runtime, "MILP_NODE_BUDGET", 20_000)
        cluster = build_cluster(GuardConfig(safe_mode=True),
                                slo_multiple=1.1)
        events = [TraceEvent(0.1 + i * 0.1, "eBank") for i in range(80)]
        cluster.run_trace(Trace(events, 8.1))
        assert cluster.metrics.milp_fallbacks == 0
        assert cluster.metrics.completed_workflows() == len(events)

    def test_nan_predictions_are_screened_and_the_run_survives(self,
                                                               monkeypatch):
        cluster = build_cluster(GuardConfig(safe_mode=True), n_servers=1)
        # A degenerate fit: every T_Block prediction comes out NaN.
        monkeypatch.setattr(ProfileStore, "predict_t_block",
                            lambda *args, **kwargs: float("nan"))
        events = steady("WebServ", 10.0, 4.0)
        cluster.run_trace(Trace(events, 4.0))
        metrics = cluster.metrics
        assert metrics.mispredictions > 0
        assert metrics.completed_workflows() == len(events)

    def test_stale_profile_pins_dispatch_to_max_frequency(self,
                                                          monkeypatch):
        monkeypatch.setattr(safemode_module, "DPT_STALENESS_S", 1.5)
        cluster = build_cluster(GuardConfig(safe_mode=True), n_servers=1,
                                drain_s=3.0)
        # A warm-up burst trains the profile, then a silent gap longer
        # than the staleness bound, then one more burst: the first
        # post-gap dispatches must pin to the top frequency.
        events = (steady("WebServ", 10.0, 3.0)
                  + steady("WebServ", 10.0, 7.0, start=6.0))
        cluster.run_trace(Trace(events, 7.0))
        metrics = cluster.metrics
        assert metrics.freq_pins >= 1
        assert metrics.completed_workflows() == len(events)
        # Fresh observations unpin: not every post-gap arrival pinned.
        assert metrics.freq_pins < 10

    def test_guard_counters_stay_zero_without_a_config(self):
        cluster = build_cluster(None)
        cluster.run_trace(Trace(steady("WebServ", 10.0, 2.0), 2.0))
        metrics = cluster.metrics
        assert cluster.guard.config == GuardConfig()  # every guard off
        assert metrics.shed_count() == 0
        assert metrics.breaker_opens == metrics.breaker_fast_fails == 0
        assert metrics.mispredictions == metrics.milp_fallbacks == 0
        assert metrics.freq_pins == 0
        assert metrics.checkpoints_taken == metrics.checkpoint_restores == 0
        assert metrics.watchdog_kicks == 0


class TestOverloadExperimentShape:
    """Structure of the overload experiment harness (cheap pieces only)."""

    def test_guard_config_is_admission_only_and_sized_to_capacity(self):
        guard = overload.guard_config(2, 20)
        assert guard.admission is not None
        assert guard.admission.rate_rps > 0
        assert guard.admission.brownout_ewt_s == overload.BROWNOUT_EWT_S
        assert set(guard.admission.best_effort) == set(
            overload.best_effort_benchmarks())

    def test_best_effort_set_is_fixed_and_real(self):
        best_effort = overload.best_effort_benchmarks()
        assert len(best_effort) == 1
        assert set(best_effort) <= set(benchmark_names())

    def test_utilization_sweep_crosses_saturation(self):
        assert min(overload.UTILIZATIONS) < 1.0 < max(overload.UTILIZATIONS)
        assert math.isfinite(sum(overload.UTILIZATIONS))
