"""Core Pools, the elastic per-node controller, and the EcoFaaS node.

Section VI-C/VI-D: cores are grouped into pools, each at one frequency,
driven by a user-level FPS (our :class:`CorePoolScheduler` configured with
FIFO + old-preempts-young + context-switch-on-idle). Every ``T_refresh``
the node controller collects per-pool statistics plus the dispatchers'
*desired-frequency demand* histogram, recomputes the pool set (levels,
sizes), and moves cores — frequency changes go through the root/MSR path
at a few tens of µs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

from repro.core.config import EcoFaaSConfig
from repro.core.dispatcher import EnergyAwareDispatcher
from repro.core.profiles import ProfileStore
from repro.hardware.core import Core
from repro.hardware.server import Server
from repro.hardware.work import WorkUnit
from repro.platform.job import Job
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.scheduler import CorePoolScheduler
from repro.platform.system import NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.model import FunctionModel
from repro.workloads.spec import InvocationSpec, RunSegment

#: Cost of a root/MSR frequency change (Section VIII-D).
KERNEL_SWITCH_COST_S = 50e-6

#: Maximum concurrent core pools (Fig. 21 guardrail).
MAX_POOLS = 8

#: Sort key of :meth:`EcoFaaSNode.active_pools`.
_FREQUENCY = attrgetter("frequency_ghz")

#: Pool demand fraction below which a pool is boosted one level when
#: its jobs frequently needed temporary boosts.
BOOST_PROMOTE_FRACTION = 0.10


class EcoFaaSNode(NodeSystem):
    """One EcoFaaS server: elastic Core Pools + per-function dispatchers."""

    def __init__(self, env: Environment, server: Server,
                 metrics: MetricsCollector, rng: RngRegistry,
                 config: EcoFaaSConfig, store: ProfileStore,
                 layers: Layers):
        super().__init__(env, server, metrics, rng, layers)
        self.config = config
        self.store = store
        self.scale = server.scale
        self._free: List[Core] = []
        self._pools: List[CorePoolScheduler] = []
        self._retiring: List[CorePoolScheduler] = []
        #: Last refresh's core targets, for immediate redistribution of
        #: cores released between refreshes.
        self._targets: Dict[float, int] = {}
        #: Smoothed per-level demand across refresh windows (stability).
        self._demand_ewma: Dict[float, float] = {}
        self._dispatchers: Dict[str, EnergyAwareDispatcher] = {}
        #: Desired-frequency demand (level → expected run seconds) within
        #: the current refresh window.
        self._demand: Dict[float, float] = {}
        #: Fig. 21 data: pool count sampled at every refresh.
        self.pool_count_samples: List[tuple] = []
        #: When the control loop last ran (the guard watchdog's signal).
        self.last_refresh_s = env.now
        # Start with every core in one pool at the top frequency — the
        # no-knowledge-yet default.
        self._pools.append(self._make_pool(self.scale.max,
                                           list(server.cores)))
        if config.elastic:
            env.process(self._refresh_loop(),
                        name=f"ecofaas-refresh-{server.server_id}")

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def _make_pool(self, freq_ghz: float,
                   cores: List[Core]) -> CorePoolScheduler:
        return CorePoolScheduler(
            self.env, cores, frequency_ghz=freq_ghz,
            name=f"pool{freq_ghz:.1f}@{self.server.server_id}",
            context_switch_s=self.config.context_switch_s,
            switch_on_idle=not self.config.run_to_completion,
            preemptive=True,
            per_job_frequency=True,
            switch_cost=KERNEL_SWITCH_COST_S,
            freq_change_cost_s=KERNEL_SWITCH_COST_S,
            on_complete=self._on_job_complete,
            on_core_released=self._core_released,
            cost_scale=self.dvfs_cost_scale,
            block_latency=self.rpc_latency_scale,
            tally=self.load_tally,
            **self.layers.pool_hooks())

    def iter_pools(self) -> List[CorePoolScheduler]:
        """Every live pool, retiring ones included (observability)."""
        return self._pools + self._retiring

    def active_pools(self) -> List[CorePoolScheduler]:
        """Usable pools, sorted by frequency ascending; never empty."""
        usable = [p for p in self._pools if p.n_cores > 0]
        if not usable:
            usable = list(self._pools)
        return sorted(usable, key=_FREQUENCY)

    def pool_count(self) -> int:
        """Distinct active pools (the Fig. 21 metric)."""
        return len({p.frequency_ghz for p in self._pools if p.n_cores > 0})

    def note_demand(self, freq_ghz: float, run_seconds: float) -> None:
        """Dispatcher signal: one invocation wanted ``freq_ghz``."""
        self._demand[freq_ghz] = (self._demand.get(freq_ghz, 0.0)
                                  + max(run_seconds, 1e-6))

    def raise_pool_frequency(self, pool: CorePoolScheduler,
                             freq_ghz: float) -> None:
        """Boost a whole pool (dispatcher escalation strategy 2/3)."""
        freq_ghz = self.layers.tenancy.clamp_freq(freq_ghz)
        if freq_ghz > pool.frequency_ghz:
            pool.set_frequency(freq_ghz,
                               cost_s=KERNEL_SWITCH_COST_S)

    def apply_frequency_ceiling(self, ceiling_ghz) -> None:
        """Power-cap hook: retune every pool above the ceiling down to it.

        The kernel/MSR path the node controller already owns does the
        switch; busy cores stall for the usual transition cost. Lifting
        the cap (``None``) does nothing here — pools climb back through
        demand-driven refreshes and boosts.
        """
        if ceiling_ghz is None:
            return
        for pool in self._pools + self._retiring:
            if pool.frequency_ghz > ceiling_ghz + 1e-12:
                pool.set_frequency(ceiling_ghz,
                                   cost_s=KERNEL_SWITCH_COST_S)

    # ------------------------------------------------------------------
    # NodeSystem interface
    # ------------------------------------------------------------------
    def submit(self, fn_model: FunctionModel, spec: InvocationSpec,
               deadline_s: Optional[float], benchmark: str,
               seniority_time_s: Optional[float] = None) -> Job:
        job = Job(self.env, spec, benchmark, arrival_s=self.env.now,
                  deadline_s=deadline_s, seniority_time_s=seniority_time_s)
        self._submit_with_container(fn_model, job, f"cold/{fn_model.name}",
                                    self._dispatch)
        return job

    def _dispatcher(self, fn_model: FunctionModel) -> EnergyAwareDispatcher:
        if fn_model.name not in self._dispatchers:
            self._dispatchers[fn_model.name] = EnergyAwareDispatcher(
                self, fn_model)
        return self._dispatchers[fn_model.name]

    def _dispatch(self, fn_model: FunctionModel, job: Job) -> None:
        self._dispatcher(fn_model).register(job)
        self._unstick_pools()

    def _core_released(self, core: Core) -> None:
        """A marked busy core finally freed: re-home it right away rather
        than letting it idle until the next refresh."""
        self._free.append(core)
        for pool in sorted(self._pools,
                           key=lambda p: p.n_cores
                           - self._targets.get(p.frequency_ghz, 0)):
            if pool.n_cores < self._targets.get(pool.frequency_ghz, 0):
                pool.add_core(self._free.pop())
                return

    def _unstick_pools(self) -> None:
        """Give a spare core to any loaded pool that lost all of its cores
        (transient state between refreshes)."""
        for pool in self._pools:
            if pool.load > 0 and pool.n_cores == 0 and self._free:
                pool.add_core(self._free.pop())

    def _on_job_complete(self, job: Job) -> None:
        if job.is_prewarm:
            return
        dispatcher = self._dispatchers.get(job.function_name)
        if dispatcher is not None:
            dispatcher.record_completion(job)
        if self.containers.is_warm(job.function_name):
            self.containers.touch(job.function_name)
        self.metrics.record_job(job)

    # ------------------------------------------------------------------
    # Prewarming (Section VI-E1)
    # ------------------------------------------------------------------
    def prewarm(self, fn_model: FunctionModel, budget_s: float,
                benchmark: str) -> None:
        if self.down:
            return
        if self.containers.state(fn_model.name) != "cold":
            return
        self.containers.begin_cold_start(fn_model.name)
        setup = fn_model.sample_cold_start_work(
            self.rng.stream(f"cold/{fn_model.name}"))
        spec = InvocationSpec(fn_model.name, [RunSegment(WorkUnit(0.0))])
        job = Job(self.env, spec, benchmark, arrival_s=self.env.now,
                  deadline_s=self.env.now + max(budget_s, 1e-3),
                  setup_work=setup)
        job.is_prewarm = True
        job.on_setup_done = (
            lambda name=fn_model.name: self._finish_prewarm(name, job))
        pool = self._prewarm_pool(fn_model.name, budget_s)
        if self.env.trace.enabled:
            self.env.trace.instant(
                "prewarm", self.track, function=fn_model.name,
                budget_s=budget_s, pool_ghz=pool.frequency_ghz)
        job.chosen_freq_ghz = pool.frequency_ghz
        job.registered_run_seconds = self._estimated_cold_seconds(
            fn_model.name, pool.frequency_ghz) or 0.0
        pool.submit(job)
        self._unstick_pools()

    def _estimated_cold_seconds(self, function_name: str,
                                freq_ghz: float) -> Optional[float]:
        ewma = self.store.cold_ewma(function_name)
        if not ewma.initialized:
            return None
        # Cold starts are compute-dominated: pure 1/f scaling.
        return ewma.forecast() * self.scale.max / freq_ghz

    def _prewarm_pool(self, function_name: str,
                      budget_s: float) -> CorePoolScheduler:
        """Minimal-frequency pool that finishes the cold start in budget.

        Before the cold-start duration is known, explore: pick pools of
        different frequencies across cold starts to populate the profile
        (Section VI-E1).
        """
        pools = self.active_pools()
        estimate = self._estimated_cold_seconds(function_name,
                                                self.scale.max)
        if estimate is None:
            index = int(self.rng.stream("prewarm/explore").integers(
                len(pools)))
            return pools[index]
        for pool in pools:
            cold = estimate * self.scale.max / pool.frequency_ghz
            if pool.estimated_queue_seconds() + cold <= budget_s:
                return pool
        return pools[-1]

    def _finish_prewarm(self, function_name: str, job: Job) -> None:
        self.containers.finish_cold_start(function_name)
        if job.freq_run_seconds:
            dominant = max(job.freq_run_seconds,
                           key=job.freq_run_seconds.get)
            at_max = job.t_run * dominant / self.scale.max
            self.store.cold_ewma(function_name).update(at_max)

    # ------------------------------------------------------------------
    # Elastic refresh (Section VI-D)
    # ------------------------------------------------------------------
    def _refresh_loop(self):
        while True:
            yield self.env.timeout(self.config.t_refresh_s)
            if self.down:
                continue
            if not self.layers.ha.authorize_resize(self):
                # Epoch fencing (repro.ha): no reachable leader holds a
                # fresh enough lease — freeze the pool set rather than
                # apply a resize a partitioned stale controller computed.
                continue
            self.refresh()

    # ------------------------------------------------------------------
    # Crash recovery (repro.faults)
    # ------------------------------------------------------------------
    def _abort_all_jobs(self) -> List[Job]:
        lost: List[Job] = []
        for pool in self._pools + self._retiring:
            lost.extend(pool.abort_all())
        return lost

    def _rebuild(self) -> None:
        """Reboot to the no-knowledge-yet default: one max-frequency pool.

        Every transient controller structure (pools, demand histograms,
        dispatchers, the free-core list) is rebuilt from scratch —
        ``abort_all`` left every core idle, so they all join the fresh
        pool. Function profiles live in the shared :class:`ProfileStore`
        (a persistent service in the paper's design), so learned behaviour
        survives the reboot; EWT counters do not, which is exactly the
        no-leak property the invariant tests check.
        """
        self._free = []
        self._retiring = []
        self._targets = {}
        self._demand = {}
        self._demand_ewma = {}
        self._dispatchers = {}
        self._pools = [self._make_pool(self.scale.max,
                                       list(self.server.cores))]

    # ------------------------------------------------------------------
    # Guard hooks (repro.guard): checkpoints and the refresh watchdog
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Optional[Dict[str, object]]:
        """Snapshot the learned control state the reboot would lose.

        Pool shape (``_targets``) and the smoothed demand histogram are
        the state the controller spends several ``T_refresh`` windows
        re-learning after a cold reboot. Function profiles need no
        snapshot: they live in the shared :class:`ProfileStore`, which
        survives crashes by design.
        """
        return {
            "targets": dict(self._targets),
            "demand_ewma": dict(self._demand_ewma),
        }

    def restore_state(self, state: Dict[str, object]) -> bool:
        """Resume the pool shape from a checkpoint (post-reboot).

        The smoothed demand histogram is re-applied through the normal
        refresh machinery, so the restored pool set is exactly what the
        next refresh would have computed from that demand.
        """
        ewma = state.get("demand_ewma") or {}
        self._demand_ewma = {float(level): float(weight)
                             for level, weight in ewma.items()}
        if self._demand_ewma:
            self._apply_demand(dict(self._demand_ewma))
        return True

    def watchdog_check(self, factor: float) -> bool:
        stale_after = factor * self.config.t_refresh_s
        if not self.config.elastic:
            return False
        if self.env.now - self.last_refresh_s <= stale_after:
            return False
        if not self.layers.ha.authorize_resize(self):
            # A deliberately fenced/frozen control loop is not stuck; the
            # watchdog must not force a resize past the epoch fence.
            return False
        self.refresh()
        return True

    def refresh(self) -> None:
        """Recompute the pool set from the window's demand and stats."""
        self.last_refresh_s = self.env.now
        stats = {id(pool): pool.stats.reset()
                 for pool in self._pools + self._retiring}
        demand, self._demand = self._demand, {}

        # Paper rules (Section VI-D): pools whose invocations often needed
        # temporary boosts shift demand one level up; pools that often took
        # invocations that could have run lower shift demand one level down
        # (which is how lower-frequency pools come into existence).
        for pool in self._pools:
            pool_stats = stats[id(pool)]
            level = pool.frequency_ghz
            if pool_stats.served == 0 or level not in demand:
                continue
            # The two signals act independently: a mixed pool (some jobs
            # needed boosts, others wanted lower) sheds demand in BOTH
            # directions — that split is precisely how a single hot pool
            # differentiates into several.
            if (pool_stats.boosted
                    > BOOST_PROMOTE_FRACTION * pool_stats.served):
                higher = self.scale.next_higher(level)
                if higher is not None:
                    moved = 0.5 * demand[level]
                    demand[level] -= moved
                    demand[higher] = demand.get(higher, 0.0) + moved
            if pool_stats.wanted_lower_freq > 0.25 * pool_stats.served:
                lower = self.scale.next_lower(level)
                if lower is not None:
                    moved = 0.5 * demand[level]
                    demand[level] -= moved
                    demand[lower] = demand.get(lower, 0.0) + moved

        # Capacity must also cover the work already sitting in the pools
        # (their EWT counters), or a pool whose fresh demand dipped would
        # lose its cores while its queue still drains. This mirrors the
        # paper's "longer waiting times receive higher weights" rule.
        for pool in self._pools:
            backlog = pool.ewt_seconds
            if backlog > 0:
                demand[pool.frequency_ghz] = (
                    demand.get(pool.frequency_ghz, 0.0) + backlog)

        if not demand:
            # Idle window: keep the current shape.
            demand = {pool.frequency_ghz: float(max(pool.load, 1))
                      for pool in self._pools}
        demand = {self.scale.ceil(level): weight
                  for level, weight in demand.items()}

        # Smooth across windows so a single bursty window cannot trigger a
        # wholesale core migration.
        smoothed: Dict[float, float] = {}
        for level in set(demand) | set(self._demand_ewma):
            smoothed[level] = (0.5 * self._demand_ewma.get(level, 0.0)
                               + 0.5 * demand.get(level, 0.0))
        total = sum(smoothed.values())
        # Forget negligible levels so stale pools eventually dissolve.
        smoothed = {level: weight for level, weight in smoothed.items()
                    if weight > 0.01 * total}
        self._demand_ewma = dict(smoothed)

        trace = self.env.trace

        def pool_targets() -> Dict[str, int]:
            # Keyed by the pools' trace names, so decisions join
            # directly against queue-phase spans in `repro explain`.
            sid = self.server.server_id
            return {f"pool{level:.1f}@{sid}": count
                    for level, count in sorted(self._targets.items())}

        prev_targets = pool_targets() if trace.enabled else None
        self._apply_demand(dict(smoothed))
        self.pool_count_samples.append((self.env.now, self.pool_count()))
        if trace.enabled:
            trace.counter(self.track, "pool_count", self.pool_count())
            new_targets = pool_targets()
            if new_targets != prev_targets:
                trace.decision(
                    "pool_retune", self.track,
                    inputs={"demand": {f"{level:.2f}": round(weight, 4)
                                       for level, weight
                                       in sorted(smoothed.items())},
                            "targets": prev_targets},
                    action={"targets": new_targets},
                    alternatives=[{"targets": prev_targets,
                                   "rejected": "window demand shifted"}],
                    reason="elastic refresh resized the frequency pools"
                           " to the smoothed window demand")

    def _apply_demand(self, demand: Dict[float, float]) -> None:
        # Power cap (repro.tenancy): demand above the frequency ceiling
        # folds into the ceiling level (no pool may target a capped-out
        # frequency), and pool sizing only staffs the usable core
        # fraction — the rest sit idle, which is the governor's
        # pool-shrinking actuator.
        tenancy = self.layers.tenancy
        ceiling = tenancy.freq_ceiling_ghz()
        if ceiling is not None:
            folded: Dict[float, float] = {}
            for level, weight in demand.items():
                capped = min(level, ceiling)
                folded[capped] = folded.get(capped, 0.0) + weight
            demand = folded
        # Cap the number of levels by folding the smallest demand into the
        # next higher level (running faster is always deadline-safe).
        levels = sorted(demand)
        while len(levels) > MAX_POOLS:
            smallest = min(levels, key=lambda level: demand[level])
            higher = [level for level in levels if level > smallest]
            target = min(higher) if higher else levels[-2]
            demand[target] = demand.get(target, 0.0) + demand.pop(smallest)
            levels.remove(smallest)

        n_cores = tenancy.capped_cores(self.server.n_cores)
        # Square-root staffing: allocate each level its offered load plus
        # sqrt-headroom (normalised to the server size). Pure proportional
        # sizing equalises utilisation, which leaves every pool's queue
        # roughly one job long — fatal for short-deadline invocations
        # sharing a level with multi-second jobs.
        offered = {level: weight / self.config.t_refresh_s
                   for level, weight in demand.items()}
        weights = {level: load + 2.0 * (load ** 0.5)
                   for level, load in offered.items()}
        total_weight = sum(weights.values())
        exact = {level: n_cores * weight / total_weight
                 for level, weight in weights.items()}
        targets = {level: max(1, int(value)) for level, value in exact.items()}
        leftover = n_cores - sum(targets.values())
        for level in sorted(exact, key=lambda l: exact[l] - int(exact[l]),
                            reverse=True):
            if leftover <= 0:
                break
            targets[level] += 1
            leftover -= 1
        while sum(targets.values()) > n_cores:
            richest = max(targets, key=targets.get)
            if targets[richest] <= 1:
                break
            targets[richest] -= 1

        # Reconcile pool objects with the target level set.
        existing: Dict[float, CorePoolScheduler] = {}
        for pool in self._pools:
            if pool.frequency_ghz in existing:
                self._retiring.append(pool)  # collision after a boost
            else:
                existing[pool.frequency_ghz] = pool
        new_pools: List[CorePoolScheduler] = []
        for level in sorted(targets):
            pool = existing.pop(level, None)
            if pool is None:
                pool = self._make_pool(level, [])
            new_pools.append(pool)
        self._retiring.extend(existing.values())
        self._pools = new_pools
        self._targets = dict(targets)

        self._migrate_retiring()
        self._harvest_cores(targets)
        self._distribute_cores(targets)
        self._unstick_pools()

    def _migrate_retiring(self) -> None:
        """Move retiring pools' ready queues into surviving pools.

        Without this, a displaced pool strands its whole queue on the one
        core it keeps — the worst source of tail latency.
        """
        for pool in list(self._retiring):
            for job in pool.drain_ready():
                # Flags were already counted in the original pool's stats.
                job.boosted = False
                job.wanted_lower_freq = False
                self._pool_at_or_above(job.chosen_freq_ghz).submit(job)

    def _pool_at_or_above(self, freq_ghz: Optional[float]) -> CorePoolScheduler:
        pools = self.active_pools()
        if freq_ghz is not None:
            for pool in pools:
                if pool.frequency_ghz >= freq_ghz - 1e-12:
                    return pool
        return pools[-1]

    def _shed_down_to(self, pool: CorePoolScheduler, target: int) -> None:
        """Release idle cores now; mark ALL remaining excess busy cores so
        they leave as soon as their current job finishes (a busy pool must
        shed its whole surplus within roughly one job length, not one core
        per refresh)."""
        excess = pool.n_cores - target
        while excess > 0:
            core = pool.release_idle_core()
            if core is not None:
                self._free.append(core)
                excess -= 1
                continue
            if not pool.request_core_removal():
                break
            excess -= 1

    def _harvest_cores(self, targets: Dict[float, int]) -> None:
        for pool in list(self._retiring):
            self._shed_down_to(pool, 1 if pool.load > 0 else 0)
            if pool.load == 0 and pool.n_cores == 0:
                self._retiring.remove(pool)
        for pool in self._pools:
            self._shed_down_to(pool, targets[pool.frequency_ghz])

    def _distribute_cores(self, targets: Dict[float, int]) -> None:
        # Busiest pools first so scarce cores go where the queues are.
        for pool in sorted(self._pools, key=lambda p: -p.load):
            target = targets[pool.frequency_ghz]
            while pool.n_cores < target and self._free:
                pool.add_core(self._free.pop())
