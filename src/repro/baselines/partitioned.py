"""The MXFaaS core-ownership node model shared by both baselines.

MXFaaS (the paper's Baseline) assigns a set of cores to each function
container; invocations of a function are scheduled only on cores owned by
that function. We re-partition ownership periodically in proportion to each
function's outstanding work, with every active function keeping at least
one core — the resource model the paper describes in Section VII.

Subclass hooks decide the scheduling mode (context-switch-on-idle vs
run-to-completion) and the per-invocation frequency (always-max vs the
PowerCtrl chooser).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.core import Core
from repro.hardware.server import Server
from repro.platform.job import Job
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.scheduler import CorePoolScheduler
from repro.platform.system import NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.model import FunctionModel
from repro.workloads.spec import InvocationSpec

#: How often core ownership is re-balanced across function containers.
REPARTITION_INTERVAL_S = 1.0
#: A pool with no work for this long gives up its cores.
POOL_IDLE_TIMEOUT_S = 10.0


class PartitionedNode(NodeSystem):
    """A node whose cores are partitioned among function containers."""

    #: Subclass policy: context-switch when an invocation blocks?
    switch_on_idle = True
    #: Subclass policy: honour each job's ``chosen_freq_ghz``?
    per_job_frequency = False

    def __init__(self, env: Environment, server: Server,
                 metrics: MetricsCollector, rng: RngRegistry,
                 layers: Layers,
                 repartition_interval_s: float = REPARTITION_INTERVAL_S):
        super().__init__(env, server, metrics, rng, layers)
        if repartition_interval_s <= 0:
            raise ValueError("repartition interval must be positive")
        self._free_cores: List[Core] = list(server.cores)
        self._pools: Dict[str, CorePoolScheduler] = {}
        self._last_activity: Dict[str, float] = {}
        self.repartition_interval_s = repartition_interval_s
        env.process(self._repartition_loop(),
                    name=f"repartition-{server.server_id}")

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def choose_frequency(self, pool: CorePoolScheduler, job: Job,
                         fn_model: FunctionModel) -> None:
        """Set ``job.chosen_freq_ghz`` / ``registered_run_seconds``.

        The plain Baseline runs everything at the top frequency.
        """
        job.chosen_freq_ghz = self.server.scale.max
        job.registered_run_seconds = job.remaining_run_seconds(
            self.server.scale.max)

    def switch_cost(self) -> float:
        """Cost of re-programming a core's frequency at dispatch."""
        return 0.0

    # ------------------------------------------------------------------
    # NodeSystem interface
    # ------------------------------------------------------------------
    def submit(self, fn_model: FunctionModel, spec: InvocationSpec,
               deadline_s: Optional[float], benchmark: str,
               seniority_time_s: Optional[float] = None) -> Job:
        job = Job(self.env, spec, benchmark, arrival_s=self.env.now,
                  deadline_s=deadline_s, seniority_time_s=seniority_time_s)
        self._submit_with_container(fn_model, job, f"cold/{fn_model.name}",
                                    self._enqueue)
        return job

    def iter_pools(self) -> List[CorePoolScheduler]:
        """Live per-function pools (observability)."""
        return list(self._pools.values())

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _enqueue(self, fn_model: FunctionModel, job: Job) -> None:
        pool = self._pool_for(fn_model.name)
        self._last_activity[fn_model.name] = self.env.now
        if pool.n_cores == 0:
            # A just-(re)created pool must not wait for the next periodic
            # re-balance to receive cores.
            self._rebalance()
        self.choose_frequency(pool, job, fn_model)
        pool.submit(job)

    def _pool_for(self, function_name: str) -> CorePoolScheduler:
        if function_name not in self._pools:
            self._pools[function_name] = CorePoolScheduler(
                self.env, [], frequency_ghz=self.server.scale.max,
                name=f"{function_name}@{self.server.server_id}",
                switch_on_idle=self.switch_on_idle,
                per_job_frequency=self.per_job_frequency,
                switch_cost=self.switch_cost,
                on_complete=self._on_job_complete,
                on_core_released=self._free_cores.append,
                cost_scale=self.dvfs_cost_scale,
                block_latency=self.rpc_latency_scale,
                tally=self.load_tally,
                **self.layers.pool_hooks())
            self._rebalance()
        return self._pools[function_name]

    def _on_job_complete(self, job: Job) -> None:
        self._last_activity[job.function_name] = self.env.now
        self.metrics.record_job(job)

    def _repartition_loop(self):
        while True:
            yield self.env.timeout(self.repartition_interval_s)
            if self.down:
                continue
            self._retire_idle_pools()
            self._rebalance()

    # ------------------------------------------------------------------
    # Crash recovery (repro.faults)
    # ------------------------------------------------------------------
    def _abort_all_jobs(self) -> List[Job]:
        lost: List[Job] = []
        for pool in self._pools.values():
            lost.extend(pool.abort_all())
        return lost

    def _rebuild(self) -> None:
        """Reboot with no ownership knowledge: all cores free, no pools.

        ``abort_all`` left every core idle, so the whole machine returns
        to the free list; pools are re-created on demand as invocations
        arrive, exactly like a freshly booted node.
        """
        self._pools = {}
        self._last_activity = {}
        self._free_cores = list(self.server.cores)

    # ------------------------------------------------------------------
    # Guard hooks (repro.guard)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Optional[Dict[str, object]]:
        """Snapshot core ownership: which functions own pools here."""
        return {
            "functions": sorted(self._pools),
            "last_activity": dict(self._last_activity),
        }

    def restore_state(self, state: Dict[str, object]) -> bool:
        """Re-create the checkpointed pools so ownership resumes warm."""
        for name in state.get("functions", ()):
            self._pool_for(name)
        activity = state.get("last_activity") or {}
        for name, seen_s in activity.items():
            self._last_activity[name] = float(seen_s)
        return True

    def _retire_idle_pools(self) -> None:
        cutoff = self.env.now - POOL_IDLE_TIMEOUT_S
        for name in list(self._pools):
            pool = self._pools[name]
            if (pool.load == 0
                    and self._last_activity.get(name, 0.0) < cutoff):
                while True:
                    core = pool.release_idle_core()
                    if core is None:
                        break
                    self._free_cores.append(core)
                del self._pools[name]

    def _rebalance(self) -> None:
        """Re-apportion cores proportionally to each pool's live load.

        Largest-remainder apportionment on ``1 + load`` weights; busy pools
        are then guaranteed at least one core (stolen from the richest
        target) so a heavy pool can never be starved by a crowd of idle
        ones.
        """
        if not self._pools:
            return
        # Weights are summed and remainder ties broken in pool order; the
        # stored seed fingerprints depend on both.
        pools = list(self._pools.values())
        total_cores = self.server.n_cores
        loads = [pool.load for pool in pools]
        weights = [1.0 + load for load in loads]
        weight_sum = sum(weights)
        exact = [total_cores * weight / weight_sum for weight in weights]
        counts = [int(e) for e in exact]
        leftover = total_cores - sum(counts)
        by_remainder = sorted(range(len(pools)),
                              key=lambda i: exact[i] - counts[i],
                              reverse=True)
        for i in by_remainder:
            if leftover <= 0:
                break
            counts[i] += 1
            leftover -= 1
        for i, load in enumerate(loads):
            if counts[i] == 0 and load > 0:
                donor = counts.index(max(counts))
                if counts[donor] > 1:
                    counts[donor] -= 1
                    counts[i] = 1

        # Shrink over-provisioned pools first (idle cores now, busy later).
        for pool, target in zip(pools, counts):
            while pool.n_cores > target:
                core = pool.release_idle_core()
                if core is None:
                    if not pool.request_core_removal():
                        break
                    break  # busy cores leave when their job finishes
                self._free_cores.append(core)
        # Then grow under-provisioned pools from the free list.
        for pool, target in zip(pools, counts):
            while pool.n_cores < target and self._free_cores:
                pool.add_core(self._free_cores.pop())
        if self.env.trace.enabled:
            self.env.trace.instant(
                "repartition", self.track, pools=len(self._pools),
                targets=dict(sorted(zip(self._pools, counts))),
                free=len(self._free_cores))
