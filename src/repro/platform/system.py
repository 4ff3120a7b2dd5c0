"""Interfaces that a serverless system implements to run on the platform.

A *system* (Baseline, Baseline+PowerCtrl, EcoFaaS) provides two things:

* a :class:`NodeSystem` per server — how invocations are scheduled and at
  what frequency cores run;
* a cluster-level deadline policy — how an application's SLO becomes
  per-function deadlines (the Workflow Controller in EcoFaaS, the
  proportional split in Baseline+PowerCtrl, nothing in Baseline).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from repro.hardware.server import Server
from repro.platform.containers import ContainerManager
from repro.platform.job import Job
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.scheduler import LoadTally
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.applications import Workflow
from repro.workloads.model import FunctionModel
from repro.workloads.spec import InvocationSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster


class NodeSystem(abc.ABC):
    """Per-server controller: owns the server's cores and containers."""

    def __init__(self, env: Environment, server: Server,
                 metrics: MetricsCollector, rng: RngRegistry,
                 layers: Layers):
        self.env = env
        self.server = server
        self.metrics = metrics
        self.rng = rng
        #: The cluster's layer runtimes (guard, tenancy, HA, cancel).
        self.layers = layers
        #: Trace track for node-level events/counters (repro.obs).
        self.track = f"node{server.server_id}"
        self.containers = ContainerManager(env, owner=self.track)
        #: Reliability state (repro.faults): a crashed node is ``down`` —
        #: invisible to the load balancer — until its reboot completes.
        self.down = False
        #: How many times this node has crashed.
        self.crash_count = 0
        #: Fault multipliers, both 1.0 when healthy: a stalled frequency
        #: driver lengthens DVFS transitions; a storage/RPC latency spike
        #: lengthens block segments.
        self.dvfs_stall_factor = 1.0
        self.rpc_latency_factor = 1.0
        #: Jobs waiting for an in-flight cold start, by job id (they are
        #: not in any pool yet, so a crash must abort them here).
        self._awaiting_container: Dict[int, Job] = {}
        #: The sum of this node's pools' ``load`` counters; every pool
        #: the node builds shares it.
        self.load_tally = LoadTally()

    @abc.abstractmethod
    def submit(self, fn_model: FunctionModel, spec: InvocationSpec,
               deadline_s: Optional[float], benchmark: str,
               seniority_time_s: Optional[float] = None) -> Job:
        """Accept one function invocation; returns the in-flight job.

        ``seniority_time_s`` carries the owning application's arrival time
        so old-preempts-young treats late-stage functions of old requests
        as old jobs.
        """

    @property
    def outstanding(self) -> int:
        """Jobs the node's pools hold, queued, running or blocked (the
        load balancer's signal)."""
        return self.load_tally.count

    def prewarm(self, fn_model: FunctionModel, budget_s: float,
                benchmark: str) -> None:
        """Start this function's container ahead of need (optional)."""

    def iter_pools(self) -> Iterable:
        """The node's live core pools (observability/counter sampling).

        Subclasses override; the default (no pools exposed) keeps node
        models without pool structure working untraced.
        """
        return ()

    def cancel_job(self, job: Job) -> bool:
        """Cancel one in-flight job on this node (repro.cancel).

        Tries each core pool, then the cold-start waiting room (jobs
        parked on an in-flight container boot live in neither pool).
        Returns False when the job is not on this node — node models
        without pool structure always decline, and the runtime falls
        back to write-off (``abandoned``) semantics.
        """
        for pool in self.iter_pools():
            if pool.cancel_job(job):
                return True
        waiting = self._awaiting_container.pop(job.job_id, None)
        if waiting is not None:
            waiting.cancel()
            return True
        return False

    def finalize(self) -> None:
        """Flush all energy accounting (end of run)."""
        self.server.finalize()

    # ------------------------------------------------------------------
    # Power-cap hooks (repro.tenancy)
    # ------------------------------------------------------------------
    def apply_frequency_ceiling(self, ceiling_ghz: Optional[float]) -> None:
        """Retune pools running above ``ceiling_ghz`` down to it.

        Called by the power-cap governor on every actuation change (and
        on reboot, to re-impose the active cap). The default (no pool
        structure to retune) is a no-op; node models with frequency
        control override. ``None`` lifts the ceiling — pools recover
        their levels through their own control loops, not here.
        """

    # ------------------------------------------------------------------
    # Fault hooks (repro.faults)
    # ------------------------------------------------------------------
    def dvfs_cost_scale(self) -> float:
        """Current multiplier on DVFS transition costs (pool hook)."""
        return self.dvfs_stall_factor

    def rpc_latency_scale(self) -> float:
        """Current multiplier on block-segment durations (pool hook)."""
        return self.rpc_latency_factor

    def crash(self) -> List[Job]:
        """Power-fail this node: every in-flight job is lost.

        Pools are emptied (:meth:`_abort_all_jobs`), jobs still waiting on
        a cold start are aborted, and all container state dies with the
        node. Returns the lost jobs (marked ``aborted``, prewarm
        pseudo-jobs excluded) so the frontend's reliability layer can
        re-dispatch them. The node refuses new work until :meth:`reboot`.
        The machine itself stays powered (a software/kernel crash), so
        background power keeps accruing through the outage.
        """
        if self.down:
            raise RuntimeError(f"node {self.server.server_id} already down")
        self.down = True
        self.crash_count += 1
        lost = self._abort_all_jobs()
        for job in self._awaiting_container.values():
            job.abort()
            lost.append(job)
        self._awaiting_container.clear()
        # Container state is process state: it does not survive the crash.
        # Waiters on in-flight cold starts were just aborted, so the old
        # manager's pending ready events can simply be dropped.
        self.containers = ContainerManager(self.env,
                                           self.containers.keep_alive_s,
                                           owner=self.track)
        survivors = [job for job in lost if not job.is_prewarm]
        self.env.trace.instant("node_crash", self.track,
                               jobs_lost=len(survivors),
                               crash_count=self.crash_count)
        return survivors

    def reboot(self) -> None:
        """Bring a crashed node back with a clean controller state.

        With checkpoints armed (repro.guard) the rebooted controller is
        resumed from its latest fresh snapshot instead of staying cold.
        """
        if not self.down:
            raise RuntimeError(
                f"node {self.server.server_id} is not down; cannot reboot")
        self._rebuild()
        self.down = False
        self.layers.guard.maybe_restore(self)
        # A rebooted controller starts at the top frequency; the active
        # power cap must not be forgotten with it.
        self.layers.tenancy.on_node_reboot(self)
        self.env.trace.instant("node_reboot", self.track)

    def kill_container(self, function_name: str) -> str:
        """Fault hook: kill one function's container on this node.

        Returns the container's prior state (see
        :meth:`ContainerManager.kill`).
        """
        return self.containers.kill(function_name)

    def _abort_all_jobs(self) -> List[Job]:
        """Subclass hook: empty every pool, returning the lost jobs."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support fault injection")

    def _rebuild(self) -> None:
        """Subclass hook: reset controller state after a crash."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support fault injection")

    # ------------------------------------------------------------------
    # Guard hooks (repro.guard)
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> Optional[Dict[str, object]]:
        """Snapshot this controller's transient control state.

        Subclasses with state worth preserving across a crash override
        this; the default (None) opts the node out of checkpointing.
        """
        return None

    def restore_state(self, state: Dict[str, object]) -> bool:
        """Resume from a :meth:`checkpoint_state` snapshot (post-reboot).

        Returns True when the state was applied. The default refuses —
        a node that cannot checkpoint cannot restore either.
        """
        return False

    def watchdog_check(self, factor: float) -> bool:
        """Kick this controller if its control loop looks stuck.

        ``factor`` scales the controller's own refresh period into the
        staleness bound. Returns True when a forced refresh happened.
        The default (no periodic loop to watch) never kicks.
        """
        return False

    # ------------------------------------------------------------------
    # Shared cold-start plumbing for subclasses
    # ------------------------------------------------------------------
    def _attach_container(self, fn_model: FunctionModel, job: Job,
                          stream_name: str) -> Optional[object]:
        """Resolve container state for ``job``.

        Returns None when the job can be scheduled right away (warm
        container, or this job now carries the cold-start work), or the
        ready event the caller must wait on (another cold start is in
        flight).
        """
        state = self.containers.state(fn_model.name)
        if state == "warm":
            self.containers.touch(fn_model.name)
            self.containers.record_warm_hit()
            return None
        if state == "starting":
            return self.containers.ready_event(fn_model.name)
        # Cold: this job boots the container as its setup work.
        self.containers.begin_cold_start(fn_model.name)
        job.setup_work = fn_model.sample_cold_start_work(
            self.rng.stream(stream_name))
        job.cold_start = True
        job._segment_index = -1
        job.on_setup_done = (
            lambda name=fn_model.name: self.containers.finish_cold_start(name))
        return None

    def _submit_with_container(
            self, fn_model: FunctionModel, job: Job, stream_name: str,
            dispatch: Callable[[FunctionModel, Job], None]) -> None:
        """Resolve container state for ``job``, then hand it to ``dispatch``.

        The fault-aware version of the plain attach-and-wait pattern: when
        the cold start the job was waiting on is killed mid-boot (its ready
        event fires with a ``None`` payload), the job re-resolves — one
        waiter becomes the new booter — and when the job was aborted (node
        crash) while waiting, it is silently dropped. With no faults
        injected neither branch ever triggers and the event ordering is
        identical to the original plumbing.
        """
        if job.aborted or job.cancelled:
            return
        wait = self._attach_container(fn_model, job, stream_name)
        if wait is None:
            dispatch(fn_model, job)
            return
        self._awaiting_container[job.job_id] = job
        wait.callbacks.append(
            lambda ev, fn=fn_model, j=job, s=stream_name, d=dispatch:
            self._container_wait_done(ev, fn, j, s, d))

    def _container_wait_done(self, event, fn_model: FunctionModel, job: Job,
                             stream_name: str,
                             dispatch: Callable[[FunctionModel, Job], None]
                             ) -> None:
        self._awaiting_container.pop(job.job_id, None)
        if job.aborted or job.cancelled:
            return
        if event.value is None:
            # The cold start this job was waiting on was killed: re-resolve.
            self._submit_with_container(fn_model, job, stream_name, dispatch)
            return
        dispatch(fn_model, job)


class ClusterSystem(abc.ABC):
    """Whole-cluster behaviour of one evaluated system."""

    #: Human-readable system name used in reports.
    name: str = "system"

    @abc.abstractmethod
    def make_node(self, env: Environment, server: Server,
                  metrics: MetricsCollector, rng: RngRegistry,
                  layers: Layers) -> NodeSystem:
        """Build this system's per-server controller."""

    @abc.abstractmethod
    def function_deadlines(self, workflow: Workflow, arrival_s: float,
                           slo_s: float) -> Optional[Dict[str, float]]:
        """Absolute completion deadline per function, or None (best effort)."""

    def on_workflow_arrival(self, cluster: "Cluster", workflow: Workflow,
                            arrival_s: float,
                            deadlines: Optional[Dict[str, float]]) -> None:
        """Hook at workflow admission (EcoFaaS prewarms containers here)."""
