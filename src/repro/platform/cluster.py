"""Cluster assembly: servers, load balancer, and the workflow engine.

The cluster plays the role of the Frontend + Load Balancer of Fig. 1/8 and
drives invocation traces through application workflows: every trace event
starts a workflow; each stage's functions are dispatched (least-loaded node
first) and the stage completes when its slowest member finishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cancel.config import CancelConfig
from repro.cancel.runtime import CancelRuntime
from repro.guard.config import GuardConfig
from repro.guard.runtime import GuardRuntime
from repro.ha.config import HAConfig
from repro.ha.runtime import HARuntime
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.hardware.server import Server
from repro.platform.metrics import MetricsCollector
from repro.platform.reliability import ALL_DOWN_POLL_S, ReliabilityPolicy
from repro.platform.system import ClusterSystem, NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.tenancy.config import TenancyConfig
from repro.tenancy.runtime import TenancyRuntime
from repro.traces.trace import Trace
from repro.workloads.applications import Workflow
from repro.workloads.registry import workflow_for


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster (defaults match Section VII)."""

    n_servers: int = 5
    cores_per_server: int = 20
    slo_multiple: float = 5.0
    seed: int = 0
    scale: FrequencyScale = field(default_factory=FrequencyScale)
    power: PowerModel = field(default_factory=PowerModel)
    #: Extra simulated seconds after the trace ends to drain in-flight work.
    drain_s: float = 5.0
    #: Input-feature dispersion passed to invocation sampling (Fig. 22).
    input_dispersion: float = 1.0
    #: Heterogeneous machine mix (Section VI-E3): a sequence of
    #: ``(machine_type, ipc_factor)`` pairs cycled over the servers.
    #: None = all servers are identical ("haswell", 1.0).
    machine_mix: Optional[tuple] = None
    #: Frontend reliability policy (repro.faults). None = the original
    #: fire-and-wait dispatch path, byte-for-byte.
    reliability: Optional[ReliabilityPolicy] = None
    #: Graceful-degradation guards (repro.guard). None = the original
    #: unguarded code paths, byte-for-byte.
    guard: Optional[GuardConfig] = None
    #: High-availability layer (repro.ha): failure detection, controller
    #: failover, partition tolerance. None = the original code paths,
    #: byte-for-byte.
    ha: Optional[HAConfig] = None
    #: Energy multi-tenancy (repro.tenancy): per-tenant budgets, the
    #: power-cap governor, billing. None = the original code paths,
    #: byte-for-byte.
    tenancy: Optional[TenancyConfig] = None
    #: Cancellation & retry budgets (repro.cancel): deadline-propagating
    #: doom checks, cooperative kills, cluster-wide retry tokens. None =
    #: the original code paths, byte-for-byte.
    cancel: Optional[CancelConfig] = None

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError("need at least one server")
        if self.cores_per_server < 1:
            raise ValueError("need at least one core per server")
        if self.slo_multiple <= 0:
            raise ValueError("SLO multiple must be positive")
        if self.drain_s < 0:
            raise ValueError("drain must be non-negative")


class Cluster:
    """A cluster running one serverless system."""

    def __init__(self, env: Environment, system: ClusterSystem,
                 config: Optional[ClusterConfig] = None,
                 fault_plan: Optional[object] = None):
        self.env = env
        self.system = system
        self.config = config or ClusterConfig()
        self.metrics = MetricsCollector()
        self.rng = RngRegistry(self.config.seed)
        mix = self.config.machine_mix or (("haswell", 1.0),)
        self.servers: List[Server] = [
            Server(env, server_id=i, n_cores=self.config.cores_per_server,
                   scale=self.config.scale, power=self.config.power,
                   machine_type=mix[i % len(mix)][0],
                   ipc_factor=mix[i % len(mix)][1])
            for i in range(self.config.n_servers)
        ]
        self.nodes: List[NodeSystem] = [
            system.make_node(env, server, self.metrics, self.rng)
            for server in self.servers
        ]
        #: Armed guard runtime (repro.guard), when a GuardConfig was given.
        self.guard: Optional[GuardRuntime] = None
        if self.config.guard is not None:
            self.guard = GuardRuntime(self, self.config.guard)
            env.guard = self.guard
            self.guard.arm()
        #: Armed tenancy runtime (repro.tenancy), when a TenancyConfig
        #: was given.
        self.tenancy: Optional[TenancyRuntime] = None
        if self.config.tenancy is not None:
            self.tenancy = TenancyRuntime(self, self.config.tenancy)
            env.tenancy = self.tenancy
            self.tenancy.arm()
        #: Armed HA runtime (repro.ha), when an HAConfig was given.
        self.ha: Optional[HARuntime] = None
        if self.config.ha is not None:
            if self.config.reliability is None:
                raise ValueError(
                    "the HA layer recovers stranded invocations through the"
                    " frontend's retry machinery; configure"
                    " ClusterConfig.reliability alongside ClusterConfig.ha")
            self.ha = HARuntime(self, self.config.ha)
            self.ha.arm()
        #: Armed cancellation runtime (repro.cancel), when a CancelConfig
        #: was given.
        self.cancel: Optional[CancelRuntime] = None
        if self.config.cancel is not None:
            self.cancel = CancelRuntime(self, self.config.cancel)
            env.cancel = self.cancel
            self.cancel.arm()
        self._rr_index = 0
        #: Workflows in flight (for drain diagnostics).
        self.inflight = 0
        #: Workflows ever submitted (the verify layer's lifecycle-
        #: conservation denominator; not part of any fingerprint).
        self.submitted_workflows = 0
        #: Workflow ids for trace spans (allocated unconditionally so
        #: traced and untraced runs walk identical code paths).
        self._wf_ids = itertools.count()
        #: Armed fault injector, when a non-empty plan was supplied.
        self.fault_injector = None
        if fault_plan is not None and fault_plan.events:
            if fault_plan.has_node_crashes and self.config.reliability is None:
                raise ValueError(
                    "a fault plan with node crashes loses in-flight jobs;"
                    " configure ClusterConfig.reliability so the frontend"
                    " re-dispatches them")
            if ((fault_plan.has_partitions
                 or fault_plan.has_controller_crashes)
                    and self.ha is None):
                raise ValueError(
                    "partition and controller-crash faults act on the"
                    " repro.ha link table and controller group; configure"
                    " ClusterConfig.ha to arm them")
            from repro.faults.injector import FaultInjector
            self.fault_injector = FaultInjector(self, fault_plan)
            self.fault_injector.arm()

    # ------------------------------------------------------------------
    # Load balancing (Fig. 1's Cluster Controller)
    # ------------------------------------------------------------------
    def pick_node(self, exclude: Optional[NodeSystem] = None
                  ) -> Optional[NodeSystem]:
        """Least outstanding jobs among up nodes; round-robin among ties.

        ``exclude`` skips one node (hedged re-dispatch wants a *different*
        machine) unless it is the only one standing. Returns None when
        every node is down.

        With the HA layer armed, nodes the membership table marks
        *suspected* (or dead, or unreachable over the dispatch link) are
        skipped too — hedges and retries must not land on a machine the
        detector is about to declare dead. If that filter would empty
        the candidate set, the plain up-set is used: sending work to a
        suspect node beats stalling the cluster on a false alarm.
        """
        up = [i for i, node in enumerate(self.nodes) if not node.down]
        if not up:
            return None
        if self.ha is not None:
            preferred = [i for i in up if self.ha.dispatchable(self.nodes[i])]
            if preferred:
                up = preferred
        if exclude is not None and len(up) > 1:
            up = [i for i in up if self.nodes[i] is not exclude] or up
        loads = [self.nodes[i].outstanding for i in up]
        best = min(loads)
        candidates = [i for i, load in zip(up, loads) if load == best]
        choice = candidates[self._rr_index % len(candidates)]
        self._rr_index += 1
        return self.nodes[choice]

    # ------------------------------------------------------------------
    # Workflow engine
    # ------------------------------------------------------------------
    def submit_workflow(self, workflow: Workflow) -> None:
        """Start one end-to-end application invocation now."""
        self.submitted_workflows += 1
        if self.guard is not None and not self.guard.admit_workflow(
                workflow.name):
            return
        if self.tenancy is not None and not self.tenancy.admit_workflow(
                workflow.name):
            return
        self.env.process(self._run_workflow(workflow, self.env.now),
                         name=f"wf-{workflow.name}")

    def _run_workflow(self, workflow: Workflow, arrival_s: float):
        slo_s = workflow.slo_seconds(self.config.slo_multiple)
        deadlines = self.system.function_deadlines(workflow, arrival_s, slo_s)
        self.system.on_workflow_arrival(self, workflow, arrival_s, deadlines)
        policy = self.config.reliability
        cancel = self.cancel
        doom_deadline = (cancel.doom_deadline(arrival_s, slo_s)
                         if cancel is not None else None)
        self.inflight += 1
        wf_uid = next(self._wf_ids)
        self.env.trace.workflow_begin(wf_uid, workflow.name, slo_s=slo_s)
        failed = False
        try:
            for stage_index, stage in enumerate(workflow.stages):
                if (cancel is not None and stage_index > 0
                        and cancel.stage_doomed(doom_deadline)):
                    # Deadline propagation: the doom line passed while an
                    # earlier stage ran, so the rest of the chain cannot
                    # help the SLO — stop here instead of burning joules.
                    cancel.note_workflow_doomed(
                        workflow.name, wf_uid, stage_index,
                        cause="stage_boundary")
                    failed = True
                    break
                waits = []
                for fn_index, fn_model in enumerate(stage.functions):
                    spec = fn_model.sample_invocation(
                        self.rng.stream(f"inputs/{fn_model.name}"),
                        dispersion=self.config.input_dispersion)
                    deadline = (deadlines.get(fn_model.name)
                                if deadlines is not None else None)
                    if policy is None:
                        node = self.pick_node()
                        job = node.submit(
                            fn_model, spec, deadline, workflow.name,
                            seniority_time_s=arrival_s)
                        if cancel is not None:
                            cancel.tag_job(job, doom_deadline)
                        self.env.trace.link(wf_uid, job.job_id)
                        waits.append(job.done)
                    else:
                        idem_key = ((wf_uid, stage_index, fn_index)
                                    if self.ha is not None else None)
                        waits.append(self.env.process(
                            self._invoke_reliably(
                                fn_model, spec, deadline, workflow.name,
                                arrival_s, idem_key, wf_uid,
                                doom_deadline_s=doom_deadline),
                            name=f"invoke-{fn_model.name}"))
                yield self.env.all_of(waits)
                if policy is not None and any(p.value is None for p in waits):
                    # An invocation was lost for good: the workflow cannot
                    # produce its result, so later stages never run.
                    failed = True
                    break
                if cancel is not None and any(
                        getattr(w.value, "cancelled", False) for w in waits):
                    # A direct-dispatch invocation was doomed-dropped at
                    # dequeue: the chain has no result to continue with.
                    cancel.note_workflow_doomed(
                        workflow.name, wf_uid, stage_index,
                        cause="invocation_cancelled")
                    failed = True
                    break
            if failed:
                if (cancel is not None
                        and cancel.workflow_was_doomed(wf_uid)):
                    # Doomed is a sub-case of failed (the lifecycle
                    # equation still balances); the distinct trace status
                    # routes its completed work to the ledger's ``doomed``
                    # bucket.
                    self.env.trace.workflow_end(wf_uid, "doomed",
                                                slo_s=slo_s)
                else:
                    self.metrics.record_workflow_failure(workflow.name)
                    self.env.trace.workflow_end(wf_uid, "failed",
                                                slo_s=slo_s)
            else:
                latency_s = self.env.now - arrival_s
                self.metrics.record_workflow(
                    workflow.name, arrival_s, latency_s, slo_s)
                if self.env.trace.enabled:
                    self.env.trace.workflow_end(
                        wf_uid, "completed", latency_s=latency_s,
                        slo_s=slo_s, met_slo=latency_s <= slo_s + 1e-9)
        finally:
            self.inflight -= 1

    # ------------------------------------------------------------------
    # Reliability layer (repro.faults)
    # ------------------------------------------------------------------
    def _await_up_node(self, exclude: Optional[NodeSystem] = None,
                       deadline_s: Optional[float] = None):
        """Yield until some node is up, then return it (generator helper).

        ``deadline_s`` bounds the wait: during a full-cluster outage the
        loop used to poll unbounded even when the invocation's deadline
        had already passed; once the deadline is unmeetable it now
        returns None and the caller writes the invocation off instead of
        burning poll wake-ups on work that cannot succeed.
        """
        while True:
            node = self.pick_node(exclude)
            if node is not None:
                return node
            if deadline_s is not None and self.env.now >= deadline_s - 1e-9:
                return None
            yield self.env.timeout(ALL_DOWN_POLL_S)

    def _invoke_reliably(self, fn_model, spec, deadline_s: Optional[float],
                         benchmark: str, arrival_s: float,
                         idem_key=None, wf_uid: Optional[int] = None,
                         doom_deadline_s: Optional[float] = None):
        """Shepherd one invocation to completion under the policy.

        Submits a pristine clone of ``spec`` per attempt (work units are
        consumed in place), detects crash-aborted attempts via their
        ``done`` event, applies the per-attempt timeout and hedged
        re-dispatch, and backs off exponentially (with deterministic
        jitter) between retries. Returns the winning job, or None once
        every retry is exhausted.

        With the HA layer armed (``idem_key`` set), three things change:
        a completion only wins while its node's uplink to the frontend
        delivers (a partitioned result is invisible until the link
        heals), the loop also wakes on membership/link transitions, and
        an invocation stranded on a *suspected* node is re-dispatched —
        exactly once per idempotency key, via the journal — to a
        non-suspected node, with surviving duplicates fenced when a
        winner emerges.
        """
        policy = self.config.reliability
        guard = self.guard
        ha = self.ha
        cancel = self.cancel
        if ha is not None:
            ha.register_dispatch(idem_key)
        if cancel is not None:
            cancel.note_first_attempt()
        attempt = 0
        lost_to_crash_here = 0
        while True:
            if guard is not None and not guard.breaker_allows(fn_model.name):
                # The function's breaker is open: fail fast instead of
                # feeding the retry loop while the function is known-bad.
                self.metrics.lost_invocations += 1
                self.env.trace.instant("invocation_lost", "frontend",
                                       function=fn_model.name,
                                       attempts=attempt, fast_fail=True)
                return None
            if attempt > 0:
                if cancel is not None and cancel.retry_doomed(doom_deadline_s):
                    # Retrying cannot beat the doom line anymore: write
                    # the invocation off before it burns another attempt.
                    if wf_uid is not None:
                        cancel.note_workflow_doomed(
                            benchmark, wf_uid, -1, cause="retry_doomed")
                    self.metrics.lost_invocations += 1
                    self.env.trace.instant("invocation_lost", "frontend",
                                           function=fn_model.name,
                                           attempts=attempt, doomed=True)
                    return None
                if cancel is not None and not cancel.allow_retry(
                        fn_model.name, attempt):
                    # The cluster-wide retry budget is spent: dropping
                    # this retry is what keeps per-invocation policies
                    # from compounding into a retry storm.
                    self.metrics.lost_invocations += 1
                    self.env.trace.instant("invocation_lost", "frontend",
                                           function=fn_model.name,
                                           attempts=attempt,
                                           budget_exhausted=True)
                    return None
                self.metrics.record_retry()
                self.env.trace.instant("retry", "frontend",
                                       function=fn_model.name,
                                       attempt=attempt)
                draw = 0.0
                if policy.backoff_jitter > 0:
                    draw = float(self.rng.stream(
                        "reliability/jitter").uniform(-1.0, 1.0))
                backoff = policy.backoff_s(attempt, draw)
                if backoff > 0:
                    yield self.env.timeout(backoff)
                if cancel is not None and cancel.retry_doomed(doom_deadline_s):
                    # The doom line passed during backoff: the granted
                    # token never dispatched, so retire it and give up.
                    cancel.refund_retry(fn_model.name)
                    if wf_uid is not None:
                        cancel.note_workflow_doomed(
                            benchmark, wf_uid, -1, cause="retry_doomed")
                    self.metrics.lost_invocations += 1
                    self.env.trace.instant("invocation_lost", "frontend",
                                           function=fn_model.name,
                                           attempts=attempt, doomed=True)
                    return None
            bail_s = doom_deadline_s if doom_deadline_s is not None \
                else deadline_s
            node = yield from self._await_up_node(deadline_s=bail_s)
            if node is None:
                # Full-cluster outage outlived the deadline: no node came
                # back while the invocation could still succeed, so stop
                # polling instead of spinning on work that cannot win.
                if cancel is not None and attempt > 0:
                    cancel.refund_retry(fn_model.name)
                self.metrics.lost_invocations += 1
                self.env.trace.instant("invocation_lost", "frontend",
                                       function=fn_model.name,
                                       attempts=attempt,
                                       deadline_passed=True)
                return None
            job = node.submit(fn_model, spec.clone(), deadline_s, benchmark,
                              seniority_time_s=arrival_s)
            job.attempt = attempt
            if cancel is not None:
                cancel.tag_job(job, doom_deadline_s)
            if wf_uid is not None:
                self.env.trace.link(wf_uid, job.job_id)
            if ha is not None:
                job.ha_node = node
            jobs = [job]
            timeout_ev = (self.env.timeout(policy.invocation_timeout_s)
                          if policy.invocation_timeout_s is not None else None)
            hedge_ev = (self.env.timeout(policy.hedge_after_s)
                        if policy.hedge_after_s is not None
                        and policy.max_hedges > 0 else None)
            hedges_fired = 0
            attempt_failed = False
            while not attempt_failed:
                if ha is None:
                    waits = [j.done for j in jobs]
                else:
                    # An already-processed done event would make any_of
                    # fire instantly forever (the invisible-result case);
                    # wait on membership/link transitions instead.
                    waits = [j.done for j in jobs if not j.done.processed]
                    waits.append(ha.change_event())
                if timeout_ev is not None:
                    waits.append(timeout_ev)
                if hedge_ev is not None:
                    waits.append(hedge_ev)
                yield self.env.any_of(waits)
                if ha is None:
                    winner = next((j for j in jobs if j.finished), None)
                else:
                    winner = next((j for j in jobs if j.finished
                                   and ha.result_visible(j)), None)
                if winner is not None:
                    for other in jobs:
                        if (other is not winner and not other.aborted
                                and not other.cancelled):
                            if cancel is not None and cancel.cancels_hedges:
                                # The race is decided: kill the losers and
                                # reclaim their remaining energy instead
                                # of letting them run to completion.
                                cancel.cancel_attempt(other,
                                                      reason="hedge_loser")
                            else:
                                other.abandoned = True
                    if ha is not None:
                        ha.record_completion(idem_key, jobs, winner)
                    lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                    self.metrics.crash_redispatches += lost_to_crash_here
                    if guard is not None:
                        met = (deadline_s is None
                               or self.env.now <= deadline_s + 1e-9)
                        guard.record_attempt_success(fn_model.name, met)
                    return winner
                if all(j.aborted for j in jobs):
                    lost_to_crash_here += len(jobs)
                    attempt_failed = True
                    break
                if cancel is not None and any(j.cancelled for j in jobs):
                    # The platform declared this work doomed (a dequeue
                    # drop): no sibling or retry can beat the doom line
                    # either, so kill the survivors and give up for good.
                    for j in jobs:
                        if not (j.aborted or j.cancelled or j.finished):
                            cancel.cancel_attempt(j, reason="doomed_sibling")
                    if wf_uid is not None:
                        cancel.note_workflow_doomed(
                            benchmark, wf_uid, -1, cause="dequeue_doomed")
                    self.metrics.lost_invocations += 1
                    self.env.trace.instant("invocation_lost", "frontend",
                                           function=fn_model.name,
                                           attempts=attempt + 1, doomed=True)
                    return None
                if timeout_ev is not None and timeout_ev.processed:
                    # Written off: with the cancel layer armed the
                    # survivors are killed (their remaining energy is
                    # reclaimed); otherwise they keep running and their
                    # outcome is wasted work.
                    for j in jobs:
                        if not j.aborted:
                            if (cancel is not None
                                    and cancel.cancels_timeouts):
                                cancel.cancel_attempt(j, reason="timeout")
                            else:
                                j.abandoned = True
                    lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                    self.metrics.record_timeout()
                    self.env.trace.instant("invocation_timeout", "frontend",
                                           function=fn_model.name,
                                           attempt=attempt)
                    attempt_failed = True
                    break
                if hedge_ev is not None and hedge_ev.processed:
                    hedges_fired += 1
                    hedge_ev = (self.env.timeout(policy.hedge_after_s)
                                if hedges_fired < policy.max_hedges else None)
                    other = self.pick_node(exclude=node)
                    if other is not None and other is not node:
                        duplicate = other.submit(
                            fn_model, spec.clone(), deadline_s, benchmark,
                            seniority_time_s=arrival_s)
                        duplicate.attempt = attempt
                        if cancel is not None:
                            cancel.tag_job(duplicate, doom_deadline_s)
                        if wf_uid is not None:
                            self.env.trace.link(wf_uid, duplicate.job_id)
                        if ha is not None:
                            duplicate.ha_node = other
                        jobs.append(duplicate)
                        self.metrics.record_hedge()
                        self.env.trace.instant("hedge", "frontend",
                                               function=fn_model.name,
                                               job=duplicate.job_id)
                    continue
                if ha is not None:
                    target = ha.redispatch_target(idem_key, jobs,
                                                  exclude=node)
                    if target is not None:
                        duplicate = target.submit(
                            fn_model, spec.clone(), deadline_s, benchmark,
                            seniority_time_s=arrival_s)
                        duplicate.attempt = attempt
                        if cancel is not None:
                            cancel.tag_job(duplicate, doom_deadline_s)
                        if wf_uid is not None:
                            self.env.trace.link(wf_uid, duplicate.job_id)
                        duplicate.ha_node = target
                        jobs.append(duplicate)
                        continue
                # Some (not all) attempts crashed: drop them, keep waiting.
                lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                jobs = [j for j in jobs if not j.aborted]
            if guard is not None:
                guard.record_attempt_failure(fn_model.name, node=node)
            attempt += 1
            if attempt > policy.max_retries:
                self.metrics.lost_invocations += 1
                self.env.trace.instant("invocation_lost", "frontend",
                                       function=fn_model.name,
                                       attempts=attempt)
                return None

    # ------------------------------------------------------------------
    # Trace driving
    # ------------------------------------------------------------------
    def _drive(self, trace: Trace,
               workflows: Dict[str, Workflow]):
        for event in trace:
            delay = event.time_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self.submit_workflow(workflows[event.benchmark])

    def run_trace(self, trace: Trace,
                  workflows: Optional[Dict[str, Workflow]] = None) -> None:
        """Run a full trace to completion (plus the drain window)."""
        if workflows is None:
            workflows = {name: workflow_for(name)
                         for name in trace.invocation_counts()}
        missing = set(trace.invocation_counts()) - set(workflows)
        if missing:
            raise ValueError(f"trace references unknown workflows: {missing}")
        self.env.process(self._drive(trace, workflows), name="trace-driver")
        self.env.run(until=self.env.now + trace.duration_s
                     + self.config.drain_s)
        self.finalize()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        for node in self.nodes:
            node.finalize()

    @property
    def total_energy_j(self) -> float:
        """Whole-cluster metered energy (call after finalize)."""
        return sum(server.total_energy_j for server in self.servers)

    def energy_by_benchmark(self) -> Dict[str, float]:
        """Core-attributed energy per benchmark across all servers."""
        totals: Dict[str, float] = {}
        for server in self.servers:
            for consumer, joules in server.meter.by_consumer().items():
                totals[consumer] = totals.get(consumer, 0.0) + joules
        return totals

    def energy_by_component(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for server in self.servers:
            for component, joules in server.meter.by_component().items():
                totals[component] = totals.get(component, 0.0) + joules
        return totals
