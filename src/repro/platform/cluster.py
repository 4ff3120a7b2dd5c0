"""Cluster assembly: servers, load balancer, and the workflow engine.

The cluster plays the role of the Frontend + Load Balancer of Fig. 1/8 and
drives invocation traces through application workflows. A chain of timers
walks the trace: at each arrival instant the frontend admits every
arrival, then starts the admitted workflows. A workflow in flight is no
simulation process but one stage-counter driver (:class:`_WorkflowRun`):
each stage's functions are dispatched (least-loaded node first), each
member's completion counts the stage down, and the last one, the slowest
member, submits the next stage or ends the workflow. Only the reliable
path keeps a process per invocation, for its attempt loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cancel.config import CancelConfig
from repro.guard.config import GuardConfig
from repro.ha.config import HAConfig
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.hardware.server import Server
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.reliability import ALL_DOWN_POLL_S, ReliabilityPolicy
from repro.platform.system import ClusterSystem, NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.tenancy.config import TenancyConfig
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
    #: Heterogeneous machine mix (Section VI-E3): a sequence of
    #: ``(machine_type, ipc_factor)`` pairs cycled over the servers.
    #: None = all servers are identical ("haswell", 1.0).
    machine_mix: Optional[tuple] = None
    #: Frontend reliability policy (repro.faults). None = the original
    #: fire-and-wait dispatch path, byte-for-byte.
    reliability: Optional[ReliabilityPolicy] = None
    #: The opt-in layers (repro.platform.layers): degradation guards,
    #: high availability, energy multi-tenancy, cancellation and retry
    #: budgets. None runs the layer's runtime inert, byte-identical to a
    #: run without the layer.
    guard: Optional[GuardConfig] = None
    ha: Optional[HAConfig] = None
    tenancy: Optional[TenancyConfig] = None
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


@dataclass(slots=True)
class _Invocation:
    """One function invocation's fixed facts, shared by all its attempts
    (never mutated; not frozen because frozen construction is ~6x slower
    on the direct-dispatch fast path)."""

    fn_model: object
    #: The sampled input; every reliable attempt submits its own clone.
    spec: object
    deadline_s: Optional[float]
    benchmark: str
    arrival_s: float
    wf_uid: int
    #: The HA journal's idempotency key; None while HA is inert.
    idem_key: Optional[tuple]
    #: The cancel layer's doom line; None without a deadline config.
    doom_deadline_s: Optional[float]


class _WorkflowRun:
    """One workflow in flight: its stage-counter driver.

    A stage submits all of its functions, then waits on one event per
    function: the job's ``done`` on the direct path, the
    :meth:`Cluster._invoke_reliably` process on the reliable one. Each
    event counts the stage down as it fires; the last one, the stage's
    slowest member, submits the next stage or ends the workflow.
    """

    __slots__ = ("cluster", "workflow", "arrival_s", "slo_s", "deadlines",
                 "doom_deadline_s", "wf_uid", "stage_index", "waits",
                 "remaining")

    def __init__(self, cluster: "Cluster", workflow: Workflow):
        """Open ``workflow``, arriving now, and submit its first stage."""
        self.cluster = cluster
        self.workflow = workflow
        self.arrival_s = arrival_s = cluster.env.now
        self.slo_s = slo_s = workflow.slo_seconds(cluster.config.slo_multiple)
        self.deadlines = cluster.system.function_deadlines(
            workflow, arrival_s, slo_s)
        cluster.system.on_workflow_arrival(cluster, workflow, arrival_s,
                                           self.deadlines)
        self.doom_deadline_s = cluster.cancel.doom_deadline(arrival_s, slo_s)
        cluster.inflight += 1
        self.wf_uid = next(cluster._wf_ids)
        cluster.env.trace.workflow_begin(self.wf_uid, workflow.name,
                                         slo_s=slo_s)
        self._submit_stage(0)

    def _submit_stage(self, stage_index: int) -> None:
        cluster = self.cluster
        policy = cluster.config.reliability
        deadlines = self.deadlines
        stage = self.workflow.stages[stage_index]
        waits = []
        for fn_index, fn_model in enumerate(stage.functions):
            spec = fn_model.sample_invocation(
                cluster.rng.stream(f"inputs/{fn_model.name}"))
            deadline = (deadlines.get(fn_model.name)
                        if deadlines is not None else None)
            key = cluster.ha.idempotency_key(self.wf_uid, stage_index,
                                             fn_index)
            inv = _Invocation(fn_model, spec, deadline, self.workflow.name,
                              self.arrival_s, self.wf_uid, key,
                              self.doom_deadline_s)
            if policy is None:
                # Fire and wait: no process per invocation.
                waits.append(
                    cluster._submit(inv, cluster.pick_node(), spec).done)
            else:
                waits.append(cluster.env.process(
                    cluster._invoke_reliably(inv),
                    name=f"invoke-{fn_model.name}"))
        self.stage_index = stage_index
        self.waits = waits
        self.remaining = len(waits)
        wait_done = self._wait_done
        for wait in waits:
            wait.callbacks.append(wait_done)

    def _wait_done(self, event) -> None:
        if not event.ok:
            # An attempt loop raised: the run ends with its error.
            event._defused = True
            self.cluster.inflight -= 1
            raise event.value
        self.remaining -= 1
        if not self.remaining:
            # The advance takes the place of the stage-completion event
            # this wait would trigger, which would fire next unless
            # something else is due now (this callback is the event's
            # only one).
            env = self.cluster.env
            if env.peek() > env.now:
                self._stage_done()
            else:
                env.call_later(0.0, _WorkflowRun._stage_done, self)

    def _stage_done(self) -> None:
        cluster = self.cluster
        cancel = cluster.cancel
        waits = self.waits
        if (cluster.config.reliability is not None
                and any(wait.value is None for wait in waits)):
            # An invocation was lost for good: the workflow cannot
            # produce its result, so later stages never run.
            self._end(completed=False)
            return
        if cancel.any_cancelled(wait.value for wait in waits):
            # A direct-dispatch invocation was doomed-dropped at
            # dequeue: the chain has no result to continue with.
            cancel.note_workflow_doomed(
                self.workflow.name, self.wf_uid, self.stage_index,
                cause="invocation_cancelled")
            self._end(completed=False)
            return
        next_index = self.stage_index + 1
        if next_index == len(self.workflow.stages):
            self._end(completed=True)
            return
        if cancel.doom_passed(self.doom_deadline_s):
            # Deadline propagation: the doom line passed while an earlier
            # stage ran, so the rest of the chain cannot help the SLO —
            # stop here instead of burning joules.
            cancel.note_workflow_doomed(
                self.workflow.name, self.wf_uid, next_index,
                cause="stage_boundary")
            self._end(completed=False)
            return
        self._submit_stage(next_index)

    def _end(self, completed: bool) -> None:
        cluster = self.cluster
        trace = cluster.env.trace
        slo_s = self.slo_s
        if completed:
            latency_s = cluster.env.now - self.arrival_s
            cluster.metrics.record_workflow(
                self.workflow.name, self.arrival_s, latency_s, slo_s)
            if trace.enabled:
                trace.workflow_end(
                    self.wf_uid, "completed", latency_s=latency_s,
                    slo_s=slo_s, met_slo=latency_s <= slo_s + 1e-9)
        elif cluster.cancel.workflow_was_doomed(self.wf_uid):
            # Doomed is a sub-case of failed (the lifecycle equation
            # still balances); the distinct trace status routes its
            # completed work to the ledger's ``doomed`` bucket.
            trace.workflow_end(self.wf_uid, "doomed", slo_s=slo_s)
        else:
            cluster.metrics.record_workflow_failure(self.workflow.name)
            trace.workflow_end(self.wf_uid, "failed", slo_s=slo_s)
        cluster.inflight -= 1


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
        if self.config.ha is not None and self.config.reliability is None:
            raise ValueError(
                "the HA layer recovers stranded invocations through the"
                " frontend's retry machinery; configure"
                " ClusterConfig.reliability alongside ClusterConfig.ha")
        #: The layer runtimes (repro.platform.layers), built before the
        #: nodes that reach them and armed once the nodes exist.
        self.layers = Layers.build(env, self.metrics, self.config)
        self.guard, self.tenancy, self.ha, self.cancel = self.layers
        self.nodes: List[NodeSystem] = [
            system.make_node(env, server, self.metrics, self.rng,
                             self.layers)
            for server in self.servers
        ]
        self.layers.arm(self)
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
                    and self.config.ha is None):
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

        With the HA layer armed, nodes its membership table distrusts
        are skipped too (:meth:`HARuntime.prefer_dispatchable`).
        """
        up = [node for node in self.nodes if not node.down]
        if not up:
            return None
        if self.ha.armed:
            up = self.ha.prefer_dispatchable(up)
        if exclude is not None and len(up) > 1:
            up = [node for node in up if node is not exclude] or up
        loads = [node.outstanding for node in up]
        best = min(loads)
        candidates = [node for node, load in zip(up, loads) if load == best]
        choice = candidates[self._rr_index % len(candidates)]
        self._rr_index += 1
        return choice

    # ------------------------------------------------------------------
    # Workflow engine
    # ------------------------------------------------------------------
    def submit_workflow(self, workflow: Workflow) -> bool:
        """Admit one end-to-end application invocation arriving now.

        Returns False when the guard or tenancy layer shed it. The trace
        driver starts the admitted ones (:class:`_WorkflowRun`) once
        every arrival of the instant has been admitted.
        """
        self.submitted_workflows += 1
        return (self.guard.admit_workflow(workflow.name)
                and self.tenancy.admit_workflow(workflow.name))

    # ------------------------------------------------------------------
    # The attempt lifecycle: submit, release, write off
    # ------------------------------------------------------------------
    def _submit(self, inv: _Invocation, node: NodeSystem, spec,
                attempt: int = 0):
        """Put one attempt of ``inv`` on ``node`` (the only way an
        attempt reaches a node) and return its job."""
        job = node.submit(inv.fn_model, spec, inv.deadline_s, inv.benchmark,
                          seniority_time_s=inv.arrival_s)
        job.attempt = attempt
        self.cancel.tag_job(job, inv.doom_deadline_s)
        self.env.trace.link(inv.wf_uid, job.job_id)
        self.ha.tag_job(job, node)
        return job

    def _release(self, jobs, kill: bool, reason: str, winner=None) -> None:
        """Let go of every live attempt but ``winner``: kill it (the
        cancel layer reclaims its remaining energy) or abandon it (it
        keeps running and its outcome is wasted work)."""
        for job in jobs:
            if job is winner or job.aborted or job.cancelled:
                continue
            if kill:
                self.cancel.cancel_attempt(job, reason=reason)
            else:
                job.abandoned = True

    def _lose(self, inv: _Invocation, attempts: int,
              doomed_by: Optional[str] = None, **flag) -> None:
        """Write ``inv`` off for good. ``flag`` marks the instant with
        the reason; ``doomed_by`` names the cause when the doom line,
        not a failure, ended it."""
        if doomed_by is not None:
            self.cancel.note_workflow_doomed(
                inv.benchmark, inv.wf_uid, -1, cause=doomed_by)
            flag["doomed"] = True
        self.metrics.lost_invocations += 1
        self.env.trace.instant("invocation_lost", "frontend",
                               function=inv.fn_model.name,
                               attempts=attempts, **flag)

    # ------------------------------------------------------------------
    # Reliability layer (repro.faults)
    # ------------------------------------------------------------------
    def _await_up_node(self, deadline_s: Optional[float]):
        """Yield until some node is up, then return it (generator helper).

        ``deadline_s`` bounds the wait: during a full-cluster outage the
        loop used to poll unbounded even when the invocation's deadline
        had already passed; once the deadline is unmeetable it now
        returns None and the caller writes the invocation off instead of
        burning poll wake-ups on work that cannot succeed.
        """
        while True:
            node = self.pick_node()
            if node is not None:
                return node
            if deadline_s is not None and self.env.now >= deadline_s - 1e-9:
                return None
            yield self.env.timeout(ALL_DOWN_POLL_S)

    def _invoke_reliably(self, inv: _Invocation):
        """Shepherd one invocation to completion under the policy.

        Submits a pristine clone of the spec per attempt (work units are
        consumed in place), detects crash-aborted attempts via their
        ``done`` event, applies the per-attempt timeout and hedged
        re-dispatch, and backs off exponentially (with deterministic
        jitter) between retries. Returns the winning job, or None once
        every retry is exhausted.

        With the HA layer armed (``inv.idem_key`` set), three things
        change: a completion only wins while its node's uplink to the
        frontend delivers (a partitioned result is invisible until the
        link heals), the loop also wakes on membership/link transitions,
        and an invocation stranded on a *suspected* node is re-dispatched
        — exactly once per idempotency key, via the journal — to a
        non-suspected node, with surviving duplicates fenced when a
        winner emerges.
        """
        policy = self.config.reliability
        guard = self.guard
        ha = self.ha
        cancel = self.cancel
        name = inv.fn_model.name
        ha.register_dispatch(inv.idem_key)
        cancel.note_first_attempt()
        attempt = 0
        lost_to_crash_here = 0
        while True:
            if not guard.breaker_allows(name):
                # The function's breaker is open: fail fast instead of
                # feeding the retry loop while the function is known-bad.
                return self._lose(inv, attempt, fast_fail=True)
            if attempt > 0:
                if cancel.doom_passed(inv.doom_deadline_s):
                    # Retrying cannot beat the doom line anymore: write
                    # the invocation off before it burns another attempt.
                    return self._lose(inv, attempt, doomed_by="retry_doomed")
                if not cancel.allow_retry(name, attempt):
                    # The cluster-wide retry budget is spent: dropping
                    # this retry is what keeps per-invocation policies
                    # from compounding into a retry storm.
                    return self._lose(inv, attempt, budget_exhausted=True)
                self.metrics.record_retry()
                self.env.trace.instant("retry", "frontend", function=name,
                                       attempt=attempt)
                draw = 0.0
                if policy.backoff_jitter > 0:
                    draw = float(self.rng.stream(
                        "reliability/jitter").uniform(-1.0, 1.0))
                backoff = policy.backoff_s(attempt, draw)
                if backoff > 0:
                    yield self.env.timeout(backoff)
                if cancel.doom_passed(inv.doom_deadline_s):
                    # The doom line passed during backoff: the granted
                    # token never dispatched, so retire it and give up.
                    cancel.refund_retry(name)
                    return self._lose(inv, attempt, doomed_by="retry_doomed")
            bail_s = (inv.doom_deadline_s if inv.doom_deadline_s is not None
                      else inv.deadline_s)
            node = yield from self._await_up_node(bail_s)
            if node is None:
                # Full-cluster outage outlived the deadline: no node came
                # back while the invocation could still succeed, so stop
                # polling instead of spinning on work that cannot win.
                if attempt > 0:
                    cancel.refund_retry(name)
                return self._lose(inv, attempt, deadline_passed=True)
            jobs = [self._submit(inv, node, inv.spec.clone(), attempt)]
            timeout_ev = (self.env.timeout(policy.invocation_timeout_s)
                          if policy.invocation_timeout_s is not None else None)
            hedge_ev = (self.env.timeout(policy.hedge_after_s)
                        if policy.hedge_after_s is not None else None)
            attempt_failed = False
            while not attempt_failed:
                waits = ha.attempt_waits(jobs)
                if timeout_ev is not None:
                    waits.append(timeout_ev)
                if hedge_ev is not None:
                    waits.append(hedge_ev)
                yield self.env.any_of(waits)
                winner = next((j for j in jobs if j.finished
                               and ha.result_visible(j)), None)
                if winner is not None:
                    # The race is decided: kill the losers (reclaiming
                    # their remaining energy) or let them run to waste.
                    self._release(jobs, cancel.cancels_attempts, "hedge_loser",
                                  winner)
                    ha.record_completion(inv.idem_key, jobs, winner)
                    lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                    self.metrics.crash_redispatches += lost_to_crash_here
                    guard.record_attempt_success(name)
                    return winner
                if all(j.aborted for j in jobs):
                    lost_to_crash_here += len(jobs)
                    attempt_failed = True
                    break
                if cancel.any_cancelled(jobs):
                    # The platform declared this work doomed (a dequeue
                    # drop): no sibling or retry can beat the doom line
                    # either, so kill the survivors and give up for good.
                    self._release(jobs, True, "doomed_sibling")
                    return self._lose(inv, attempt + 1,
                                      doomed_by="dequeue_doomed")
                if timeout_ev is not None and timeout_ev.processed:
                    # Written off: with the cancel layer armed the
                    # survivors are killed; otherwise they keep running.
                    self._release(jobs, cancel.cancels_attempts, "timeout")
                    lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                    self.metrics.record_timeout()
                    self.env.trace.instant("invocation_timeout", "frontend",
                                           function=name, attempt=attempt)
                    attempt_failed = True
                    break
                if hedge_ev is not None and hedge_ev.processed:
                    # One hedge per attempt.
                    hedge_ev = None
                    other = self.pick_node(exclude=node)
                    if other is not None and other is not node:
                        duplicate = self._submit(inv, other,
                                                 inv.spec.clone(), attempt)
                        jobs.append(duplicate)
                        self.metrics.record_hedge()
                        self.env.trace.instant("hedge", "frontend",
                                               function=name,
                                               job=duplicate.job_id)
                    continue
                target = ha.redispatch_target(inv.idem_key, jobs, exclude=node)
                if target is not None:
                    jobs.append(self._submit(inv, target, inv.spec.clone(),
                                             attempt))
                    continue
                # Some (not all) attempts crashed: drop them, keep waiting.
                lost_to_crash_here += sum(1 for j in jobs if j.aborted)
                jobs = [j for j in jobs if not j.aborted]
            guard.record_attempt_failure(name, node=node)
            attempt += 1
            if attempt > policy.max_retries:
                return self._lose(inv, attempt)

    # ------------------------------------------------------------------
    # Trace driving
    # ------------------------------------------------------------------
    def _arrive(self, cursor) -> None:
        """Admit every trace arrival due now, book the next arrival
        instant, then start the admitted workflows in trace order.

        A start submits jobs, which moves the cluster EWT the guard's
        admission reads, so no arrival of an instant starts before all
        of them are admitted.
        """
        events, workflows, index = cursor
        env = self.env
        admitted = []
        while index < len(events):
            event = events[index]
            delay = event.time_s - env.now
            if delay > 0:
                env.call_later(delay, self._arrive,
                               (events, workflows, index))
                break
            workflow = workflows[event.benchmark]
            if self.submit_workflow(workflow):
                admitted.append(workflow)
            index += 1
        for workflow in admitted:
            _WorkflowRun(self, workflow)

    def run_trace(self, trace: Trace,
                  workflows: Optional[Dict[str, Workflow]] = None) -> None:
        """Run a full trace to completion (plus the drain window).

        The first arrival instant is booked URGENT, so arrivals at the
        current time start after the processes already started (the
        nodes' control loops) and before any timer due now.
        """
        if workflows is None:
            workflows = {name: workflow_for(name)
                         for name in trace.invocation_counts()}
        missing = set(trace.invocation_counts()) - set(workflows)
        if missing:
            raise ValueError(f"trace references unknown workflows: {missing}")
        self.env.call_soon(self._arrive, (trace.events, workflows, 0))
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
