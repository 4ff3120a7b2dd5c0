"""Cross-layer invariant monitors (the online half of ``repro.verify``).

A :class:`Verifier` is the machine-checked statement of the simulator's
safety properties: energy accounting conserves, invocation lifecycles
terminate exactly once, circuit breakers only take legal transitions,
HA epochs fence monotonically, tenant budgets and the power-cap ladder
stay inside their documented bounds, and the kernel clock never runs
backwards. The monitors are wired through ``Environment.verify`` — the
shared :data:`NULL_VERIFIER` by default, following the ``env.trace``
null-object pattern — so verification-off runs execute the exact
pre-verify code paths and stay bit-identical to the stored seed
fingerprints.

A bound verifier only *reads* simulation state: it draws no random
numbers, schedules nothing but its own sweep timeout, and mutates no
platform structure, so armed runs produce the same metrics as unarmed
ones (the ``--verify`` determinism contract). Violations are recorded,
never raised mid-run — a broken invariant must not change the schedule
it is observing.

The full catalog — statement, tolerance, layers spanned, and what
falsifies each invariant — lives in ``DESIGN.md`` §12.

This module deliberately imports nothing from the rest of ``repro``:
the sim kernel imports :data:`NULL_VERIFIER` at startup, so anything
heavier here would close an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Absolute slack on floating-point comparisons (clock, joules).
EPS = 1e-9

#: Relative tolerance for energy-conservation style sum checks (matches
#: ``EnergyLedger.TOLERANCE``).
REL_TOLERANCE = 1e-6

#: The circuit breaker's legal state machine (DESIGN.md §7):
#: closed -> open -> half_open -> {closed, open}. Everything else —
#: notably the open -> closed jump that skips the probe — is a bug.
LEGAL_BREAKER_TRANSITIONS = frozenset({
    ("closed", "open"),
    ("open", "half_open"),
    ("half_open", "closed"),
    ("half_open", "open"),
})

#: The breaker states that may appear at any instant.
BREAKER_STATES = frozenset({"closed", "open", "half_open"})


@dataclass(frozen=True)
class Violation:
    """One observed breach of a declared invariant."""

    #: Invariant name (the DESIGN.md §12 catalog key).
    invariant: str
    #: Simulation time the breach was observed at.
    time_s: float
    #: Run label (the system under test), for multi-run verifiers.
    run: str
    #: Human-readable statement of what went wrong.
    message: str
    #: Sorted (key, value) evidence pairs — kept as a tuple so the
    #: violation list serializes canonically for byte-identical replays.
    details: Tuple[Tuple[str, object], ...] = ()

    def to_json(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "time_s": self.time_s,
            "run": self.run,
            "message": self.message,
            "details": {key: value for key, value in self.details},
        }


class NullVerifier:
    """The do-nothing verifier installed on every fresh environment."""

    enabled = False

    def bind(self, env) -> "NullVerifier":
        return self

    def begin_run(self, label: str) -> None:
        pass

    def on_step(self, now: float) -> None:
        pass

    def on_breaker_transition(self, function: str, old: str,
                              new: str) -> None:
        pass

    def on_tenant_admit(self, benchmark: str, tenant, action: str) -> None:
        pass

    def on_job_complete(self, job) -> None:
        pass

    def arm(self, cluster) -> None:
        pass

    def close_run(self, cluster) -> None:
        pass

    def check_fingerprints(self, recorder, entry, cluster) -> None:
        pass


#: The shared null verifier (one instance; it holds no state).
NULL_VERIFIER = NullVerifier()


@dataclass
class _RunState:
    """Per-cluster monotonicity trackers carried between sweeps."""

    #: Last seen per-server meter total (energy only accrues).
    energy_j: Dict[int, float] = field(default_factory=dict)
    #: Last seen controller-group epoch.
    ha_epoch: int = 0
    #: Last seen per-consumer fencing epoch (``HARuntime._seen_epochs``).
    seen_epochs: Dict[str, int] = field(default_factory=dict)
    #: Last seen power-cap governor epoch.
    cap_epoch: int = 0


class Verifier:
    """Online invariant monitors for one or more cluster runs.

    Usage mirrors the tracer: ``verifier.bind(env)`` installs it as
    ``env.verify`` (arming the kernel's clock hook and the platform's
    transition hooks), ``verifier.arm(cluster)`` wires the breaker
    observer and starts the periodic read-only sweep, and
    ``verifier.close_run(cluster)`` runs the end-of-run lifecycle and
    conservation checks. One verifier may serve many sequential runs
    (the ``repro all --verify`` path); violations accumulate across
    them, stamped with each run's label.
    """

    enabled = True

    def __init__(self, sweep_period_s: float = 0.5):
        if sweep_period_s <= 0:
            raise ValueError(
                f"sweep_period_s must be positive: {sweep_period_s}")
        self.sweep_period_s = sweep_period_s
        self.violations: List[Violation] = []
        #: Clusters armed over this verifier's lifetime.
        self.runs = 0
        self.env = None
        self._label = ""
        self._last_clock: Optional[float] = None
        self._states: Dict[int, _RunState] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def begin_run(self, label: str) -> None:
        """Stamp subsequent violations with ``label`` (the system name)."""
        self._label = label

    def bind(self, env) -> "Verifier":
        """Install as ``env.verify`` and reset the kernel clock tracker."""
        self.env = env
        env.verify = self
        self._last_clock = env.now
        return self

    def arm(self, cluster) -> None:
        """Wire transition observers and start the periodic sweep."""
        self.runs += 1
        state = _RunState()
        self._states[id(cluster)] = state
        guard = getattr(cluster, "guard", None)
        if guard is not None and guard.breakers is not None:
            board = guard.breakers
            board.observer = self.on_breaker_transition
            for breaker in board._breakers.values():
                breaker.observer = self.on_breaker_transition
        cluster.env.process(self._sweep_loop(cluster, state),
                            name="verify-sweep")

    def _sweep_loop(self, cluster, state: _RunState):
        env = cluster.env
        while True:
            self.sweep(cluster, state)
            yield env.timeout(self.sweep_period_s)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, invariant: str, message: str, **details) -> None:
        now = self.env.now if self.env is not None else 0.0
        self.violations.append(Violation(
            invariant=invariant, time_s=float(now), run=self._label,
            message=message,
            details=tuple(sorted(details.items()))))

    def summary(self) -> Dict[str, int]:
        """Violation counts per invariant name (sorted)."""
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant,
                                                     0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Event hooks (called from the kernel and the platform layers)
    # ------------------------------------------------------------------
    def on_step(self, now: float) -> None:
        """Kernel hook: the simulation clock must never run backwards."""
        last = self._last_clock
        if last is not None and now < last - EPS:
            self.record("clock-monotonic",
                        f"kernel clock moved backwards:"
                        f" {last:.9f}s -> {now:.9f}s",
                        previous_s=last, now_s=now)
        self._last_clock = now

    def on_breaker_transition(self, function: str, old: str,
                              new: str) -> None:
        """Breaker hook: only the documented transitions are legal."""
        if new not in BREAKER_STATES:
            self.record("breaker-transition",
                        f"breaker[{function}] entered unknown state"
                        f" {new!r}", function=function, state=new)
            return
        if old != new and (old, new) not in LEGAL_BREAKER_TRANSITIONS:
            self.record("breaker-transition",
                        f"breaker[{function}] took illegal transition"
                        f" {old} -> {new}",
                        function=function, old=old, new=new)

    def on_tenant_admit(self, benchmark: str, tenant, action: str) -> None:
        """Tenancy hook: over-budget best-effort arrivals must shed.

        Called only for arrivals whose owning tenant is over budget at
        decision time, with the enforcement action taken.
        """
        if tenant.best_effort and action != "shed":
            self.record("tenant-enforcement",
                        f"over-budget best-effort tenant {tenant.name}"
                        f" arrival of {benchmark} was {action},"
                        f" not shed",
                        tenant=tenant.name, benchmark=benchmark,
                        action=action)

    def on_job_complete(self, job) -> None:
        """Job hook: cancelled work must never run to completion.

        The cancel layer removes a cancelled job from its pool; if one
        still reaches ``complete()``, the kill leaked and the energy the
        layer claims to reclaim is still being burned.
        """
        if getattr(job, "cancelled", False):
            self.record("cancel-lifecycle",
                        f"job {job.job_id} ({job.function_name}) ran to"
                        f" completion after being cancelled",
                        job=job.job_id, function=job.function_name,
                        attempt=job.attempt)

    # ------------------------------------------------------------------
    # The periodic sweep (pure reads of cluster state)
    # ------------------------------------------------------------------
    def sweep(self, cluster, state: Optional[_RunState] = None) -> None:
        if state is None:
            state = self._states.setdefault(id(cluster), _RunState())
        self._check_kernel_counts(cluster)
        self._check_energy_monotone(cluster, state)
        self._check_breaker_states(cluster)
        self._check_ha(cluster, state)
        self._check_tenancy(cluster, state)
        self._check_cancel(cluster)

    def _check_kernel_counts(self, cluster) -> None:
        if cluster.inflight < 0:
            self.record("kernel-counts",
                        f"negative in-flight workflow count:"
                        f" {cluster.inflight}", inflight=cluster.inflight)
        for node in cluster.nodes:
            if node.outstanding < 0:
                self.record("kernel-counts",
                            f"{node.track} has negative outstanding job"
                            f" count: {node.outstanding}",
                            node=node.track, outstanding=node.outstanding)
            containers = node.containers
            for counter in ("cold_starts", "warm_hits", "kills"):
                value = getattr(containers, counter)
                if value < 0:
                    self.record("kernel-counts",
                                f"{node.track} container counter"
                                f" {counter} went negative: {value}",
                                node=node.track, counter=counter,
                                value=value)

    def _check_energy_monotone(self, cluster, state: _RunState) -> None:
        for server in cluster.servers:
            total = server.meter.total_j
            last = state.energy_j.get(server.server_id, 0.0)
            if total < last - EPS:
                self.record("energy-monotone",
                            f"server{server.server_id} metered energy"
                            f" decreased: {last:.9f} J -> {total:.9f} J",
                            server=server.server_id,
                            previous_j=last, now_j=total)
            state.energy_j[server.server_id] = total
            attributed = sum(server.meter.by_consumer().values())
            if attributed > total * (1.0 + REL_TOLERANCE) + EPS:
                self.record("energy-attribution-bound",
                            f"server{server.server_id} attributes more"
                            f" energy ({attributed:.9f} J) than it"
                            f" metered ({total:.9f} J)",
                            server=server.server_id,
                            attributed_j=attributed, metered_j=total)

    def _check_breaker_states(self, cluster) -> None:
        guard = getattr(cluster, "guard", None)
        if guard is None or guard.breakers is None:
            return
        for function, breaker_state in guard.breakers.states().items():
            if breaker_state not in BREAKER_STATES:
                self.record("breaker-transition",
                            f"breaker[{function}] sits in unknown state"
                            f" {breaker_state!r}",
                            function=function, state=breaker_state)

    def _check_ha(self, cluster, state: _RunState) -> None:
        ha = getattr(cluster, "ha", None)
        if ha is None:
            return
        metrics = cluster.metrics
        journal_redispatches = ha.journal.redispatch_count()
        if metrics.ha_redispatches != journal_redispatches:
            self.record("ha-journal-crosscheck",
                        f"frontend accounted {metrics.ha_redispatches}"
                        f" re-dispatches but the journal authorised"
                        f" {journal_redispatches}",
                        metrics=metrics.ha_redispatches,
                        journal=journal_redispatches)
        if ha.journal.duplicate_completions != 0:
            self.record("ha-exactly-once",
                        f"{ha.journal.duplicate_completions} completion(s)"
                        f" recorded for already-completed idempotency"
                        f" keys",
                        duplicate_completions=(
                            ha.journal.duplicate_completions))
        group = ha.controllers
        if group.epoch < state.ha_epoch:
            self.record("ha-epoch-monotone",
                        f"controller epoch moved backwards:"
                        f" {state.ha_epoch} -> {group.epoch}",
                        previous=state.ha_epoch, now=group.epoch)
        state.ha_epoch = group.epoch
        believers = [replica.rid for replica in group.replicas
                     if not replica.down and replica.believes_leader
                     and replica.believed_epoch == group.epoch]
        if len(believers) > 1:
            self.record("ha-single-leader",
                        f"{len(believers)} replicas believe leadership"
                        f" at the current epoch {group.epoch}:"
                        f" {believers}",
                        epoch=group.epoch,
                        believers=tuple(believers))
        for endpoint in sorted(ha._seen_epochs):
            epoch = ha._seen_epochs[endpoint]
            last = state.seen_epochs.get(endpoint, 0)
            if epoch < last:
                self.record("ha-fencing",
                            f"consumer {endpoint} accepted a decision"
                            f" from a fenced epoch: {last} -> {epoch}",
                            endpoint=endpoint, previous=last, now=epoch)
            if epoch > group.epoch:
                self.record("ha-fencing",
                            f"consumer {endpoint} saw epoch {epoch}"
                            f" ahead of the controller group's"
                            f" {group.epoch}",
                            endpoint=endpoint, seen=epoch,
                            group=group.epoch)
            state.seen_epochs[endpoint] = epoch

    def _check_tenancy(self, cluster, state: _RunState) -> None:
        tenancy = getattr(cluster, "tenancy", None)
        if tenancy is None:
            return
        now = cluster.env.now
        governor = tenancy.governor
        if governor is not None:
            if not 0 <= governor.steps <= governor.max_steps:
                self.record("powercap-ladder",
                            f"governor actuation depth {governor.steps}"
                            f" outside [0, {governor.max_steps}]",
                            steps=governor.steps,
                            max_steps=governor.max_steps)
            fraction = governor.core_fraction()
            floor = governor.config.min_core_fraction
            if not floor - EPS <= fraction <= 1.0 + EPS:
                self.record("powercap-ladder",
                            f"usable core fraction {fraction:.6f}"
                            f" outside [{floor}, 1.0]",
                            fraction=fraction, floor=floor)
            ceiling = governor.freq_ceiling_ghz()
            if ceiling is not None and ceiling not in governor.scale.levels:
                self.record("powercap-ladder",
                            f"frequency ceiling {ceiling} GHz is not a"
                            f" DVFS level of the scale",
                            ceiling_ghz=ceiling,
                            levels=tuple(governor.scale.levels))
            if governor.epoch < state.cap_epoch:
                self.record("powercap-epoch",
                            f"governor epoch moved backwards:"
                            f" {state.cap_epoch} -> {governor.epoch}",
                            previous=state.cap_epoch, now=governor.epoch)
            state.cap_epoch = governor.epoch
        for tenant in tenancy.registry.tenants():
            used = tenancy.registry.used_j(tenant.name, now)
            lifetime = tenancy.registry.lifetime_j(tenant.name)
            if used < -EPS or used > lifetime * (1.0 + REL_TOLERANCE) + EPS:
                self.record("tenant-budget",
                            f"tenant {tenant.name} windowed use"
                            f" {used:.9f} J outside [0, lifetime"
                            f" {lifetime:.9f} J]",
                            tenant=tenant.name, used_j=used,
                            lifetime_j=lifetime)

    def _check_cancel(self, cluster) -> None:
        cancel = getattr(cluster, "cancel", None)
        if cancel is None:
            return
        metrics = cluster.metrics
        budget = cancel.budget
        if budget is not None:
            pool = budget.pool
            total = pool.available + pool.spent + pool.refunded
            if total != pool.capacity or pool.available < 0 \
                    or pool.spent < 0 or pool.refunded < 0:
                self.record("retry-budget",
                            f"retry-token pool does not conserve:"
                            f" available {pool.available} + spent"
                            f" {pool.spent} + refunded {pool.refunded}"
                            f" != capacity {pool.capacity}",
                            available=pool.available, spent=pool.spent,
                            refunded=pool.refunded,
                            capacity=pool.capacity)
            if metrics.retries > budget.granted_total:
                self.record("retry-budget",
                            f"frontend performed {metrics.retries}"
                            f" retries but the budget only granted"
                            f" {budget.granted_total}",
                            retries=metrics.retries,
                            granted=budget.granted_total)
        if metrics.doomed_workflows > metrics.failed_workflows:
            self.record("cancel-lifecycle",
                        f"{metrics.doomed_workflows} doomed workflows"
                        f" exceed the {metrics.failed_workflows} failed"
                        f" ones they are a sub-count of",
                        doomed=metrics.doomed_workflows,
                        failed=metrics.failed_workflows)

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------
    def close_run(self, cluster) -> None:
        """Lifecycle conservation and final-state checks for one run."""
        state = self._states.pop(id(cluster), _RunState())
        self.sweep(cluster, state)
        metrics = cluster.metrics
        submitted = getattr(cluster, "submitted_workflows", None)
        if submitted is not None:
            completed = len(metrics.workflow_records)
            shed = metrics.shed_count()
            terminal = (completed + metrics.failed_workflows + shed
                        + cluster.inflight)
            if submitted != terminal:
                self.record(
                    "workflow-lifecycle",
                    f"{submitted} workflows submitted but"
                    f" {terminal} accounted for ({completed} completed"
                    f" + {metrics.failed_workflows} failed + {shed} shed"
                    f" + {cluster.inflight} in flight)",
                    submitted=submitted, completed=completed,
                    failed=metrics.failed_workflows, shed=shed,
                    inflight=cluster.inflight)
        ha = getattr(cluster, "ha", None)
        if ha is not None:
            if metrics.ha_duplicate_completions != 0:
                self.record("ha-exactly-once",
                            f"{metrics.ha_duplicate_completions}"
                            f" duplicate workflow completion(s) reached"
                            f" the frontend",
                            duplicates=metrics.ha_duplicate_completions)
            epochs = [epoch for _, _, epoch in ha.controllers.elections]
            if any(b <= a for a, b in zip(epochs, epochs[1:])):
                self.record("ha-epoch-monotone",
                            f"election log epochs are not strictly"
                            f" increasing: {epochs}",
                            epochs=tuple(epochs))

    def check_fingerprints(self, recorder, entry, cluster) -> None:
        """Recompute the run's progressive chain digests as a self-check.

        The fold is re-derived here with inline hashing (genesis link and
        chain step spelled out rather than imported) over the canonical
        epoch payloads the recorder retained, so a bug in the recorder's
        chain arithmetic — or a chain mutated after the fact — cannot
        agree with this recomputation by construction. The run's final
        whole-cluster fingerprint is cross-checked too.
        """
        import hashlib  # stdlib; keeps the module import-free at top level
        payloads = recorder.payloads.get(entry["run"], {})
        for subsystem, chain in sorted(entry["chains"].items()):
            link = hashlib.sha256(
                f"repro.obs.fingerprint/1/{subsystem}".encode()).hexdigest()
            recomputed = []
            for payload in payloads.get(subsystem, []):
                link = hashlib.sha256(
                    (link + "\n" + payload).encode()).hexdigest()
                recomputed.append(link)
            if recomputed != list(chain):
                first = next((i for i, (a, b) in enumerate(
                    zip(recomputed, chain)) if a != b),
                    min(len(recomputed), len(chain)))
                self.record("fingerprint-chain",
                            f"{subsystem} chain does not match its"
                            f" recomputation (first mismatch at epoch"
                            f" {first}; {len(chain)} recorded vs"
                            f" {len(recomputed)} recomputed links)",
                            subsystem=subsystem, epoch=first,
                            recorded=len(chain),
                            recomputed=len(recomputed))
        from repro.obs.fingerprint import cluster_fingerprint  # lazy: no cycle
        final = cluster_fingerprint(cluster)
        if final != entry["final"]:
            self.record("fingerprint-chain",
                        f"final fingerprint {entry['final'][:12]}… does"
                        f" not match the cluster's {final[:12]}…",
                        recorded=entry["final"], recomputed=final)
