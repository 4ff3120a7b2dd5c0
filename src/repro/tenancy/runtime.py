"""The per-cluster tenancy runtime: metering, enforcement, settlement.

One :class:`TenancyRuntime` is created by a :class:`Cluster` whose
config carries a :class:`TenancyConfig`, and installed as
``env.tenancy`` (the same pattern as ``env.guard``). Every
instrumentation point in the platform checks ``tenancy is None`` first,
so tenancy-off runs execute the pre-tenancy code byte-for-byte.

Three loops of responsibility:

* **metering** — every ``meter_period_s`` the runtime polls the servers'
  consumer-attributed energy meters, charges each benchmark's delta to
  its owning tenant's sliding budget window, and keeps the power-cap
  governor ticking;
* **enforcement** — arrivals of an over-budget tenant are shed
  (best-effort tenants, brownout-style) or throttled through a token
  bucket (SLO-bearing tenants), each decision emitting a
  ``tenant_throttle`` trace instant and audit record; with the guard
  armed, over-budget tenants are additionally demoted to the
  best-effort shed class inside the guard's own brownout policy;
* **settlement** — after the energy ledger closes a run,
  :meth:`settle` prices the per-tenant rollup into a bill and emits one
  ``tenant_bill`` instant per tenant for the report pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.guard.admission import TokenBucket
from repro.tenancy.billing import bill_ledger_run
from repro.tenancy.config import TenancyConfig, TenantSpec
from repro.tenancy.governor import PowerCapGovernor
from repro.tenancy.registry import TenantRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster
    from repro.platform.system import NodeSystem

#: Frontend trace track for tenancy decisions (matches guard events).
FRONTEND_TRACK = "frontend"

#: Shed reasons added to the guard's taxonomy by the tenancy layer.
SHED_TENANT_BUDGET = "tenant_budget"      # best-effort tenant over budget
SHED_TENANT_THROTTLE = "tenant_throttle"  # SLO tenant over budget, bucket dry


class TenancyRuntime:
    """All armed tenancy machinery of one cluster."""

    def __init__(self, cluster: "Cluster", config: TenancyConfig):
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        self.metrics = cluster.metrics
        self.registry = TenantRegistry(config)
        self.governor: Optional[PowerCapGovernor] = (
            PowerCapGovernor(cluster, config.power_cap)
            if config.power_cap is not None else None)
        #: Over-budget token buckets for SLO-bearing tenants.
        self._buckets: Dict[str, TokenBucket] = {}
        #: Last meter-loop reading per benchmark (delta charging).
        self._last_attributed: Dict[str, float] = {}
        #: Settled bills, one document per closed ledger run.
        self.bills: List[Dict[str, object]] = []

    def arm(self) -> None:
        """Start the periodic tenancy processes (meter + governor)."""
        self.env.process(self._meter_loop(), name="tenancy-meter")
        if self.governor is not None:
            self.env.process(self._governor_loop(), name="tenancy-governor")

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    def _poll_meters(self) -> None:
        """Charge each benchmark's attributed-energy delta to its tenant."""
        now = self.env.now
        totals: Dict[str, float] = {}
        for server in self.cluster.servers:
            for benchmark, joules in server.meter.by_consumer().items():
                totals[benchmark] = totals.get(benchmark, 0.0) + joules
        for benchmark, joules in totals.items():
            delta = joules - self._last_attributed.get(benchmark, 0.0)
            if delta > 0:
                self.registry.charge(benchmark, now, delta)
            self._last_attributed[benchmark] = joules

    def _meter_loop(self):
        while True:
            yield self.env.timeout(self.config.meter_period_s)
            self._poll_meters()

    def _governor_loop(self):
        while True:
            yield self.env.timeout(self.config.power_cap.period_s)
            self.governor.tick()

    # ------------------------------------------------------------------
    # Enforcement (Cluster.submit_workflow, after the guard's check)
    # ------------------------------------------------------------------
    def over_budget_tenant(self, benchmark: str) -> Optional[TenantSpec]:
        """The owning tenant iff it is over budget right now."""
        return self.registry.over_budget(benchmark, self.env.now)

    def demote_to_best_effort(self, benchmark: str) -> bool:
        """Guard hook: should this arrival shed with the best-effort class?

        An over-budget tenant's traffic joins the guard's best-effort
        shed class — dropped first in any brownout — regardless of its
        own SLO standing. This is the "shed over-budget tenants first"
        half of the enforcement policy; the budget's own shed/throttle
        decision happens in :meth:`admit_workflow`.
        """
        return self.over_budget_tenant(benchmark) is not None

    def _bucket(self, tenant: TenantSpec) -> TokenBucket:
        if tenant.name not in self._buckets:
            self._buckets[tenant.name] = TokenBucket(tenant.throttle_rps,
                                                     tenant.throttle_burst)
        return self._buckets[tenant.name]

    def admit_workflow(self, benchmark: str) -> bool:
        """Budget enforcement for one arrival; False = dropped (accounted).

        Best-effort tenants over budget are shed outright; SLO-bearing
        tenants over budget are throttled down to their token bucket's
        rate (admitted while tokens last, dropped once dry).
        """
        tenant = self.over_budget_tenant(benchmark)
        if tenant is None:
            return True
        now = self.env.now
        used = self.registry.used_j(tenant.name, now)
        if tenant.best_effort:
            action = "shed"
            reason = SHED_TENANT_BUDGET
        elif self._bucket(tenant).take(now):
            action = "throttled_admit"
            reason = None
        else:
            action = "throttled_drop"
            reason = SHED_TENANT_THROTTLE
        verify = self.env.verify
        if verify.enabled:
            verify.on_tenant_admit(benchmark, tenant, action)
        self.registry.record_throttle(tenant.name)
        self.metrics.tenant_throttles += 1
        if reason is not None:
            self.metrics.record_shed(benchmark, reason)
        self.env.trace.instant(
            "tenant_throttle", FRONTEND_TRACK, benchmark=benchmark,
            tenant=tenant.name, action=action,
            used_j=round(used, 6), budget_j=tenant.budget_j)
        audit = self.env.audit
        if audit is not None:
            audit.record(
                "tenant_throttle", FRONTEND_TRACK,
                inputs={"benchmark": benchmark, "tenant": tenant.name,
                        "used_j": round(used, 6),
                        "budget_j": tenant.budget_j,
                        "window_s": tenant.window_s,
                        "best_effort": tenant.best_effort},
                action={"decision": action},
                alternatives=[{"admit": True,
                               "rejected": "tenant exhausted its windowed"
                                           " energy budget"}],
                reason="per-tenant energy budget enforcement: the tenant's"
                       " sliding-window consumption exceeds its joule"
                       " allowance")
        return reason is None

    # ------------------------------------------------------------------
    # Node hooks (dispatch clamp + pool sizing + reboot)
    # ------------------------------------------------------------------
    def freq_ceiling_ghz(self) -> Optional[float]:
        if self.governor is None:
            return None
        return self.governor.freq_ceiling_ghz()

    def clamp_freq(self, freq_ghz: Optional[float]) -> Optional[float]:
        if self.governor is None:
            return freq_ghz
        return self.governor.clamp(freq_ghz)

    def capped_cores(self, n_cores: int) -> int:
        if self.governor is None:
            return n_cores
        return self.governor.capped_cores(n_cores)

    def on_node_reboot(self, node: "NodeSystem") -> None:
        """Re-impose the active ceiling on a freshly rebooted node."""
        ceiling = self.freq_ceiling_ghz()
        if ceiling is not None:
            node.apply_frequency_ceiling(ceiling)

    # ------------------------------------------------------------------
    # Settlement (after EnergyLedger.close_run)
    # ------------------------------------------------------------------
    def settle(self, ledger) -> Dict[str, object]:
        """Price the just-closed ledger run into a per-tenant bill."""
        run = ledger.reports[-1].run if ledger.reports else None
        document = bill_ledger_run(ledger, self.registry.tenant_name_of,
                                   self.config.pricing, run=run)
        document["throttles"] = dict(self.registry.throttle_counts)
        self.bills.append(document)
        if self.env.trace.enabled:
            for row in document["tenants"]:
                self.env.trace.instant(
                    "tenant_bill", FRONTEND_TRACK,
                    tenant=row["tenant"],
                    energy_j=round(row["energy_j"], 6),
                    energy_share=round(row["energy_share"], 6),
                    cost_usd=round(row["cost_usd"], 9),
                    throttles=self.registry.throttle_counts.get(
                        row["tenant"], 0))
        return document
