"""The per-cluster tenancy runtime: metering, enforcement, settlement.

Every :class:`Cluster` builds one (:mod:`repro.platform.layers`).
Without a ``ClusterConfig.tenancy`` it is inert: no tenants, governor,
meter loop or bills.

Three loops of responsibility:

* **metering** — every :data:`METER_PERIOD_S` the runtime polls the servers'
  consumer-attributed energy meters, charges each benchmark's delta to
  its owning tenant's sliding budget window, and keeps the power-cap
  governor ticking;
* **enforcement** — arrivals of an over-budget tenant are shed
  (best-effort tenants, brownout-style) or throttled through a token
  bucket (SLO-bearing tenants), each decision recording one
  ``tenant_throttle`` decision instant in the trace; with the guard
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
    from repro.platform.cluster import Cluster, ClusterConfig
    from repro.platform.metrics import MetricsCollector
    from repro.platform.system import NodeSystem
    from repro.sim.engine import Environment

#: Frontend trace track for tenancy decisions (matches guard events).
FRONTEND_TRACK = "frontend"

#: Shed reasons added to the guard's taxonomy by the tenancy layer.
SHED_TENANT_BUDGET = "tenant_budget"      # best-effort tenant over budget
SHED_TENANT_THROTTLE = "tenant_throttle"  # SLO tenant over budget, bucket dry

#: Over-budget admission rate of an SLO-bearing tenant, workflows/s, and
#: the burst capacity of its token bucket.
THROTTLE_RPS = 2.0
THROTTLE_BURST = 2.0

#: Budget-meter poll period (how often windowed consumption updates),
#: seconds.
METER_PERIOD_S = 1.0


class TenancyRuntime:
    """The tenancy machinery of one cluster."""

    def __init__(self, env: "Environment", metrics: "MetricsCollector",
                 config: "ClusterConfig"):
        #: False without a ``ClusterConfig.tenancy``: the runtime is inert.
        self.armed = config.tenancy is not None
        self.config = config.tenancy or TenancyConfig()
        #: True when a power cap is configured: only then can
        #: :meth:`clamp_freq` lower a frequency.
        self.caps_frequency = (self.armed
                               and self.config.power_cap is not None)
        self.env = env
        self.metrics = metrics
        self.registry = TenantRegistry(self.config)
        #: The power-cap governor, built by :meth:`arm` when configured.
        self.governor: Optional[PowerCapGovernor] = None
        #: Over-budget token buckets for SLO-bearing tenants.
        self._buckets: Dict[str, TokenBucket] = {}
        #: Last meter-loop reading per benchmark (delta charging).
        self._last_attributed: Dict[str, float] = {}
        #: Settled bills, one document per closed ledger run.
        self.bills: List[Dict[str, object]] = []
        self.cluster: Optional["Cluster"] = None

    def arm(self, cluster: "Cluster") -> None:
        """Start the periodic tenancy processes (meter + governor)."""
        self.cluster = cluster
        if not self.armed:
            return
        self.env.process(self._meter_loop(), name="tenancy-meter")
        if self.config.power_cap is not None:
            self.governor = PowerCapGovernor(cluster, self.config.power_cap)
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
            yield self.env.timeout(METER_PERIOD_S)
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
            self._buckets[tenant.name] = TokenBucket(THROTTLE_RPS,
                                                     THROTTLE_BURST)
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
        self.env.trace.decision(
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
        node.apply_frequency_ceiling(self.freq_ceiling_ghz())

    # ------------------------------------------------------------------
    # Settlement (after EnergyLedger.close_run)
    # ------------------------------------------------------------------
    def settle(self, ledger) -> Optional[Dict[str, object]]:
        """Bill the just-closed ledger run per tenant (None while inert)."""
        if not self.armed:
            return None
        run = ledger.reports[-1].run if ledger.reports else None
        document = bill_ledger_run(ledger, self.registry.tenant_name_of,
                                   run=run)
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
