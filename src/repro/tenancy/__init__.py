"""repro.tenancy — energy-first multi-tenancy for the EcoFaaS control plane.

Four opt-in pieces, layered on the PR-5 energy-attribution ledger:

- **Tenant registry** (:mod:`repro.tenancy.registry`): benchmarks mapped
  to tenants, each with a joule budget over a sliding window charged
  from the live consumer-attributed energy meters.
- **Budget enforcement** (:mod:`repro.tenancy.runtime`): over-budget
  tenants' best-effort arrivals are shed first (brownout-style) and
  SLO-bearing ones throttled through a token bucket, with
  one ``tenant_throttle`` decision instant per decision;
  with the guard armed, over-budget traffic is demoted to the guard's
  best-effort shed class too.
- **Power-cap governor** (:mod:`repro.tenancy.governor`): a cluster
  control loop that watches the metered draw each period and actuates
  per-pool frequency steps, then pool shrinking, through the existing
  controllers to stay under a (possibly time-varying) watt budget.
- **Energy billing** (:mod:`repro.tenancy.billing`): joules priced per
  ledger component (run / cold-start / idle / retry-waste rates differ)
  instead of GB-seconds, summing to the ledger total by construction.

Everything is opt-in: a cluster whose config carries no
:class:`TenancyConfig` runs its tenancy runtime inert and produces
bit-identical results (regression-tested against the stored seed
fingerprints).
"""

from repro.tenancy.billing import (
    UNATTRIBUTED,
    bill_from_breakdown,
    bill_ledger_run,
    format_bill,
    jain_index,
)
from repro.tenancy.config import (
    PowerCapConfig,
    TenancyConfig,
    TenantSpec,
)
from repro.tenancy.governor import PowerCapGovernor
from repro.tenancy.registry import UNOWNED, EnergyBudgetWindow, TenantRegistry
from repro.tenancy.runtime import (
    SHED_TENANT_BUDGET,
    SHED_TENANT_THROTTLE,
    TenancyRuntime,
)

__all__ = [
    "EnergyBudgetWindow",
    "PowerCapConfig",
    "PowerCapGovernor",
    "TenancyConfig",
    "TenancyRuntime",
    "TenantRegistry",
    "TenantSpec",
    "UNATTRIBUTED",
    "UNOWNED",
    "SHED_TENANT_BUDGET",
    "SHED_TENANT_THROTTLE",
    "bill_from_breakdown",
    "bill_ledger_run",
    "format_bill",
    "jain_index",
]
