"""Tenancy tunables: tenants, energy budgets and power caps.

A :class:`TenancyConfig` switches on the energy-multi-tenancy machinery
of ``repro.tenancy``: per-tenant energy budgets over sliding windows,
the cluster power-cap control loop, and joule-denominated billing. Like
every other opt-in layer, a :class:`Cluster` built without a
``TenancyConfig`` runs its tenancy runtime inert, byte-identical to the
pre-tenancy code (the regression suite pins this down to the byte).

All tenancy decisions are pure functions of simulation time and metered
counters — no random draws — so tenancy-armed runs are exactly as
deterministic as plain ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


def _require_finite(name: str, value: float) -> None:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite: {value}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its benchmarks, its joule budget, its shed class.

    ``budget_j`` is the tenant's energy allowance over the trailing
    ``window_s`` seconds (None = unmetered tenant, never throttled).
    When the windowed consumption exceeds the budget, the enforcement
    policy follows the guard's shed ordering: a ``best_effort`` tenant's
    arrivals are shed outright (brownout-style), while an SLO-bearing
    tenant's arrivals are throttled through a token bucket at
    :data:`~repro.tenancy.runtime.THROTTLE_RPS` — slowed down, not
    starved.
    """

    name: str
    #: Benchmarks owned by this tenant (the registry maps each arrival's
    #: benchmark to exactly one tenant).
    benchmarks: Tuple[str, ...] = ()
    #: Joule allowance over the sliding window; None = never throttled.
    budget_j: Optional[float] = None
    #: Sliding-window length for the budget, seconds.
    window_s: float = 10.0
    #: Best-effort tenants are shed outright while over budget;
    #: SLO-bearing tenants are throttled through the token bucket.
    best_effort: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if not self.benchmarks:
            raise ValueError(f"tenant {self.name} owns no benchmarks")
        if len(set(self.benchmarks)) != len(self.benchmarks):
            raise ValueError(
                f"tenant {self.name} lists a benchmark twice:"
                f" {self.benchmarks}")
        if self.budget_j is not None:
            _require_finite("budget_j", self.budget_j)
            if self.budget_j <= 0:
                raise ValueError(
                    f"budget_j must be positive: {self.budget_j}")
        _require_finite("window_s", self.window_s)
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive: {self.window_s}")


@dataclass(frozen=True)
class PowerCapConfig:
    """The cluster power-cap control loop (:class:`PowerCapGovernor`).

    Every ``period_s`` the governor compares the metered cluster draw
    (summed :meth:`Server.power_snapshot_w`) against the cap and
    actuates one step through the existing controllers: while over the
    cap it lowers the cluster-wide frequency ceiling one DVFS level per
    tick, then shrinks the usable core fraction by
    :data:`~repro.tenancy.governor.CORE_STEP` per tick down to
    :data:`~repro.tenancy.governor.MIN_CORE_FRACTION`; once the draw
    falls below :data:`~repro.tenancy.governor.RELEASE_FRACTION` of the
    cap it releases one step per tick in the reverse order.
    """

    #: The standing cap, watts.
    cap_w: float = 400.0
    #: Governor tick period (the T_refresh of the cap loop), seconds.
    period_s: float = 2.0

    def __post_init__(self) -> None:
        _require_finite("cap_w", self.cap_w)
        _require_finite("period_s", self.period_s)
        if self.cap_w <= 0:
            raise ValueError(f"cap_w must be positive: {self.cap_w}")
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive: {self.period_s}")


@dataclass(frozen=True)
class TenancyConfig:
    """The full energy-multi-tenancy policy of one cluster.

    ``power_cap`` left ``None`` disables the governor; a cluster with no
    ``TenancyConfig`` at all matches the pre-tenancy code byte-for-byte.
    Budgets are metered every
    :data:`repro.tenancy.runtime.METER_PERIOD_S` and bills are priced
    at :data:`repro.tenancy.billing.USD_PER_MJ`.
    """

    tenants: Tuple[TenantSpec, ...] = ()
    power_cap: Optional[PowerCapConfig] = None

    def __post_init__(self) -> None:
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        owned: Dict[str, str] = {}
        for tenant in self.tenants:
            for benchmark in tenant.benchmarks:
                if benchmark in owned:
                    raise ValueError(
                        f"benchmark {benchmark} is owned by both"
                        f" {owned[benchmark]} and {tenant.name}")
                owned[benchmark] = tenant.name
