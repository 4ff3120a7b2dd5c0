"""The tenant registry: who owns which benchmark, who spent what.

The registry is the pure bookkeeping half of ``repro.tenancy``: it maps
benchmarks to tenants and maintains each tenant's energy consumption
over a sliding window. The runtime charges it from the live energy
meters; the enforcement policy (shed vs. throttle) reads
:meth:`TenantRegistry.over_budget` and acts through the guard-style
admission hook in :mod:`repro.tenancy.runtime`.

Every structure here is driven exclusively by simulation time and
metered joules — no wall clock, no randomness — so budget decisions are
deterministic and replayable.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.tenancy.config import TenancyConfig, TenantSpec

#: The pseudo-tenant that owns benchmarks no TenantSpec claims.
UNOWNED = "(unowned)"


class EnergyBudgetWindow:
    """A sliding-window joule counter: charge events expire after ``window_s``.

    Charges are appended with their simulation timestamp;
    :meth:`used_j` drops everything older than the window before
    summing. The running total is maintained incrementally so a poll
    every :data:`~repro.tenancy.runtime.METER_PERIOD_S` stays O(expired
    charges), not O(window).
    """

    def __init__(self, window_s: float):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive: {window_s}")
        self.window_s = window_s
        self._charges: Deque[Tuple[float, float]] = deque()
        self._total_j = 0.0
        #: Lifetime joules charged (never expires; billing cross-check).
        self.lifetime_j = 0.0

    def charge(self, now: float, joules: float) -> None:
        """Add ``joules`` consumed at simulation time ``now``."""
        if joules <= 0:
            return
        self._charges.append((now, joules))
        self._total_j += joules
        self.lifetime_j += joules

    def used_j(self, now: float) -> float:
        """Joules consumed within the trailing window at ``now``."""
        horizon = now - self.window_s
        while self._charges and self._charges[0][0] <= horizon:
            _, joules = self._charges.popleft()
            self._total_j -= joules
        # Guard against float drift when the deque empties.
        if not self._charges:
            self._total_j = 0.0
        return self._total_j


class TenantRegistry:
    """Benchmark → tenant mapping plus per-tenant budget windows."""

    def __init__(self, config: TenancyConfig):
        self.config = config
        self._by_benchmark: Dict[str, TenantSpec] = {}
        for tenant in config.tenants:
            for benchmark in tenant.benchmarks:
                self._by_benchmark[benchmark] = tenant
        self._windows: Dict[str, EnergyBudgetWindow] = {
            tenant.name: EnergyBudgetWindow(tenant.window_s)
            for tenant in config.tenants
        }
        #: Lifetime joules charged to benchmarks no tenant owns.
        self.unowned_j = 0.0
        #: Throttle decisions per tenant (the report's counter).
        self.throttle_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def tenant_of(self, benchmark: Optional[str]) -> Optional[TenantSpec]:
        """The owning tenant, or None for unowned benchmarks."""
        if benchmark is None:
            return None
        return self._by_benchmark.get(benchmark)

    def tenant_name_of(self, benchmark: Optional[str]) -> str:
        """The owning tenant's name, or :data:`UNOWNED`."""
        tenant = self.tenant_of(benchmark)
        return tenant.name if tenant is not None else UNOWNED

    def tenants(self) -> Tuple[TenantSpec, ...]:
        return self.config.tenants

    # ------------------------------------------------------------------
    # Budget accounting
    # ------------------------------------------------------------------
    def charge(self, benchmark: str, now: float, joules: float) -> None:
        """Charge metered energy of ``benchmark`` to its owning tenant."""
        tenant = self.tenant_of(benchmark)
        if tenant is None:
            if joules > 0:
                self.unowned_j += joules
            return
        self._windows[tenant.name].charge(now, joules)

    def used_j(self, tenant_name: str, now: float) -> float:
        """Windowed consumption of one tenant at ``now``."""
        window = self._windows.get(tenant_name)
        if window is None:
            return 0.0
        return window.used_j(now)

    def lifetime_j(self, tenant_name: str) -> float:
        """Lifetime metered joules of one tenant."""
        window = self._windows.get(tenant_name)
        if window is None:
            return 0.0
        return window.lifetime_j

    def over_budget(self, benchmark: str, now: float
                    ) -> Optional[TenantSpec]:
        """The owning tenant iff its windowed use exceeds its budget.

        Unowned benchmarks and unmetered tenants (``budget_j=None``)
        are never over budget.
        """
        tenant = self.tenant_of(benchmark)
        if tenant is None or tenant.budget_j is None:
            return None
        if self.used_j(tenant.name, now) > tenant.budget_j:
            return tenant
        return None

    def record_throttle(self, tenant_name: str) -> None:
        self.throttle_counts[tenant_name] = (
            self.throttle_counts.get(tenant_name, 0) + 1)

    # ------------------------------------------------------------------
    # Introspection (audit inputs, report rows)
    # ------------------------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, Dict[str, object]]:
        """Per-tenant budget state at ``now`` (read-only)."""
        rows: Dict[str, Dict[str, object]] = {}
        for tenant in self.config.tenants:
            used = self.used_j(tenant.name, now)
            rows[tenant.name] = {
                "budget_j": tenant.budget_j,
                "window_s": tenant.window_s,
                "used_j": round(used, 6),
                "over_budget": (tenant.budget_j is not None
                                and used > tenant.budget_j),
                "best_effort": tenant.best_effort,
                "throttles": self.throttle_counts.get(tenant.name, 0),
            }
        return rows
