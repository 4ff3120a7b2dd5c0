"""Unit coverage for repro.tenancy: config, windows, ladder, billing."""

import pytest

from repro.hardware.frequency import HASWELL_LEVELS_GHZ, FrequencyScale
from repro.obs.registry import LEDGER_COMPONENTS
from repro.tenancy import (
    UNATTRIBUTED,
    EnergyBudgetWindow,
    PowerCapConfig,
    TenancyConfig,
    TenantRegistry,
    TenantSpec,
    bill_from_breakdown,
    jain_index,
)
from repro.tenancy import billing
from repro.tenancy.registry import UNOWNED


def two_tenants():
    return TenancyConfig(tenants=(
        TenantSpec("slo", ("WebServ", "ImgProc"), budget_j=100.0,
                   window_s=5.0),
        TenantSpec("batch", ("MLTrain",), budget_j=50.0, window_s=5.0,
                   best_effort=True),
    ))


class TestConfigValidation:
    def test_tenant_needs_benchmarks(self):
        with pytest.raises(ValueError, match="owns no benchmarks"):
            TenantSpec("empty")

    def test_duplicate_benchmark_within_tenant(self):
        with pytest.raises(ValueError, match="twice"):
            TenantSpec("t", ("A", "A"))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget_j"):
            TenantSpec("t", ("A",), budget_j=0.0)

    def test_benchmark_owned_once_across_tenants(self):
        with pytest.raises(ValueError, match="owned by both"):
            TenancyConfig(tenants=(TenantSpec("a", ("X",)),
                                   TenantSpec("b", ("X",))))

    def test_duplicate_tenant_names(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            TenancyConfig(tenants=(TenantSpec("a", ("X",)),
                                   TenantSpec("a", ("Y",))))

    def test_prices_name_only_ledger_components(self):
        assert set(billing.USD_PER_MJ) <= set(LEDGER_COMPONENTS)
        assert all(price >= 0 for price in billing.USD_PER_MJ.values())

    def test_pricing_default_rate(self, monkeypatch):
        monkeypatch.setattr(billing, "USD_PER_MJ", {"run": 0.5})
        monkeypatch.setattr(billing, "DEFAULT_USD_PER_MJ", 0.1)
        assert billing.price("run") == 0.5
        assert billing.price("idle") == 0.1
        assert billing.cost_usd("run", 2e6) == pytest.approx(1.0)


class TestEnergyBudgetWindow:
    def test_charges_expire_after_window(self):
        window = EnergyBudgetWindow(5.0)
        window.charge(0.0, 10.0)
        window.charge(3.0, 20.0)
        assert window.used_j(4.0) == pytest.approx(30.0)
        assert window.used_j(5.5) == pytest.approx(20.0)
        assert window.used_j(8.5) == pytest.approx(0.0)
        assert window.lifetime_j == pytest.approx(30.0)

    def test_non_positive_charges_ignored(self):
        window = EnergyBudgetWindow(5.0)
        window.charge(0.0, 0.0)
        window.charge(0.0, -1.0)
        assert window.used_j(0.0) == 0.0
        assert window.lifetime_j == 0.0


class TestTenantRegistry:
    def test_mapping_and_unowned(self):
        registry = TenantRegistry(two_tenants())
        assert registry.tenant_name_of("WebServ") == "slo"
        assert registry.tenant_name_of("MLTrain") == "batch"
        assert registry.tenant_name_of("Mystery") == UNOWNED
        assert registry.tenant_name_of(None) == UNOWNED

    def test_unowned_charges_accumulate_separately(self):
        registry = TenantRegistry(two_tenants())
        registry.charge("Mystery", 0.0, 7.0)
        assert registry.unowned_j == pytest.approx(7.0)
        assert registry.used_j("slo", 0.0) == 0.0

    def test_over_budget_requires_exceeding(self):
        registry = TenantRegistry(two_tenants())
        registry.charge("WebServ", 0.0, 100.0)
        assert registry.over_budget("WebServ", 0.0) is None
        registry.charge("ImgProc", 0.0, 0.5)
        over = registry.over_budget("WebServ", 0.0)
        assert over is not None and over.name == "slo"
        # Expiry clears the verdict.
        assert registry.over_budget("WebServ", 100.0) is None

    def test_unmetered_tenant_never_over_budget(self):
        registry = TenantRegistry(TenancyConfig(tenants=(
            TenantSpec("free", ("A",)),)))
        registry.charge("A", 0.0, 1e9)
        assert registry.over_budget("A", 0.0) is None

    def test_snapshot_reports_budget_state(self):
        registry = TenantRegistry(two_tenants())
        registry.charge("MLTrain", 0.0, 60.0)
        registry.record_throttle("batch")
        rows = registry.snapshot(0.0)
        assert rows["batch"]["over_budget"] is True
        assert rows["batch"]["throttles"] == 1
        assert rows["slo"]["over_budget"] is False


class TestGovernorLadder:
    """Pure ladder geometry, on a governor wired to a stub cluster."""

    def make(self, **kwargs):
        from repro.tenancy.governor import PowerCapGovernor

        class StubEnv:
            now = 0.0

        class StubClusterConfig:
            scale = FrequencyScale()

        class StubCluster:
            env = StubEnv()
            config = StubClusterConfig()
            servers = ()
            nodes = ()
        return PowerCapGovernor(StubCluster(),
                                PowerCapConfig(**kwargs))

    def test_ceiling_descends_the_scale(self):
        governor = self.make(cap_w=100.0)
        assert governor.freq_ceiling_ghz() is None
        levels = list(reversed(HASWELL_LEVELS_GHZ[:-1]))
        for steps, expected in enumerate(levels, start=1):
            governor.steps = steps
            assert governor.freq_ceiling_ghz() == pytest.approx(expected)

    def test_core_fraction_engages_after_freq_steps(self):
        governor = self.make(cap_w=100.0)
        governor.steps = governor._freq_steps
        assert governor.core_fraction() == 1.0
        governor.steps = governor._freq_steps + 2
        assert governor.core_fraction() == pytest.approx(0.75)
        governor.steps = governor.max_steps
        assert governor.core_fraction() == pytest.approx(0.25)

    def test_capped_cores_floor_is_one(self):
        governor = self.make(cap_w=100.0)
        governor.steps = governor.max_steps
        assert governor.capped_cores(20) == 5
        assert governor.capped_cores(1) == 1

    def test_clamp_only_lowers(self):
        governor = self.make(cap_w=100.0)
        governor.steps = 2
        ceiling = governor.freq_ceiling_ghz()
        assert governor.clamp(3.0) == pytest.approx(ceiling)
        assert governor.clamp(1.2) == pytest.approx(1.2)
        assert governor.clamp(None) is None


class TestStepDown:
    def test_step_down_clamps_at_min(self):
        scale = FrequencyScale()
        assert scale.step_down(3.0) == pytest.approx(2.7)
        assert scale.step_down(3.0, steps=100) == pytest.approx(1.2)
        assert scale.step_down(1.2) == pytest.approx(1.2)

    def test_step_down_rejects_negative(self):
        with pytest.raises(ValueError):
            FrequencyScale().step_down(3.0, steps=-1)


class TestJainIndex:
    def test_even_shares_are_fair(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_one_party_takes_everything(self):
        assert jain_index([9.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_empty_and_zero_are_fair_by_definition(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0


class TestBilling:
    def breakdown(self):
        return {
            "WebServ": {"run": 10.0, "cold_start": 2.0},
            "MLTrain": {"run": 30.0, "retry_waste": 6.0},
            UNATTRIBUTED: {"idle": 12.0, "static": 4.0},
        }

    def tenant_of(self, benchmark):
        return {"WebServ": "slo", "MLTrain": "batch"}[benchmark]

    def test_billed_joules_conserve_the_total(self):
        document = bill_from_breakdown(self.breakdown(), self.tenant_of)
        total = 10.0 + 2.0 + 30.0 + 6.0 + 12.0 + 4.0
        assert document["total_j"] == pytest.approx(total, abs=1e-9)
        assert sum(row["energy_j"] for row in document["tenants"]) \
            == pytest.approx(total, abs=1e-9)

    def test_unattributed_spread_follows_consumption(self):
        document = bill_from_breakdown(self.breakdown(), self.tenant_of)
        rows = {row["tenant"]: row for row in document["tenants"]}
        # batch consumed 36 of 48 attributed joules -> 3/4 of the spread.
        assert rows["batch"]["by_component_j"]["idle"] \
            == pytest.approx(9.0)
        assert rows["slo"]["by_component_j"]["idle"] == pytest.approx(3.0)
        assert UNATTRIBUTED not in rows

    def test_component_prices_differ(self):
        document = bill_from_breakdown(self.breakdown(), self.tenant_of)
        rows = {row["tenant"]: row for row in document["tenants"]}
        waste = rows["batch"]["by_component_usd"]["retry_waste"]
        assert waste == pytest.approx(billing.cost_usd("retry_waste", 6.0))
        assert billing.price("retry_waste") > billing.price("run") \
            > billing.price("static")

    def test_nothing_attributed_keeps_own_row(self):
        document = bill_from_breakdown(
            {UNATTRIBUTED: {"static": 5.0}}, self.tenant_of)
        rows = {row["tenant"]: row for row in document["tenants"]}
        assert rows[UNATTRIBUTED]["energy_j"] == pytest.approx(5.0)

    def test_every_component_keyed(self):
        document = bill_from_breakdown(self.breakdown(), self.tenant_of)
        for row in document["tenants"]:
            assert set(row["by_component_j"]) == set(LEDGER_COMPONENTS)
