"""Energy billing: price each tenant's joules instead of GB-seconds.

The bill starts from the energy ledger's per-(benchmark x component)
rollup. Entries attributable to a benchmark are charged to its owning
tenant directly; unattributable overhead (idle cores, background static
power, idle-pool retunes) is spread across tenants in proportion to
their attributed consumption — so the billed joules sum to the ledger
total by construction (the conservation property test pins this at
1e-6). Each ledger component is priced at its own $/MJ rate
(:data:`USD_PER_MJ`): productive ``run`` energy is the reference,
``cold_start`` is dearer, ``retry_waste`` dearest, spread overheads
cheapest.

The module also provides the Jain fairness index on energy share — the
``tenancy`` experiment's fairness metric.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.registry import LEDGER_COMPONENTS

#: The rollup key for ledger entries with no benchmark attribution.
UNATTRIBUTED = "(unattributed)"

#: Dollar prices per megajoule, by ledger component. Billing prices
#: *joules*, not GB-seconds: productive ``run`` energy is the reference
#: rate, ``cold_start`` energy is dearer (the platform burned it on the
#: tenant's behalf to meet latency), ``retry_waste`` dearest (it bought
#: nothing), and pro-rated overheads (``idle``, ``static``,
#: ``freq_switch``) cheapest: they are the cost of keeping the lights
#: on, spread over everyone.
USD_PER_MJ: Dict[str, float] = {
    "run": 0.20,
    "block": 0.10,
    "cold_start": 0.30,
    "idle": 0.06,
    "freq_switch": 0.06,
    "retry_waste": 0.40,
    "cancelled": 0.40,
    "doomed": 0.40,
    "shed": 0.40,
    "static": 0.04,
}
#: The price of a component missing from :data:`USD_PER_MJ`.
DEFAULT_USD_PER_MJ = 0.20


def price(component: str) -> float:
    """$/MJ for one ledger component."""
    return USD_PER_MJ.get(component, DEFAULT_USD_PER_MJ)


def cost_usd(component: str, joules: float) -> float:
    """Billed dollars for ``joules`` of one component."""
    return price(component) * joules / 1e6


def jain_index(values: List[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 = perfectly even shares; ``1/n`` = one party takes everything.
    Defined as 1.0 for empty or all-zero inputs (nothing to be unfair
    about).
    """
    total = sum(values)
    squares = sum(v * v for v in values)
    if not values or squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def bill_from_breakdown(
        by_benchmark_component: Dict[str, Dict[str, float]],
        tenant_of: Callable[[str], str]) -> Dict[str, object]:
    """Price a per-(benchmark x component) joule rollup by tenant.

    ``tenant_of`` maps a benchmark name to its tenant's name. Rows keyed
    :data:`UNATTRIBUTED` are spread across tenants proportionally to
    their attributed joules (or kept as their own row when nothing is
    attributed at all). Returns a JSON-serializable document.
    """
    tenants: Dict[str, Dict[str, float]] = {}
    spread_pool = {c: 0.0 for c in LEDGER_COMPONENTS}
    for benchmark, components in sorted(by_benchmark_component.items()):
        if benchmark == UNATTRIBUTED:
            for component, joules in components.items():
                spread_pool[component] += joules
            continue
        row = tenants.setdefault(
            tenant_of(benchmark), {c: 0.0 for c in LEDGER_COMPONENTS})
        for component, joules in components.items():
            row[component] += joules

    attributed = {name: sum(row.values()) for name, row in tenants.items()}
    attributed_total = sum(attributed.values())
    spread_total = sum(spread_pool.values())
    if spread_total > 0:
        if attributed_total > 0:
            for name, row in tenants.items():
                share = attributed[name] / attributed_total
                for component, joules in spread_pool.items():
                    row[component] += joules * share
        else:
            # Nothing ran: the overhead has no consumption to follow.
            tenants[UNATTRIBUTED] = dict(spread_pool)

    rows = []
    total_j = sum(sum(row.values()) for row in tenants.values())
    for name in sorted(tenants):
        row = tenants[name]
        energy_j = sum(row.values())
        cost_by_component = {
            component: cost_usd(component, joules)
            for component, joules in row.items()}
        rows.append({
            "tenant": name,
            "energy_j": energy_j,
            "energy_share": (energy_j / total_j) if total_j > 0 else 0.0,
            "by_component_j": {c: row.get(c, 0.0)
                               for c in LEDGER_COMPONENTS},
            "by_component_usd": cost_by_component,
            "cost_usd": sum(cost_by_component.values()),
        })
    return {
        "source": "repro.tenancy.billing (EcoFaaS reproduction)",
        "total_j": total_j,
        "total_usd": sum(row["cost_usd"] for row in rows),
        "jain_energy_share": jain_index(
            [row["energy_j"] for row in rows
             if row["tenant"] != UNATTRIBUTED]),
        "tenants": rows,
    }


def bill_ledger_run(ledger, tenant_of: Callable[[str], str],
                    run: Optional[int] = None) -> Dict[str, object]:
    """Bill one closed run of a live :class:`EnergyLedger`."""
    return bill_from_breakdown(ledger.by_benchmark_component(run),
                               tenant_of)


def format_bill(document: Dict[str, object]) -> str:
    """Render one bill document as a text table."""
    lines = ["== energy bill (joules priced per component) =="]
    header = (f"{'tenant':16s} {'energy_j':>12s} {'share':>7s}"
              f" {'run_j':>10s} {'cold_j':>10s} {'waste_j':>10s}"
              f" {'cost_usd':>10s}")
    lines.append(header)
    lines.append("-" * len(header))
    for row in document["tenants"]:
        components = row["by_component_j"]
        lines.append(
            f"{row['tenant']:16s} {row['energy_j']:12.1f}"
            f" {100.0 * row['energy_share']:6.1f}%"
            f" {components.get('run', 0.0):10.1f}"
            f" {components.get('cold_start', 0.0):10.1f}"
            f" {components.get('retry_waste', 0.0):10.1f}"
            f" {row['cost_usd']:10.6f}")
    lines.append("-" * len(header))
    lines.append(
        f"{'total':16s} {document['total_j']:12.1f} {'':7s}"
        f" {'':10s} {'':10s} {'':10s} {document['total_usd']:10.6f}")
    lines.append(
        f"Jain fairness index on energy share:"
        f" {document['jain_energy_share']:.4f}")
    return "\n".join(lines) + "\n"
