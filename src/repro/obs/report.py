"""Post-hoc trace analysis: the ``repro report <run-dir>`` subcommand.

Ranks, per run of a tracer's records — a run directory's trace read back
with :func:`repro.obs.export.read_chrome_trace` — the top functions by
energy, by queueing delay, and by deadline misses: the "where did my p99
/ my joules go" question the per-invocation spans were recorded to
answer.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.obs.export import _top_functions, spans_by_run, top_queueing
from repro.obs.tracer import SpanRecord, Tracer


def _completed(value):
    """A :func:`_top_functions` key counting completed invocations only."""
    def key(span: SpanRecord):
        if span.args.get("status") != "completed":
            return None
        return value(span)
    return key


def tenant_rows(tracer: Tracer, run: int) -> List[dict]:
    """Per-tenant bill rows for ``run``, biggest energy user first.

    The rows come from ``tenant_bill`` instants; a run with throttle
    instants but no settled bill (the run was never settled) still gets
    rows so the throttles show up.
    """
    rows: Dict[str, dict] = {}
    throttles: Dict[str, int] = {}
    for inst in tracer.instants:
        if inst.run != run:
            continue
        if inst.name == "tenant_bill":
            tenant = str(inst.args.get("tenant", "?"))
            rows[tenant] = {
                "tenant": tenant,
                "energy_j": float(inst.args.get("energy_j", 0.0)),
                "energy_share": float(inst.args.get("energy_share", 0.0)),
                "cost_usd": float(inst.args.get("cost_usd", 0.0)),
                "throttles": int(inst.args.get("throttles", 0)),
            }
        elif inst.name == "tenant_throttle":  # a decision: payload in inputs
            tenant = str(inst.args.get("inputs", {}).get("tenant", "?"))
            throttles[tenant] = throttles.get(tenant, 0) + 1
    for tenant, count in throttles.items():
        row = rows.setdefault(tenant, {
            "tenant": tenant, "energy_j": 0.0, "energy_share": 0.0,
            "cost_usd": 0.0, "throttles": 0})
        row["throttles"] = max(row["throttles"], count)
    return sorted(rows.values(),
                  key=lambda row: (-row["energy_j"], row["tenant"]))


def report_to_dict(tracer: Tracer, top_n: int = 10) -> dict:
    """The report as a JSON-serializable document (``--format json``)."""
    runs = []
    grouped = spans_by_run(tracer)
    for run, label in enumerate(tracer.run_labels):
        invocations, queues = grouped[run]
        rankings = (
            ("top_energy_j", "energy_j", float, _top_functions(
                invocations, _completed(
                    lambda s: float(s.args.get("energy_j", 0.0))), top_n)),
            ("top_queueing_s", "queue_s", float,
             top_queueing(invocations, queues, top_n)),
            ("top_deadline_misses", "misses", int, _top_functions(
                invocations, _completed(
                    lambda s: float(not s.args.get("met_deadline", True))),
                top_n)))
        entry = {
            "run": run,
            "label": label,
            "completed_invocations": sum(
                1 for s in invocations
                if s.args.get("status") == "completed"
                and not s.args.get("prewarm")),
            "tenants": tenant_rows(tracer, run),
        }
        for key, column, cast, ranked in rankings:
            entry[key] = [{"function": fn, column: cast(value)}
                          for fn, value in ranked if value > 0]
        runs.append(entry)
    return {"source": "repro.obs.report", "runs": runs}


def format_report(document: dict) -> str:
    """The text form of a :func:`report_to_dict` document."""
    lines: List[str] = []
    for entry in document["runs"]:
        lines.append(f"== run {entry['run']} ({entry['label']}):"
                     f" {entry['completed_invocations']} completed"
                     f" invocations ==")
        sections = (
            ("energy", "top_energy_j", "energy_j", "J", "{:.1f}"),
            ("queueing delay", "top_queueing_s", "queue_s", "s", "{:.3f}"),
            ("deadline misses", "top_deadline_misses", "misses", "",
             "{:.0f}"),
        )
        for title, key, column, unit, fmt in sections:
            lines.append(f"-- top functions by {title} --")
            rows = entry[key]
            if not rows:
                lines.append("   (none)")
                continue
            width = max(len(row["function"]) for row in rows)
            for row in rows:
                lines.append(f"   {row['function'].ljust(width)}"
                             f"  {fmt.format(row[column])}{unit}")
        tenants = entry["tenants"]
        if tenants:  # section only exists when the run was multi-tenant
            lines.append("-- tenants (energy share / billed cost /"
                         " throttles) --")
            width = max(len(row["tenant"]) for row in tenants)
            for row in tenants:
                lines.append(
                    f"   {row['tenant'].ljust(width)}"
                    f"  {row['energy_j']:10.1f}J"
                    f"  {row['energy_share'] * 100:5.1f}%"
                    f"  ${row['cost_usd']:.6f}"
                    f"  {row['throttles']} throttle"
                    f"{'s' if row['throttles'] != 1 else ''}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def report(tracer: Tracer, top_n: int = 10, fmt: str = "text") -> str:
    """Render the report of ``tracer``'s runs as text or JSON."""
    document = report_to_dict(tracer, top_n)
    if fmt == "json":
        return json.dumps(document, indent=1, sort_keys=True) + "\n"
    return format_report(document)
