"""Post-hoc trace analysis: the ``repro report <trace>`` subcommand.

Reads a Chrome trace-event JSON file produced by
:func:`repro.obs.export.write_chrome_trace` and prints, per run, the top
functions by energy, by queueing delay, and by deadline misses — the
"where did my p99 / my joules go" question the per-invocation spans were
recorded to answer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.obs.export import read_chrome_trace, run_of_pid


class TraceStats:
    """Per-function aggregates recovered from an exported trace file."""

    def __init__(self) -> None:
        #: run index → run display label.
        self.runs: Dict[int, str] = {}
        # (run, function) → aggregate.
        self.energy_j: Dict[Tuple[int, str], float] = defaultdict(float)
        self.queue_s: Dict[Tuple[int, str], float] = defaultdict(float)
        self.misses: Dict[Tuple[int, str], int] = defaultdict(int)
        self.completed: Dict[Tuple[int, str], int] = defaultdict(int)
        #: run → tenant → settled bill row (from ``tenant_bill`` instants).
        self.tenant_bills: Dict[int, Dict[str, dict]] = {}
        #: (run, tenant) → count of ``tenant_throttle`` instants.
        self.tenant_throttles: Dict[Tuple[int, str], int] = defaultdict(int)

    def top(self, table: Dict[Tuple[int, str], float], run: int,
            n: int) -> List[Tuple[str, float]]:
        ranked = sorted(
            ((fn, value) for (r, fn), value in table.items()
             if r == run and value > 0),
            key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    def tenant_rows(self, run: int) -> List[dict]:
        """Per-tenant bill rows for ``run``, biggest energy user first.

        A trace with throttle instants but no settled bill (the run was
        never settled) still gets rows so the throttles show up.
        """
        rows = {name: dict(row)
                for name, row in self.tenant_bills.get(run, {}).items()}
        for (r, tenant), count in self.tenant_throttles.items():
            if r != run:
                continue
            row = rows.setdefault(tenant, {
                "tenant": tenant, "energy_j": 0.0, "energy_share": 0.0,
                "cost_usd": 0.0, "throttles": 0})
            row["throttles"] = max(row.get("throttles", 0), count)
        return sorted(rows.values(),
                      key=lambda row: (-row["energy_j"], row["tenant"]))


def load_stats(path: str) -> TraceStats:
    """Aggregate one exported trace file into :class:`TraceStats`."""
    events, _, pid_names = read_chrome_trace(path)
    stats = TraceStats()
    # Invocation 'e' events carry the full measured breakdown in args;
    # queue-phase spans are reassembled from their b/e pairs.
    queue_begin: Dict[Tuple[int, int], float] = {}
    uid_function: Dict[Tuple[int, int], str] = {}
    for event in events:
        phase, cat = event.get("ph"), event.get("cat")
        if phase == "i":
            name = event.get("name")
            if name not in ("tenant_bill", "tenant_throttle"):
                continue
            run, label = run_of_pid(pid_names, event["pid"])
            stats.runs.setdefault(run, label)
            args = event.get("args", {})
            if name == "tenant_throttle":  # a decision: payload in inputs
                args = args.get("inputs", {})
            tenant = str(args.get("tenant", "?"))
            if name == "tenant_bill":
                stats.tenant_bills.setdefault(run, {})[tenant] = {
                    "tenant": tenant,
                    "energy_j": float(args.get("energy_j", 0.0)),
                    "energy_share": float(args.get("energy_share", 0.0)),
                    "cost_usd": float(args.get("cost_usd", 0.0)),
                    "throttles": int(args.get("throttles", 0)),
                }
            else:
                stats.tenant_throttles[(run, tenant)] += 1
            continue
        if phase not in ("b", "e"):
            continue
        run, label = run_of_pid(pid_names, event["pid"])
        stats.runs.setdefault(run, label)
        key = (run, event["id"])
        if cat == "invocation":
            if phase == "b":
                uid_function[key] = event["name"]
            else:
                args = event.get("args", {})
                if args.get("status") != "completed" or args.get("prewarm"):
                    continue
                function = event["name"]
                stats.completed[(run, function)] += 1
                stats.energy_j[(run, function)] += float(
                    args.get("energy_j", 0.0))
                if not args.get("met_deadline", True):
                    stats.misses[(run, function)] += 1
        elif cat == "phase" and event["name"] == "queue":
            if phase == "b":
                queue_begin[key] = event["ts"]
            else:
                t0 = queue_begin.pop(key, None)
                if t0 is not None:
                    function = uid_function.get(key, "?")
                    stats.queue_s[(run, function)] += (
                        (event["ts"] - t0) / 1e6)
    return stats


def format_report(stats: TraceStats, top_n: int = 10) -> str:
    lines: List[str] = []
    for run in sorted(stats.runs):
        label = stats.runs[run]
        total = sum(count for (r, _), count in stats.completed.items()
                    if r == run)
        lines.append(f"== run {run} ({label}): {total} completed"
                     f" invocations ==")
        sections = (
            ("top functions by energy", stats.energy_j, "J", "{:.1f}"),
            ("top functions by queueing delay", stats.queue_s, "s",
             "{:.3f}"),
            ("top functions by deadline misses", stats.misses, "",
             "{:.0f}"),
        )
        for title, table, unit, fmt in sections:
            ranked = stats.top(table, run, top_n)
            lines.append(f"-- {title} --")
            if not ranked:
                lines.append("   (none)")
                continue
            width = max(len(fn) for fn, _ in ranked)
            for function, value in ranked:
                lines.append(f"   {function.ljust(width)}"
                             f"  {fmt.format(value)}{unit}")
        tenants = stats.tenant_rows(run)
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


def stats_to_dict(stats: TraceStats, top_n: int = 10) -> dict:
    """The report as a JSON-serializable document (``--format json``)."""
    runs = []
    for run in sorted(stats.runs):
        completed = sum(count for (r, _), count in stats.completed.items()
                        if r == run)
        runs.append({
            "run": run,
            "label": stats.runs[run],
            "completed_invocations": completed,
            "top_energy_j": [
                {"function": fn, "energy_j": value}
                for fn, value in stats.top(stats.energy_j, run, top_n)],
            "top_queueing_s": [
                {"function": fn, "queue_s": value}
                for fn, value in stats.top(stats.queue_s, run, top_n)],
            "top_deadline_misses": [
                {"function": fn, "misses": int(value)}
                for fn, value in stats.top(stats.misses, run, top_n)],
            "tenants": stats.tenant_rows(run),
        })
    return {"source": "repro.obs.report", "runs": runs}


def report(path: str, top_n: int = 10, fmt: str = "text") -> str:
    """Load ``path`` and render the report as text or JSON."""
    stats = load_stats(path)
    if fmt == "json":
        return json.dumps(stats_to_dict(stats, top_n), indent=1,
                          sort_keys=True) + "\n"
    return format_report(stats, top_n)
