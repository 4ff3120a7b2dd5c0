"""The energy-attribution ledger: where every joule of a run went.

The hardware energy model accrues joules into coarse meter components
(active cores, idle cores, uncore, DRAM, DVFS overhead). The ledger
records the *same* accrual events as timestamped entries tagged with
their full context — (node, pool, benchmark, function, job) — and then
classifies each entry into the component taxonomy of
:data:`repro.obs.registry.LEDGER_COMPONENTS`:

``run``, ``block``, ``cold_start``, ``idle``, ``freq_switch``,
``retry_waste``, ``cancelled``, ``doomed``, ``shed``, ``static``.

Classification is retrospective: whether an active segment was
productive work, a retry that later lost its race, or effort for a
workflow that ultimately failed is only known once the run finishes, so
:meth:`EnergyLedger.close_run` resolves raw entries against the final
job states and the tracer's workflow spans/links.

Because every ``EnergyMeter.add`` in the hardware layer is mirrored by
exactly one ledger entry with the same joules, the classified components
sum to the hardware model's total by construction; :meth:`close_run`
asserts this within a 1e-6 relative tolerance and raises
:class:`EnergyConservationError` otherwise.

The ledger is opt-in (attach one via ``Tracer(ledger=EnergyLedger())``)
and read-only with respect to the simulation: runs with and without a
ledger are bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.registry import LEDGER_COMPONENTS

#: Raw accrual kinds recorded by the hardware hooks, before
#: classification. The mapping of the unambiguous ones:
_DIRECT = {
    "idle": "idle",
    "blocked_hold": "block",
    "freq_switch": "freq_switch",
    "static": "static",
}


class EnergyConservationError(AssertionError):
    """The classified components do not sum to the hardware total."""


@dataclass
class LedgerEntry:
    """One energy accrual event, tagged with its full context."""

    run: int
    t0: float
    t1: float
    joules: float
    raw: str                      # accrual kind (see _DIRECT + active_*)
    node: str = ""
    pool: Optional[str] = None
    benchmark: Optional[str] = None
    function: Optional[str] = None
    uid: Optional[int] = None
    #: Final component, resolved by close_run().
    component: Optional[str] = None
    #: Transient job reference for retrospective classification; dropped
    #: (set to None) once the entry is classified.
    job: Any = None


@dataclass
class ConservationReport:
    """The per-run validation outcome of the ledger."""

    run: int
    label: str
    hardware_j: float
    ledger_j: float
    rel_error: float
    by_component: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rel_error <= EnergyLedger.TOLERANCE


class EnergyLedger:
    """Accumulates and classifies energy accrual events across runs."""

    #: Relative conservation tolerance (components vs. hardware total).
    TOLERANCE = 1e-6

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []
        self.reports: List[ConservationReport] = []
        self.run_labels: List[str] = []
        self.tracer = None
        self._run = 0

    def attach(self, tracer) -> None:
        """Called by :class:`~repro.obs.tracer.Tracer` on construction."""
        self.tracer = tracer

    def begin_run(self, run: int, label: str) -> None:
        self._run = run
        while len(self.run_labels) <= run:
            self.run_labels.append(label)
        self.run_labels[run] = label

    # ------------------------------------------------------------------
    # Recording (called from the hardware accrual points)
    # ------------------------------------------------------------------
    def record_core(self, core, t0: float, t1: float, joules: float,
                    raw: str, job: Any = None) -> None:
        """One closed core accounting segment (idle/active/transition)."""
        if joules <= 0:
            return
        # float() strips numpy scalar types so summaries stay
        # json-serializable (np.float64 comparisons yield np.bool_).
        entry = LedgerEntry(
            run=self._run, t0=float(t0), t1=float(t1),
            joules=float(joules), raw=raw,
            node=getattr(core, "track", "") or f"core{core.core_id}",
            pool=getattr(core, "pool", None), job=job)
        if job is not None:
            entry.benchmark = getattr(job, "benchmark", None)
            entry.function = getattr(job, "function_name", None)
            entry.uid = getattr(job, "job_id", None)
        self.entries.append(entry)

    def record_static(self, node: str, t0: float, t1: float,
                      joules: float) -> None:
        """Background (uncore + DRAM standby) energy of one server."""
        if joules <= 0:
            return
        self.entries.append(LedgerEntry(
            run=self._run, t0=float(t0), t1=float(t1),
            joules=float(joules), raw="static", node=node))

    # ------------------------------------------------------------------
    # Classification + validation
    # ------------------------------------------------------------------
    def close_run(self, cluster) -> ConservationReport:
        """Classify this run's entries and validate conservation.

        Call after the cluster has been finalized (all meters accrued).
        Raises :class:`EnergyConservationError` when the components do
        not sum to ``cluster.total_energy_j`` within the tolerance.
        """
        run = self._run
        shed_uids = self._workflow_jobs(run, "failed")
        doomed_uids = self._workflow_jobs(run, "doomed")
        ledger_j = 0.0
        by_component = {c: 0.0 for c in LEDGER_COMPONENTS}
        for entry in self.entries:
            if entry.run != run:
                continue
            if entry.component is None:
                entry.component = self._classify(entry, shed_uids,
                                                 doomed_uids)
                entry.job = None
            ledger_j += entry.joules
            by_component[entry.component] += entry.joules
        hardware_j = float(cluster.total_energy_j)
        rel_error = (abs(hardware_j - ledger_j)
                     / max(abs(hardware_j), 1e-12))
        label = (self.run_labels[run] if run < len(self.run_labels)
                 else "run")
        report = ConservationReport(
            run=run, label=label, hardware_j=hardware_j,
            ledger_j=ledger_j, rel_error=rel_error,
            by_component=by_component)
        self.reports.append(report)
        if rel_error > self.TOLERANCE:
            raise EnergyConservationError(
                f"run {run} ({label}): ledger components sum to"
                f" {ledger_j:.6f} J but the hardware meters total"
                f" {hardware_j:.6f} J (relative error {rel_error:.3g}"
                f" > {self.TOLERANCE:g})")
        return report

    def _workflow_jobs(self, run: int, status: str) -> set:
        """Job uids of workflows that ended with ``status``.

        ``failed`` → shed work; ``doomed`` (repro.cancel wrote the chain
        off mid-flight) → the ``doomed`` bucket.
        """
        if self.tracer is None:
            return set()
        matched = {span.uid for span in self.tracer.spans
                   if span.kind == "workflow" and span.run == run
                   and span.args.get("status") == status}
        if not matched:
            return set()
        return {job for (r, wf, job) in self.tracer.wf_links
                if r == run and wf in matched}

    @staticmethod
    def _classify(entry: LedgerEntry, shed_uids: set,
                  doomed_uids: set) -> str:
        direct = _DIRECT.get(entry.raw)
        if direct is not None:
            return direct
        job = entry.job
        if job is not None and getattr(job, "cancelled", False):
            # Killed by the cancel layer: these joules were already
            # burned when the kill landed (the reclaimed remainder never
            # becomes an entry at all).
            return "cancelled"
        wasted = job is not None and (getattr(job, "aborted", False)
                                      or getattr(job, "abandoned", False))
        if wasted:
            return "retry_waste"
        if entry.raw == "active_setup" or (
                job is not None and getattr(job, "is_prewarm", False)):
            return "cold_start"
        if entry.uid is not None and entry.uid in doomed_uids:
            return "doomed"
        if entry.uid is not None and entry.uid in shed_uids:
            return "shed"
        return "run"

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _closed(self, run: Optional[int] = None) -> List[LedgerEntry]:
        return [e for e in self.entries if e.component is not None
                and (run is None or e.run == run)]

    def by_component(self, run: Optional[int] = None) -> Dict[str, float]:
        totals = {c: 0.0 for c in LEDGER_COMPONENTS}
        for entry in self._closed(run):
            totals[entry.component] += entry.joules
        return totals

    def _by_key(self, key, run: Optional[int]) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for entry in self._closed(run):
            name = key(entry)
            if name is None:
                continue
            totals[name] = totals.get(name, 0.0) + entry.joules
        return dict(sorted(totals.items(),
                           key=lambda item: (-item[1], item[0])))

    def by_node(self, run: Optional[int] = None) -> Dict[str, float]:
        return self._by_key(lambda e: e.node or None, run)

    def by_pool(self, run: Optional[int] = None) -> Dict[str, float]:
        return self._by_key(lambda e: e.pool, run)

    def by_benchmark(self, run: Optional[int] = None) -> Dict[str, float]:
        return self._by_key(lambda e: e.benchmark, run)

    def by_function(self, run: Optional[int] = None) -> Dict[str, float]:
        return self._by_key(lambda e: e.function, run)

    #: Rollup key for entries no benchmark can be charged for (idle
    #: cores, static background power, idle-pool retunes).
    UNATTRIBUTED = "(unattributed)"

    def by_benchmark_component(self, run: Optional[int] = None
                               ) -> Dict[str, Dict[str, float]]:
        """Joules per (benchmark x component); the billing substrate.

        Entries without a benchmark land under :data:`UNATTRIBUTED`, so
        the nested values sum to the ledger total exactly — billing
        spreads that row rather than dropping it.
        """
        rows: Dict[str, Dict[str, float]] = {}
        for entry in self._closed(run):
            name = entry.benchmark or self.UNATTRIBUTED
            row = rows.setdefault(name, {c: 0.0 for c in LEDGER_COMPONENTS})
            row[entry.component] += entry.joules
        return dict(sorted(rows.items()))

    def by_tenant(self, tenant_of, run: Optional[int] = None
                  ) -> Dict[str, float]:
        """Joules per tenant, via a benchmark → tenant-name mapping.

        ``tenant_of`` is called with each attributed entry's benchmark
        (e.g. :meth:`TenantRegistry.tenant_name_of`); unattributable
        entries land under :data:`UNATTRIBUTED`. The values sum to the
        ledger total exactly (the tenancy conservation property).
        """
        totals: Dict[str, float] = {}
        for entry in self._closed(run):
            name = (tenant_of(entry.benchmark)
                    if entry.benchmark is not None else self.UNATTRIBUTED)
            totals[name] = totals.get(name, 0.0) + entry.joules
        return dict(sorted(totals.items(),
                           key=lambda item: (-item[1], item[0])))

    def epoch_component_j(self, run: int, n_epochs: int,
                          epoch_s: float) -> List[Dict[str, float]]:
        """Per-epoch joules per component, pro-rated by time overlap.

        An entry spanning an epoch boundary contributes to each epoch in
        proportion to its overlap, so the per-epoch rows sum to the run
        totals exactly (conservation holds over the whole series).
        """
        rows = [{c: 0.0 for c in LEDGER_COMPONENTS}
                for _ in range(n_epochs)]
        span_end = n_epochs * epoch_s
        for entry in self._closed(run):
            t0 = max(0.0, min(entry.t0, span_end))
            t1 = max(0.0, min(entry.t1, span_end))
            if t1 <= t0:
                # Degenerate (instantaneous or out-of-range): bin whole.
                e = max(0, min(n_epochs - 1, int(t0 / epoch_s)))
                rows[e][entry.component] += entry.joules
                continue
            first = max(0, min(n_epochs - 1, int(t0 / epoch_s)))
            last = max(0, min(n_epochs - 1, int((t1 - 1e-12) / epoch_s)))
            duration = entry.t1 - entry.t0
            for e in range(first, last + 1):
                lo = max(t0, e * epoch_s)
                hi = min(t1, (e + 1) * epoch_s)
                share = max(0.0, hi - lo) / duration
                rows[e][entry.component] += entry.joules * share
        return rows

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A JSON-serializable rollup of every closed run."""
        runs = []
        for report in self.reports:
            run = report.run
            runs.append({
                "run": run,
                "label": report.label,
                "hardware_j": report.hardware_j,
                "ledger_j": report.ledger_j,
                "rel_error": report.rel_error,
                "conserved": report.ok,
                "by_component": {c: report.by_component.get(c, 0.0)
                                 for c in LEDGER_COMPONENTS},
                "by_node": self.by_node(run),
                "by_pool": self.by_pool(run),
                "by_benchmark": self.by_benchmark(run),
                "by_function": self.by_function(run),
                "by_benchmark_component": self.by_benchmark_component(run),
            })
        return {
            "source": "repro.obs.ledger (EcoFaaS reproduction)",
            "components": list(LEDGER_COMPONENTS),
            "tolerance": self.TOLERANCE,
            "runs": runs,
        }

    def write(self, path: str) -> Dict[str, Any]:
        document = self.summary()
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return document
