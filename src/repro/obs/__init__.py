"""repro.obs — invocation-lifecycle tracing, attribution, and telemetry.

A zero-overhead-when-disabled observability subsystem: the platform is
threaded with hooks that dispatch through ``Environment.trace`` (the
shared :data:`~repro.obs.tracer.NULL_TRACER` by default). Installing a
real :class:`~repro.obs.tracer.Tracer` — via :func:`install` for the
experiment harness, or ``tracer.bind(env)`` directly — records typed
span/instant/counter streams that export to Perfetto-loadable Chrome
trace JSON, per-epoch metrics time series, and plain-text summaries.

v2 adds, all equally opt-in and determinism-safe:

* :class:`~repro.obs.ledger.EnergyLedger` — per-joule attribution into
  run / block / cold-start / idle / freq-switch / retry-waste / shed /
  static components, validated against the hardware meters;
* :class:`~repro.obs.audit.AuditLog` — the one emission of every
  control-plane decision: a structured "why" record written to the
  JSONL log and, on traced runs, to the trace as a decision instant
  (install via :func:`install_audit`; traced runs bind one anyway);
* :class:`~repro.obs.burnrate.BurnRateMonitor` — per-benchmark SLO
  burn-rate alerting on deterministic log-bucket histograms;
* :mod:`~repro.obs.explain` — ranked root causes for missed-SLO
  workflows from the exported trace.

The reproduction's own wall time is measured from outside, by the
end-to-end benchmark in ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.audit import AuditLog, AuditRecord
from repro.obs.burnrate import (
    BurnRateConfig,
    BurnRateMonitor,
    LogBucketHistogram,
)
from repro.obs.diff import diff_documents, format_diff
from repro.obs.explain import explain, format_explanation, load_explain_data
from repro.obs.export import (
    RUN_FILES,
    chrome_trace_events,
    epoch_rows,
    queueing_by_function,
    run_summary,
    write_chrome_trace,
    write_epoch_metrics,
    write_run,
)
from repro.obs.fingerprint import (
    FingerprintRecorder,
    canon,
    canonical_json,
    cluster_fingerprint,
    digest,
)
from repro.obs.ledger import EnergyConservationError, EnergyLedger
from repro.obs.registry import (
    EPOCH_INSTANT_COLUMNS,
    LEDGER_COMPONENTS,
    LEDGER_EPOCH_COLUMNS,
)
from repro.obs.report import report
from repro.obs.tracer import (
    NULL_TRACER,
    CounterRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)
from repro.obs.validate import validate_events

__all__ = [
    "EPOCH_INSTANT_COLUMNS",
    "LEDGER_COMPONENTS",
    "LEDGER_EPOCH_COLUMNS",
    "NULL_TRACER",
    "RUN_FILES",
    "AuditLog",
    "AuditRecord",
    "BurnRateConfig",
    "BurnRateMonitor",
    "CounterRecord",
    "EnergyConservationError",
    "EnergyLedger",
    "FingerprintRecorder",
    "InstantRecord",
    "LogBucketHistogram",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "active_audit",
    "active_tracer",
    "canon",
    "canonical_json",
    "chrome_trace_events",
    "cluster_fingerprint",
    "diff_documents",
    "digest",
    "epoch_rows",
    "explain",
    "format_diff",
    "format_explanation",
    "install",
    "install_audit",
    "load_explain_data",
    "queueing_by_function",
    "report",
    "run_summary",
    "uninstall",
    "uninstall_audit",
    "validate_events",
    "write_chrome_trace",
    "write_epoch_metrics",
    "write_run",
]

#: The process-wide tracer the experiment harness attaches to every
#: cluster it builds (None = tracing disabled).
_active: Optional[Tracer] = None

#: The process-wide audit log, same lifecycle as the tracer.
_active_audit: Optional[AuditLog] = None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the active tracer for subsequent experiment runs."""
    global _active
    _active = tracer
    return tracer


def uninstall() -> None:
    """Disable experiment tracing (does not clear recorded data)."""
    global _active
    _active = None


def active_tracer() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is disabled."""
    return _active


def install_audit(audit: AuditLog) -> AuditLog:
    """Make ``audit`` the active decision log for subsequent runs (the
    one a traced run writes its decision instants through)."""
    global _active_audit
    _active_audit = audit
    return audit


def uninstall_audit() -> None:
    """Disable decision auditing (does not clear recorded data)."""
    global _active_audit
    _active_audit = None


def active_audit() -> Optional[AuditLog]:
    """The installed audit log, or None when auditing is disabled."""
    return _active_audit
