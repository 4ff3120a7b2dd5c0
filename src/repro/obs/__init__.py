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
* :mod:`~repro.obs.audit` — every control-plane decision as a
  structured "why" record: one trace instant per decision
  (:meth:`~repro.obs.tracer.Tracer.decision`), which a run directory
  also renders as ``audit.jsonl``;
* :class:`~repro.obs.burnrate.BurnRateMonitor` — per-benchmark SLO
  burn-rate alerting on deterministic log-bucket histograms;
* :mod:`~repro.obs.explain` — ranked root causes for missed-SLO
  workflows from a run's trace, read back into the tracer's records.

The reproduction's own wall time is measured from outside, by the
end-to-end benchmark in ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.audit import AuditLog
from repro.obs.burnrate import BurnRateMonitor, LogBucketHistogram
from repro.obs.diff import diff_documents, format_diff
from repro.obs.explain import explain, format_explanation
from repro.obs.export import (
    RUN_FILES,
    chrome_trace_events,
    epoch_rows,
    queueing_by_function,
    read_chrome_trace,
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
    "queueing_by_function",
    "read_chrome_trace",
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
    """Bind ``audit`` to the installed tracer, whose decisions its
    :meth:`~repro.obs.audit.AuditLog.write` renders. The benchmark
    harness in ``bench/`` records ``audit.jsonl`` this way; everything
    else writes it with :func:`write_run`."""
    if _active is None:
        raise RuntimeError("install_audit needs an installed tracer")
    audit.tracer = _active
    return audit


def uninstall_audit() -> None:
    """Kept for the benchmark harness in ``bench/``: a bound log records
    nothing itself, so there is nothing to detach."""
