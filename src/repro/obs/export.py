"""Trace exporters: Perfetto-loadable Chrome JSON, epoch metrics, summary.

Three views of one :class:`~repro.obs.tracer.Tracer`, plus the run
directory that holds them:

* :func:`write_chrome_trace` — the Chrome trace-event format (open the
  file at https://ui.perfetto.dev): one process per run and node, one
  thread per core pool, async tracks for invocation/workflow spans, and
  counter tracks for pool sizes, per-node power draw, and EWT;
  :func:`read_chrome_trace` validates it and reads it back for
  ``repro report``, ``repro explain`` and ``repro diff``;
* :func:`epoch_rows` / :func:`write_epoch_metrics` — a per-epoch
  (``T_refresh``-granularity) metrics time series as CSV: energy,
  p50/p99, SLO violations, pool occupancy, retry counters;
* :func:`run_summary` — a plain-text rollup per run;
* :func:`write_run` — one recorded run as a directory of
  :data:`RUN_FILES`: the trace, the epoch metrics, the energy ledger,
  the decision audit log and the fingerprints with their manifest.

Everything here is pure stdlib and fully deterministic: identical traces
serialize to identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import (EPOCH_INSTANT_COLUMNS, LEDGER_COMPONENTS,
                                LEDGER_EPOCH_COLUMNS)
from repro.obs.tracer import Tracer
from repro.obs.validate import validate_events

#: The file names of a run directory (``repro <experiment> --out DIR``),
#: the one layout every writer and every consumer uses.
TRACE_FILE = "trace.json"
EPOCHS_FILE = "epochs.csv"
LEDGER_FILE = "ledger.json"
AUDIT_FILE = "audit.jsonl"
FINGERPRINTS_FILE = "fingerprints.json"
RUN_FILES = (TRACE_FILE, EPOCHS_FILE, LEDGER_FILE, AUDIT_FILE,
             FINGERPRINTS_FILE)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def _process_of(track: str) -> str:
    """Group a track into its owning process (node, frontend, faults).

    Pool names carry their node as an ``@<server_id>`` suffix; node-level
    tracks are already named ``node<i>``; anything else lands in the
    cluster-wide process.
    """
    if track.startswith("node") and track[4:].isdigit():
        return track
    if "@" in track:
        suffix = track.rsplit("@", 1)[1]
        if suffix.isdigit():
            return f"node{suffix}"
    if track in ("frontend", "faults"):
        return track
    return "cluster"


class _TrackMap:
    """Deterministic (run, process) → pid and (pid, track) → tid mapping."""

    def __init__(self) -> None:
        self._pids: Dict[Tuple[int, str], int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._next_tid: Dict[int, int] = {}
        self.metadata: List[dict] = []

    def pid(self, run: int, process: str, run_label: str) -> int:
        key = (run, process)
        if key not in self._pids:
            pid = len(self._pids) + 1
            self._pids[key] = pid
            self.metadata.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"{run_label} [{run}] {process}"}})
        return self._pids[key]

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        if key not in self._tids:
            tid = self._next_tid.get(pid, 0)
            self._next_tid[pid] = tid + 1
            self._tids[key] = tid
            self.metadata.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track}})
        return self._tids[key]


def _us(t_s: float) -> float:
    """Simulation seconds → trace-event microseconds."""
    return round(t_s * 1e6, 3)


def _scalar(value: Any) -> Any:
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        value = value.item()  # numpy scalar → plain python scalar
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _json_safe(args: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for key, value in args.items():
        if isinstance(value, dict):
            value = {str(k): _scalar(v) for k, v in value.items()}
        else:
            value = _scalar(value)
        out[str(key)] = value
    return out


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The tracer's records as a list of Chrome trace-event dicts."""
    tracer.finish_run()
    tracks = _TrackMap()
    events: List[dict] = []

    def label(run: int) -> str:
        if 0 <= run < len(tracer.run_labels):
            return tracer.run_labels[run]
        return "run"

    for span in tracer.spans:
        if span.kind == "workflow":
            process, cat = "frontend", "workflow"
        else:
            process, cat = "invocations", span.kind
        pid = tracks.pid(span.run, process, label(span.run))
        t1 = span.t1 if span.t1 is not None else span.t0
        common = {"cat": cat, "id": span.uid, "pid": pid, "tid": 0}
        events.append({"ph": "b", "name": span.name, "ts": _us(span.t0),
                       **common,
                       "args": _json_safe(span.args) if span.kind != "phase"
                       else {}})
        events.append({"ph": "e", "name": span.name, "ts": _us(t1),
                       **common, "args": _json_safe(span.args)})
    for inst in tracer.instants:
        pid = tracks.pid(inst.run, _process_of(inst.track), label(inst.run))
        tid = tracks.tid(pid, inst.track)
        events.append({"ph": "i", "s": "t", "name": inst.name,
                       "pid": pid, "tid": tid, "ts": _us(inst.t),
                       "args": _json_safe(inst.args)})
    for sample in tracer.counters:
        pid = tracks.pid(sample.run, _process_of(sample.track),
                         label(sample.run))
        events.append({"ph": "C", "name": f"{sample.series}:{sample.track}",
                       "pid": pid, "tid": 0, "ts": _us(sample.t),
                       "args": {"value": sample.value}})
    return tracks.metadata + events


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Perfetto-loadable JSON file; returns the event count."""
    events = chrome_trace_events(tracer)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs (EcoFaaS reproduction)",
            "runs": list(tracer.run_labels),
            "clock": "simulation seconds, exported as microseconds",
            # Workflow uid → job uid dispatch links: joins workflow spans
            # (cat "workflow") to invocation spans (cat "invocation") so
            # `repro explain` can walk one workflow's jobs.
            "workflowLinks": [list(link)
                              for link in getattr(tracer, "wf_links", [])],
        },
    }
    with open(path, "w") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return len(events)


def read_chrome_trace(path: str
                      ) -> Tuple[List[dict], dict, Dict[int, str]]:
    """Read an exported trace back: its events, its ``otherData`` and
    each pid's process name. A bare event list (no ``otherData``) is
    accepted too. A document that is not a valid, non-empty trace-event
    file (see :func:`repro.obs.validate.validate_events`) raises
    ValueError naming its first problem."""
    with open(path) as handle:
        document = json.load(handle)
    if isinstance(document, list):
        events, other = document, {}
    elif isinstance(document, dict):
        events = document.get("traceEvents")
        other = document.get("otherData", {})
    else:
        raise ValueError("expected a JSON object or event list")
    if not isinstance(events, list):
        raise ValueError("no traceEvents array")
    if not isinstance(other, dict):
        raise ValueError("otherData is not a JSON object")
    problems = validate_events(events) if events else ["no events"]
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"{problems[0]}{more}")
    pid_names = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    return events, other, pid_names


def run_of_pid(pid_names: Dict[int, str], pid: int) -> Tuple[int, str]:
    """Recover (run index, run label) from a process name written by
    :class:`_TrackMap`, like ``"EcoFaaS [2] invocations"``."""
    name = pid_names.get(pid, "")
    if "[" in name and "]" in name:
        label = name.split("[", 1)[0].strip()
        index = name.split("[", 1)[1].split("]", 1)[0]
        if index.isdigit():
            return int(index), label
    return 0, name or "run"


# ---------------------------------------------------------------------------
# Epoch metrics
# ---------------------------------------------------------------------------
def _nearest_rank(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile (stdlib-only; NaN on empty input)."""
    if not sorted_values:
        return float("nan")
    rank = max(0, min(len(sorted_values) - 1,
                      int(math.ceil(p / 100.0 * len(sorted_values))) - 1))
    return sorted_values[rank]


def epoch_rows(tracer: Tracer, epoch_s: float = 2.0) -> List[Dict[str, Any]]:
    """Per-run, per-epoch metrics rows (the CSV/JSON time series).

    The epoch length defaults to the EcoFaaS ``T_refresh`` (2 s) so each
    row lines up with one pool-retune decision window. Spans are binned
    by their *end* time (an invocation contributes to the epoch in which
    it completed, as the paper's rollups do).

    A run rarely ends on an epoch boundary; the final row covers the
    leftover ``[k*epoch_s, end)`` stretch and is marked ``is_partial``
    with its true ``t1_s``, so sums over the rows (energy in particular)
    cover the whole run rather than silently dropping the tail.

    When the tracer carries an energy ledger, each row additionally
    gets ``energy_<component>_j`` columns (see
    :data:`repro.obs.registry.LEDGER_COMPONENTS`) with the classified
    joules pro-rated over the epoch.
    """
    if epoch_s <= 0:
        raise ValueError(f"epoch length must be positive: {epoch_s}")
    tracer.finish_run()
    ledger = getattr(tracer, "ledger", None)
    rows: List[Dict[str, Any]] = []
    for run, run_label in enumerate(tracer.run_labels):
        end = tracer.run_end_s[run]
        n_epochs = max(1, int(math.ceil(end / epoch_s - 1e-9)))
        base = [{
            "run": run, "system": run_label, "epoch": e,
            "t0_s": e * epoch_s, "t1_s": (e + 1) * epoch_s,
            "is_partial": False,
            "invocations": 0, "energy_j": 0.0, "cold_starts": 0,
            "deadline_misses": 0, "workflows": 0, "slo_violations": 0,
            "p50_latency_s": float("nan"), "p99_latency_s": float("nan"),
            "retries": 0, "hedges": 0, "timeouts": 0, "faults": 0,
            "preemptions": 0, "freq_transitions": 0,
            "ha_suspicions": 0, "ha_redispatches": 0, "ha_failovers": 0,
            "ha_fenced": 0, "ha_frozen": 0,
            "slo_fast_burns": 0, "slo_slow_burns": 0,
            "tenant_throttles": 0, "power_cap_steps": 0,
            "cancels": 0, "doomed_drops": 0, "workflows_doomed": 0,
            "retry_budget_denials": 0, "retry_budget_refunds": 0,
            "mean_power_w": float("nan"), "mean_outstanding": float("nan"),
        } for e in range(n_epochs)]
        if 0.0 < end < n_epochs * epoch_s - 1e-9:
            base[-1]["t1_s"] = end
            base[-1]["is_partial"] = True

        def bin_of(t: float) -> int:
            return max(0, min(n_epochs - 1, int(t / epoch_s)))

        latencies: List[List[float]] = [[] for _ in range(n_epochs)]
        for span in tracer.spans:
            if span.run != run or span.t1 is None:
                continue
            row = base[bin_of(span.t1)]
            if span.kind == "invocation":
                if span.args.get("status") != "completed" \
                        or span.args.get("prewarm"):
                    continue
                row["invocations"] += 1
                row["energy_j"] += float(span.args.get("energy_j", 0.0))
                row["cold_starts"] += bool(span.args.get("cold_start"))
                row["deadline_misses"] += not span.args.get(
                    "met_deadline", True)
            elif span.kind == "workflow":
                if span.args.get("status") != "completed":
                    continue
                row["workflows"] += 1
                row["slo_violations"] += not span.args.get("met_slo", True)
                latencies[bin_of(span.t1)].append(span.duration_s)
        for e, values in enumerate(latencies):
            values.sort()
            base[e]["p50_latency_s"] = _nearest_rank(values, 50.0)
            base[e]["p99_latency_s"] = _nearest_rank(values, 99.0)

        for inst in tracer.instants:
            if inst.run != run:
                continue
            row = base[bin_of(inst.t)]
            column = EPOCH_INSTANT_COLUMNS.get(inst.name)
            if column is not None:
                row[column] += 1
            elif inst.name.startswith("fault_"):
                row["faults"] += 1

        if ledger is not None and ledger.reports:
            per_epoch = ledger.epoch_component_j(run, n_epochs, epoch_s)
            for e in range(n_epochs):
                for component, column in zip(LEDGER_COMPONENTS,
                                             LEDGER_EPOCH_COLUMNS):
                    base[e][column] = per_epoch[e][component]

        power: List[List[float]] = [[] for _ in range(n_epochs)]
        occupancy: List[List[float]] = [[] for _ in range(n_epochs)]
        # Counter samples arrive node-by-node at identical timestamps;
        # summing per timestamp yields cluster-wide series to average.
        by_time: Dict[Tuple[str, float], float] = {}
        for sample in tracer.counters:
            if sample.run != run or sample.series not in ("power_w",
                                                          "outstanding"):
                continue
            key = (sample.series, sample.t)
            by_time[key] = by_time.get(key, 0.0) + sample.value
        for (series, t), value in by_time.items():
            target = power if series == "power_w" else occupancy
            target[bin_of(t)].append(value)
        for e in range(n_epochs):
            if power[e]:
                base[e]["mean_power_w"] = sum(power[e]) / len(power[e])
            if occupancy[e]:
                base[e]["mean_outstanding"] = (sum(occupancy[e])
                                               / len(occupancy[e]))
        rows.extend(base)
    return rows


def write_epoch_metrics(tracer: Tracer, path: str,
                        epoch_s: float = 2.0) -> List[Dict[str, Any]]:
    """Write :func:`epoch_rows` as CSV; returns the rows."""
    rows = epoch_rows(tracer, epoch_s)
    columns = list(rows[0].keys()) if rows else ["run", "system", "epoch"]
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.6g}" if isinstance(v, float) else v)
                             for k, v in row.items()})
    return rows


# ---------------------------------------------------------------------------
# Plain-text run summary
# ---------------------------------------------------------------------------
def _top_functions(tracer: Tracer, run: int, key, n: int = 5
                   ) -> List[Tuple[str, float]]:
    totals: Dict[str, float] = {}
    for span in tracer.spans_of("invocation", run):
        if span.args.get("prewarm"):
            continue
        value = key(span)
        if value is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + value
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def queueing_by_function(tracer: Tracer, run: Optional[int] = None
                         ) -> Dict[str, float]:
    """Total queue-phase seconds per function (report helper)."""
    totals: Dict[str, float] = {}
    names = {s.uid: s.name for s in tracer.spans_of("invocation", run)}
    for span in tracer.spans_of("phase", run):
        if span.name != "queue" or span.t1 is None:
            continue
        function = names.get(span.uid, "?")
        totals[function] = totals.get(function, 0.0) + span.duration_s
    return totals


def run_summary(tracer: Tracer, top_n: int = 5) -> str:
    """A human-readable rollup of every traced run."""
    tracer.finish_run()
    lines: List[str] = []
    for run, run_label in enumerate(tracer.run_labels):
        invocations = [s for s in tracer.spans_of("invocation", run)
                       if not s.args.get("prewarm")]
        completed = [s for s in invocations
                     if s.args.get("status") == "completed"]
        workflows = [s for s in tracer.spans_of("workflow", run)
                     if s.args.get("status") == "completed"]
        energy = sum(float(s.args.get("energy_j", 0.0)) for s in completed)
        lines.append(f"== trace summary: run {run} ({run_label}) ==")
        lines.append(
            f"  {len(completed)}/{len(invocations)} invocations completed,"
            f" {len(workflows)} workflows,"
            f" {tracer.run_end_s[run]:.2f}s simulated")
        lines.append(
            f"  invocation energy {energy:.1f} J,"
            f" {sum(1 for s in completed if s.args.get('cold_start'))}"
            f" cold starts,"
            f" {len(tracer.instants_named('preemption', run))} preemptions,"
            f" {len(tracer.instants_named('freq_transition', run))}"
            f" freq transitions")
        reliability = [f"{name}={len(tracer.instants_named(name, run))}"
                       for name in ("retry", "hedge", "invocation_timeout")]
        faults = sum(1 for i in tracer.instants
                     if i.run == run and i.name.startswith("fault_"))
        lines.append(f"  reliability: {' '.join(reliability)}"
                     f" faults={faults}")
        ha_counts = {name: len(tracer.instants_named(name, run))
                     for name in ("ha_suspect", "ha_failover",
                                  "ha_redispatch", "ha_fenced", "ha_frozen")}
        if any(ha_counts.values()):
            lines.append(
                "  ha: " + " ".join(f"{name.removeprefix('ha_')}={count}"
                                    for name, count in ha_counts.items()))
        for title, ranked, unit in (
                ("energy", _top_functions(
                    tracer, run,
                    lambda s: float(s.args.get("energy_j", 0.0)), top_n),
                 "J"),
                ("queueing delay", sorted(
                    queueing_by_function(tracer, run).items(),
                    key=lambda item: (-item[1], item[0]))[:top_n], "s"),
                ("deadline misses", _top_functions(
                    tracer, run,
                    lambda s: 0.0 + (not s.args.get("met_deadline", True)),
                    top_n), "")):
            ranked = [(name, value) for name, value in ranked if value > 0]
            if ranked:
                listing = ", ".join(f"{name}={value:.3g}{unit}"
                                    for name, value in ranked)
                lines.append(f"  top by {title}: {listing}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The run directory
# ---------------------------------------------------------------------------
def write_run(tracer: Tracer, audit, directory: str,
              manifest: Dict[str, Any]) -> str:
    """Write one recorded run into ``directory`` as :data:`RUN_FILES`.

    ``tracer`` carries an energy ledger and a fingerprint recorder, and
    the epoch metrics use the recorder's epoch length, so the CSV rows
    and the fingerprint chains cover the same epochs. ``audit`` is the
    run's :class:`~repro.obs.audit.AuditLog`. The fingerprints document
    carries ``manifest`` with ``artifacts``, the sorted file names.
    Returns a one-line summary of what was written.
    """
    def path(name: str) -> str:
        return os.path.join(directory, name)

    n_events = write_chrome_trace(tracer, path(TRACE_FILE))
    rows = write_epoch_metrics(tracer, path(EPOCHS_FILE),
                               epoch_s=tracer.fingerprint.epoch_s)
    ledger = tracer.ledger.write(path(LEDGER_FILE))
    n_records = audit.write(path(AUDIT_FILE))
    tracer.fingerprint.write(path(FINGERPRINTS_FILE),
                             {**manifest, "artifacts": sorted(RUN_FILES)})
    conserved = all(run["conserved"] for run in ledger["runs"])
    return (f"[run: {len(ledger['runs'])} runs, {n_events} trace events,"
            f" {len(rows)} epoch rows, {n_records} audit records"
            f" -> {directory}; conservation"
            f" {'OK' if conserved else 'FAILED'}]")
