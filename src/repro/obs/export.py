"""Trace exporters: Perfetto-loadable Chrome JSON, epoch metrics, summary.

Three views of one :class:`~repro.obs.tracer.Tracer`, plus the run
directory that holds them:

* :func:`write_chrome_trace` — the Chrome trace-event format (open the
  file at https://ui.perfetto.dev): one process per run and node, one
  thread per core pool, async tracks for invocation/workflow spans, and
  counter tracks for pool sizes, per-node power draw, and EWT. The
  events stream through the C JSON encoder in fixed-size chunks, with
  no event list held, and the bytes are those of one ``json.dumps`` of
  the whole document; :func:`read_chrome_trace` validates it and reads
  it back into the tracer's own records for ``repro report``,
  ``repro explain`` and (instants only) ``repro diff``;
* :func:`epoch_rows` / :func:`write_epoch_metrics` — a per-epoch
  (``T_refresh``-granularity) metrics time series as CSV: energy,
  p50/p99, SLO violations, pool occupancy, retry counters. Records are
  grouped by run in one pass and each run is binned from its own
  records (:func:`run_epochs`), which is also how
  :class:`~repro.obs.fingerprint.FingerprintRecorder` folds the one run
  it closes;
* :func:`run_summary` — a plain-text rollup per run;
* :func:`write_run` — one recorded run as a directory of
  :data:`RUN_FILES`: the trace, the epoch metrics, the energy ledger,
  the decision audit log (:mod:`repro.obs.audit`) and the fingerprints
  with their manifest.

Everything here is pure stdlib and fully deterministic: identical traces
serialize to identical bytes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from collections import Counter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs.audit import write_jsonl
from repro.obs.registry import (EPOCH_INSTANT_COLUMNS, LEDGER_COMPONENTS,
                                LEDGER_EPOCH_COLUMNS)
from repro.obs.tracer import CounterRecord, InstantRecord, SpanRecord, Tracer
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


#: Events per call of the C JSON encoder in :func:`write_chrome_trace`:
#: the writer holds at most this many event dicts at a time.
CHUNK_EVENTS = 4096

#: Arg value types the trace writes as they are (no numpy unwrapping,
#: no non-finite float to guard).
_PLAIN_TYPES = frozenset((str, int, bool, type(None)))


class _TrackMap:
    """Deterministic (run, process) → pid and (pid, track) → tid mapping.

    Built in one pass over the records before any event is encoded, in
    first-seen order (spans, then instants, then counters); the process
    and thread metadata events come out in that order too.
    """

    def __init__(self, run_labels: List[str]) -> None:
        self._run_labels = run_labels
        self._pids: Dict[Tuple[int, str], int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self._next_tid: Dict[int, int] = {}
        self.metadata: List[dict] = []

    def pid(self, run: int, process: str) -> int:
        key = (run, process)
        pid = self._pids.get(key)
        if pid is None:
            pid = self._pids[key] = len(self._pids) + 1
            label = (self._run_labels[run]
                     if 0 <= run < len(self._run_labels) else "run")
            self.metadata.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"{label} [{run}] {process}"}})
        return pid

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = self._next_tid.get(pid, 0)
            self._next_tid[pid] = tid + 1
            self.metadata.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track}})
        return tid


def _us(t_s: float) -> float:
    """Simulation seconds → trace-event microseconds."""
    return round(t_s * 1e6, 3)


def _scalar(value: Any) -> Any:
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return value
    if kind is float:
        return value if math.isfinite(value) else repr(value)
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


def _iter_events(tracer: Tracer) -> Iterator[dict]:
    """The tracer's records as Chrome trace events, built one at a time.

    A first pass assigns every pid and tid; the metadata events come
    first, then one ``b``/``e`` pair per span, one ``i`` per instant and
    one ``C`` per counter sample, in record order.
    """
    tracer.finish_run()
    tracks = _TrackMap(tracer.run_labels)
    for span in tracer.spans:
        tracks.pid(span.run,
                   "frontend" if span.kind == "workflow" else "invocations")
    # (run, track) → (pid, tid) of instants, and → pid of counters.
    instant_ids: Dict[Tuple[int, str], Tuple[int, int]] = {}
    for inst in tracer.instants:
        key = (inst.run, inst.track)
        if key not in instant_ids:
            pid = tracks.pid(inst.run, _process_of(inst.track))
            instant_ids[key] = (pid, tracks.tid(pid, inst.track))
    counter_pids: Dict[Tuple[int, str], int] = {}
    for sample in tracer.counters:
        key = (sample.run, sample.track)
        if key not in counter_pids:
            counter_pids[key] = tracks.pid(sample.run,
                                           _process_of(sample.track))
    yield from tracks.metadata

    pid_of = tracks.pid
    for span in tracer.spans:
        if span.kind == "workflow":
            pid, cat = pid_of(span.run, "frontend"), "workflow"
        else:
            pid, cat = pid_of(span.run, "invocations"), span.kind
        args = _json_safe(span.args)
        t1 = span.t1 if span.t1 is not None else span.t0
        yield {"ph": "b", "name": span.name, "ts": _us(span.t0),
               "cat": cat, "id": span.uid, "pid": pid, "tid": 0,
               "args": args if span.kind != "phase" else {}}
        yield {"ph": "e", "name": span.name, "ts": _us(t1),
               "cat": cat, "id": span.uid, "pid": pid, "tid": 0,
               "args": args}
    for inst in tracer.instants:
        pid, tid = instant_ids[inst.run, inst.track]
        yield {"ph": "i", "s": "t", "name": inst.name, "pid": pid,
               "tid": tid, "ts": _us(inst.t), "args": _json_safe(inst.args)}
    for sample in tracer.counters:
        yield {"ph": "C", "name": f"{sample.series}:{sample.track}",
               "pid": counter_pids[sample.run, sample.track], "tid": 0,
               "ts": _us(sample.t), "args": {"value": sample.value}}


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """The tracer's records as a list of Chrome trace-event dicts."""
    return list(_iter_events(tracer))


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the Perfetto-loadable JSON file; returns the event count.

    The events stream out in chunks of :data:`CHUNK_EVENTS`, each
    encoded by one call of the C JSON encoder, so no event list is ever
    held. The bytes are those of ``json.dumps(document,
    separators=(",", ":"))`` of the whole document, plus a newline.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    tail = {
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
    events = _iter_events(tracer)
    n_events = 0
    with open(path, "w") as handle:
        handle.write('{"traceEvents":[')
        while True:
            chunk = list(itertools.islice(events, CHUNK_EVENTS))
            if not chunk:
                break
            if n_events:
                handle.write(",")
            handle.write(encode(chunk)[1:-1])  # drop the list's brackets
            n_events += len(chunk)
        # The tail object's members continue the document after "],".
        handle.write("]," + encode(tail)[1:] + "\n")
    return n_events


def read_chrome_trace(path: str, *, spans: bool = True) -> Tracer:
    """Read an exported trace back into the records that were written.

    Returns a :class:`Tracer` holding the spans (``kind`` is the event
    ``cat``), the instants (``track`` is the thread name), the workflow
    links and the run labels; counter samples are not read back. With
    ``spans=False`` no span is built (``repro diff`` joins instants
    only); everything else, ``run_end_s`` included, is the same. A bare
    event list (no ``otherData``) is accepted too. A document that is
    not a valid, non-empty trace-event file (see
    :func:`repro.obs.validate.validate_events`) raises ValueError naming
    its first problem.
    """
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
    runs: Dict[int, Tuple[int, str]] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for event in events:
        if event["ph"] == "M" and event["name"] == "process_name":
            runs[event["pid"]] = _run_of(event["args"]["name"])
        elif event["ph"] == "M" and event["name"] == "thread_name":
            threads[(event["pid"], event["tid"])] = event["args"]["name"]
    tracer = Tracer()
    tracer.wf_links = [tuple(link) for link in other.get("workflowLinks", [])]
    ends: Dict[int, float] = {}
    # Each 'e' closes the oldest open 'b' of its (run, cat, id, name).
    open_spans: Dict[tuple, List[SpanRecord]] = {}
    for event in events:
        phase = event["ph"]
        if phase not in ("b", "e", "i"):
            continue
        run = runs.get(event["pid"], (0, "run"))[0]
        t = event["ts"] / 1e6
        if phase == "b":
            if spans:
                span = SpanRecord(run, event["cat"], event["name"],
                                  event["id"], t, args=event.get("args", {}))
                open_spans.setdefault(
                    (run, span.kind, span.uid, span.name), []).append(span)
                tracer.spans.append(span)
            continue
        if phase == "e":
            if spans:
                span = open_spans[(run, event["cat"], event["id"],
                                   event["name"])].pop(0)
                span.t1 = t
                span.args.update(event.get("args", {}))
        else:
            tracer.instants.append(InstantRecord(
                run, event["name"],
                threads.get((event["pid"], event["tid"]), ""), t,
                event.get("args", {})))
        ends[run] = max(ends.get(run, 0.0), t)
    labels = dict(enumerate(other.get("runs", [])))
    for run, label in runs.values():
        labels.setdefault(run, label)
    n_runs = max([*labels, *ends], default=-1) + 1
    tracer.run_labels = [labels.get(run, "run") for run in range(n_runs)]
    tracer.run_end_s = [ends.get(run, 0.0) for run in range(n_runs)]
    return tracer


def _run_of(process_name: str) -> Tuple[int, str]:
    """Recover (run index, run label) from a process name written by
    :class:`_TrackMap`, like ``"EcoFaaS [2] invocations"``."""
    if "[" in process_name and "]" in process_name:
        label = process_name.split("[", 1)[0].strip()
        index = process_name.split("[", 1)[1].split("]", 1)[0]
        if index.isdigit():
            return int(index), label
    return 0, process_name or "run"


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


class RunRecords(NamedTuple):
    """One run's spans, instants and counter samples, in record order."""

    spans: List[SpanRecord]
    instants: List[InstantRecord]
    counters: List[CounterRecord]


def records_by_run(tracer: Tracer, run: Optional[int] = None
                   ) -> Dict[int, RunRecords]:
    """Every run's records, grouped in one pass over each record list.

    With ``run``, only that run's records are kept (empty lists when the
    tracer has no such run). Each list keeps record order, so sums over
    it add up in the same order as a per-run scan would.
    """
    runs = range(len(tracer.run_labels)) if run is None else (run,)
    groups = {r: RunRecords([], [], []) for r in runs}
    for field, records in enumerate((tracer.spans, tracer.instants,
                                     tracer.counters)):
        for record in records:
            group = groups.get(record.run)
            if group is not None:
                group[field].append(record)
    return groups


def epoch_rows(tracer: Tracer, epoch_s: float = 2.0
               ) -> List[Dict[str, Any]]:
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
    rows: List[Dict[str, Any]] = []
    for run, records in records_by_run(tracer).items():
        rows.extend(run_epochs(tracer, run, records, epoch_s))
    return rows


def run_epochs(tracer: Tracer, run: int, records: RunRecords,
               epoch_s: float) -> List[Dict[str, Any]]:
    """One run's :func:`epoch_rows`, binned from its ``records``."""
    if not 0 <= run < len(tracer.run_labels):
        return []
    ledger = getattr(tracer, "ledger", None)
    end = tracer.run_end_s[run]
    n_epochs = max(1, int(math.ceil(end / epoch_s - 1e-9)))
    base = [{
        "run": run, "system": tracer.run_labels[run], "epoch": e,
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
    for span in records.spans:
        if span.t1 is None:
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

    for inst in records.instants:
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
    for sample in records.counters:
        if sample.series not in ("power_w", "outstanding"):
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
    return base


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
def spans_by_run(tracer: Tracer
                 ) -> List[Tuple[List[SpanRecord], List[SpanRecord]]]:
    """Each run's invocation spans and closed queue-phase spans.

    One pass over the spans; each list keeps record order, so sums over
    it add up in the same order as a per-run scan would.
    """
    runs: List[Tuple[List[SpanRecord], List[SpanRecord]]] = [
        ([], []) for _ in tracer.run_labels]
    for span in tracer.spans:
        if span.kind == "invocation":
            runs[span.run][0].append(span)
        elif (span.kind == "phase" and span.name == "queue"
              and span.t1 is not None):
            runs[span.run][1].append(span)
    return runs


def _top_functions(invocations: List[SpanRecord], key, n: int = 5
                   ) -> List[Tuple[str, float]]:
    totals: Dict[str, float] = {}
    for span in invocations:
        if span.args.get("prewarm"):
            continue
        value = key(span)
        if value is None:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + value
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:n]


def _queueing(invocations: List[SpanRecord], queues: List[SpanRecord]
              ) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    names = {s.uid: s.name for s in invocations}
    for span in queues:
        function = names.get(span.uid, "?")
        totals[function] = totals.get(function, 0.0) + span.duration_s
    return totals


def top_queueing(invocations: List[SpanRecord], queues: List[SpanRecord],
                 n: int) -> List[Tuple[str, float]]:
    """The ``n`` functions with the most queue-phase seconds."""
    return sorted(_queueing(invocations, queues).items(),
                  key=lambda item: (-item[1], item[0]))[:n]


def queueing_by_function(tracer: Tracer, run: Optional[int] = None
                         ) -> Dict[str, float]:
    """Total queue-phase seconds per function (report helper)."""
    return _queueing(tracer.spans_of("invocation", run),
                     [s for s in tracer.spans_of("phase", run)
                      if s.name == "queue" and s.t1 is not None])


def run_summary(tracer: Tracer, top_n: int = 5) -> str:
    """A human-readable rollup of every traced run."""
    tracer.finish_run()
    lines: List[str] = []
    grouped = spans_by_run(tracer)
    # One pass each; every ``fault_*`` instant counts under "fault_".
    counts = Counter((i.run, "fault_" if i.name.startswith("fault_")
                      else i.name) for i in tracer.instants)
    workflows = Counter(s.run for s in tracer.spans if s.kind == "workflow"
                        and s.args.get("status") == "completed")
    for run, run_label in enumerate(tracer.run_labels):
        run_invocations, queues = grouped[run]
        invocations = [s for s in run_invocations
                       if not s.args.get("prewarm")]
        completed = [s for s in invocations
                     if s.args.get("status") == "completed"]
        energy = sum(float(s.args.get("energy_j", 0.0)) for s in completed)
        lines.append(f"== trace summary: run {run} ({run_label}) ==")
        lines.append(
            f"  {len(completed)}/{len(invocations)} invocations completed,"
            f" {workflows[run]} workflows,"
            f" {tracer.run_end_s[run]:.2f}s simulated")
        lines.append(
            f"  invocation energy {energy:.1f} J,"
            f" {sum(1 for s in completed if s.args.get('cold_start'))}"
            f" cold starts,"
            f" {counts[run, 'preemption']} preemptions,"
            f" {counts[run, 'freq_transition']} freq transitions")
        reliability = [f"{name}={counts[run, name]}"
                       for name in ("retry", "hedge", "invocation_timeout")]
        lines.append(f"  reliability: {' '.join(reliability)}"
                     f" faults={counts[run, 'fault_']}")
        ha_counts = {name: counts[run, name]
                     for name in ("ha_suspect", "ha_failover",
                                  "ha_redispatch", "ha_fenced", "ha_frozen")}
        if any(ha_counts.values()):
            lines.append(
                "  ha: " + " ".join(f"{name.removeprefix('ha_')}={count}"
                                    for name, count in ha_counts.items()))
        for title, ranked, unit in (
                ("energy", _top_functions(
                    run_invocations,
                    lambda s: float(s.args.get("energy_j", 0.0)), top_n),
                 "J"),
                ("queueing delay",
                 top_queueing(run_invocations, queues, top_n), "s"),
                ("deadline misses", _top_functions(
                    run_invocations,
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
def write_run(tracer: Tracer, directory: str,
              manifest: Dict[str, Any]) -> str:
    """Write one recorded run into ``directory`` as :data:`RUN_FILES`.

    ``tracer`` carries an energy ledger and a fingerprint recorder, and
    the epoch metrics use the recorder's epoch length, so the CSV rows
    and the fingerprint chains cover the same epochs. ``audit.jsonl``
    renders the trace's decision instants. The fingerprints document
    carries ``manifest`` with ``artifacts``, the sorted file names.
    Returns a one-line summary of what was written.
    """
    def path(name: str) -> str:
        return os.path.join(directory, name)

    n_events = write_chrome_trace(tracer, path(TRACE_FILE))
    rows = write_epoch_metrics(tracer, path(EPOCHS_FILE),
                               epoch_s=tracer.fingerprint.epoch_s)
    ledger = tracer.ledger.write(path(LEDGER_FILE))
    n_records = write_jsonl(tracer, path(AUDIT_FILE))
    tracer.fingerprint.write(path(FINGERPRINTS_FILE),
                             {**manifest, "artifacts": sorted(RUN_FILES)})
    conserved = all(run["conserved"] for run in ledger["runs"])
    return (f"[run: {len(ledger['runs'])} runs, {n_events} trace events,"
            f" {len(rows)} epoch rows, {n_records} audit records"
            f" -> {directory}; conservation"
            f" {'OK' if conserved else 'FAILED'}]")
