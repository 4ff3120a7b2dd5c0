"""``repro explain``: ranked root causes for a missed-SLO workflow.

Walks the exported Chrome trace — workflow/invocation/phase spans,
instants, and the workflow→job links stored in
``otherData.workflowLinks`` — to answer "why did this workflow miss its
SLO?" with a ranked list of concrete causes: seconds queued per pool
(with the retune decision that shrank it), cold-start boots, block-phase
holds, energy burned by aborted/abandoned retry attempts, breaker
fast-fails, HA redispatches, doom-line cancellations, and retry-budget
denials. Control-plane decisions are the trace's decision instants,
written by :mod:`repro.obs.audit` with the record's payload as args.

Everything operates on the exported files, not live tracer objects, so
``repro explain`` works on any trace produced earlier (and in CI).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.audit import KINDS
from repro.obs.export import read_chrome_trace, run_of_pid


@dataclass
class _Span:
    run: int
    cat: str            # "workflow" | "invocation" | "phase"
    name: str
    uid: int
    t0: float
    t1: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


@dataclass
class Cause:
    """One ranked contributor to a miss. ``score`` orders the list."""

    score: float
    kind: str
    text: str

    def to_dict(self) -> Dict[str, Any]:
        return {"score": round(self.score, 6), "kind": self.kind,
                "text": self.text}


class ExplainData:
    """Spans/instants/links loaded from an exported trace."""

    def __init__(self) -> None:
        self.run_labels: Dict[int, str] = {}
        self.spans: List[_Span] = []
        self.instants: List[Dict[str, Any]] = []
        #: run → workflow uid → [job uids].
        self.links: Dict[int, Dict[int, List[int]]] = defaultdict(
            lambda: defaultdict(list))


def load_explain_data(trace_path: str) -> ExplainData:
    """Parse the exported trace back into memory."""
    events, other, pid_names = read_chrome_trace(trace_path)
    data = ExplainData()
    # An instant's track is its thread: a decision's actor, a pool, ...
    threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
               if e.get("ph") == "M" and e.get("name") == "thread_name"}
    for run, wf_uid, job_uid in other.get("workflowLinks", []):
        data.links[run][wf_uid].append(job_uid)
    open_spans: Dict[Tuple[int, str, int, str], List[_Span]] = \
        defaultdict(list)
    for event in events:
        phase = event.get("ph")
        if phase == "i":
            run, label = run_of_pid(pid_names, event["pid"])
            data.run_labels.setdefault(run, label)
            data.instants.append({
                "run": run, "name": event["name"],
                "track": threads.get((event["pid"], event.get("tid")), ""),
                "t": event["ts"] / 1e6, "args": event.get("args", {})})
            continue
        if phase not in ("b", "e"):
            continue
        run, label = run_of_pid(pid_names, event["pid"])
        data.run_labels.setdefault(run, label)
        key = (run, event.get("cat", ""), event["id"], event["name"])
        if phase == "b":
            span = _Span(run, event.get("cat", ""), event["name"],
                         event["id"], event["ts"] / 1e6, event["ts"] / 1e6,
                         dict(event.get("args", {})))
            open_spans[key].append(span)
            data.spans.append(span)
        else:
            stack = open_spans.get(key)
            if stack:
                span = stack.pop(0)  # FIFO: b/e pairs are emitted adjacent
                span.t1 = event["ts"] / 1e6
                span.args.update(event.get("args", {}))
    return data


def missed_workflows(data: ExplainData, run: Optional[int] = None
                     ) -> List[_Span]:
    """Workflow spans that failed or missed their SLO, worst first.

    "Worst" is latency minus SLO budget (largest overshoot), so the
    default pick is the workflow with the most seconds to explain.
    """
    candidates = []
    for span in data.spans:
        if span.cat != "workflow" or (run is not None and span.run != run):
            continue
        status = span.args.get("status")
        if status in ("failed", "doomed"):
            candidates.append(span)
        elif status == "completed" and not span.args.get("met_slo", True):
            candidates.append(span)
    def overshoot(span: _Span) -> float:
        slo = float(span.args.get("slo_s", 0.0))
        return span.duration_s - slo
    return sorted(candidates, key=lambda s: (-overshoot(s), s.uid))


def _shrink_context(data: ExplainData, run: int, pool: str,
                    before_t: float) -> str:
    """The most recent retune decision that shrank ``pool`` before a
    time."""
    best = None
    for inst in data.instants:
        if inst["run"] != run or inst["name"] != "pool_retune" \
                or inst["t"] > before_t:
            continue
        prev = inst["args"].get("inputs", {}).get("targets", {})
        new = inst["args"].get("action", {}).get("targets", {})
        if pool in new and pool in prev and new[pool] < prev[pool]:
            if best is None or inst["t"] > best["t"]:
                best = inst
    if best is None:
        return ""
    prev = best["args"]["inputs"]["targets"][pool]
    new = best["args"]["action"]["targets"][pool]
    return (f" (retune at t={best['t']:.2f}s shrank it"
            f" {prev}→{new} cores)")


def explain(data: ExplainData, workflow_uid: int,
            run: Optional[int] = None) -> Dict[str, Any]:
    """Build the ranked cause list for one workflow.

    Workflow uids restart in every run, so without ``run`` a uid found
    in more than one run raises ValueError naming those runs."""
    matches = [s for s in data.spans
               if s.cat == "workflow" and s.uid == workflow_uid
               and (run is None or s.run == run)]
    if not matches:
        raise KeyError(
            f"no workflow span with uid {workflow_uid}"
            + (f" in run {run}" if run is not None else ""))
    runs = sorted({s.run for s in matches})
    if len(runs) > 1:
        raise ValueError(
            f"workflow {workflow_uid} is in runs"
            f" {', '.join(map(str, runs))}: pick one with --run")
    wf = matches[0]
    run = wf.run
    job_uids = set(data.links.get(run, {}).get(workflow_uid, []))
    jobs = [s for s in data.spans
            if s.run == run and s.cat == "invocation" and s.uid in job_uids]
    phases = [s for s in data.spans
              if s.run == run and s.cat == "phase" and s.uid in job_uids
              and wf.t0 - 1e-9 <= s.t0 <= wf.t1 + 1e-9]
    causes: List[Cause] = []

    # Queue time, grouped by the pool the job waited in.
    queue_by_pool: Dict[str, float] = defaultdict(float)
    for span in phases:
        if span.name == "queue" and span.duration_s > 1e-9:
            queue_by_pool[span.args.get("pool") or "?"] += span.duration_s
    for pool, seconds in queue_by_pool.items():
        context = _shrink_context(data, run, pool, wf.t1) \
            if pool != "?" else ""
        where = f"in {pool}" if pool != "?" else "at dispatch"
        causes.append(Cause(seconds, "queueing",
                            f"queued {seconds:.2f}s {where}{context}"))

    # Cold starts and block-phase holds.
    cold_s = sum(s.duration_s for s in phases if s.name == "cold_start")
    if cold_s > 1e-9:
        n = sum(1 for s in phases if s.name == "cold_start")
        causes.append(Cause(
            cold_s, "cold_start",
            f"cold start: {cold_s:.2f}s booting"
            f" {n} container{'s' if n != 1 else ''}"))
    block_s = sum(s.duration_s for s in phases if s.name == "block")
    if block_s > 1e-9:
        causes.append(Cause(
            block_s, "block",
            f"blocked {block_s:.2f}s on external calls"))

    # Cancelled attempts: doomed work the cancel layer killed early.
    killed = [s for s in jobs if s.args.get("status") == "cancelled"]
    if killed:
        joules = sum(float(s.args.get("energy_j", 0.0)) for s in killed)
        causes.append(Cause(
            0.5 * len(killed), "cancelled",
            f"{len(killed)} attempt{'s' if len(killed) != 1 else ''}"
            f" cancelled by the doom line after burning {joules:.1f} J"))

    # Wasted attempts: aborted/abandoned jobs of this workflow.
    wasted = [s for s in jobs
              if s.args.get("status") == "aborted"
              or s.args.get("abandoned")]
    if wasted:
        joules = sum(float(s.args.get("energy_j", 0.0)) for s in wasted)
        retry_s = sum(s.duration_s for s in wasted)
        causes.append(Cause(
            max(retry_s, 0.1 * joules), "retry_waste",
            f"{len(wasted)} attempt{'s' if len(wasted) != 1 else ''}"
            f" aborted/abandoned, burning {joules:.1f} J over"
            f" {retry_s:.2f}s"))

    benchmarks = {wf.name}
    functions = {s.name for s in jobs}
    in_window = [i for i in data.instants
                 if i["run"] == run
                 and wf.t0 - 1e-9 <= i["t"] <= wf.t1 + 1e-9]

    # Breaker fast-fails against this workflow's functions.
    fast_fails = [i for i in in_window
                  if i["name"] == "breaker_fast_fail"
                  and i["args"].get("function") in functions]
    if fast_fails:
        causes.append(Cause(
            0.5 * len(fast_fails), "breaker",
            f"circuit breaker open: {len(fast_fails)} fast-fail"
            f"{'s' if len(fast_fails) != 1 else ''} for"
            f" {sorted({i['args'].get('function') for i in fast_fails})}"))

    # Retries and timeouts of this workflow's functions in the window.
    for name, label in (("retry", "retried"),
                        ("invocation_timeout", "timed out")):
        hits = [i for i in in_window if i["name"] == name
                and i["args"].get("function") in functions]
        if hits:
            causes.append(Cause(
                0.4 * len(hits), "reliability",
                f"{len(hits)} invocation{'s' if len(hits) != 1 else ''}"
                f" {label} during this workflow"))

    # Decision instants carry the audit record's payload as args.
    def inputs(inst: dict) -> Dict[str, Any]:
        return inst["args"].get("inputs", {})

    def action(inst: dict) -> Dict[str, Any]:
        return inst["args"].get("action", {})

    # Tenant budget enforcement against this workflow's benchmark.
    throttles = [i for i in in_window
                 if i["name"] == "tenant_throttle"
                 and inputs(i).get("benchmark") in benchmarks]
    if throttles:
        tenant = inputs(throttles[0]).get("tenant", "?")
        budget = inputs(throttles[0]).get("budget_j")
        budget_text = (f" (budget {budget:.0f} J)"
                       if isinstance(budget, (int, float)) else "")
        dropped = sum(1 for i in throttles
                      if action(i).get("decision") != "throttled_admit")
        causes.append(Cause(
            0.6 * len(throttles), "tenant_budget",
            f"tenant '{tenant}' over its energy budget{budget_text}:"
            f" {len(throttles)} arrival{'s' if len(throttles) != 1 else ''}"
            f" throttled, {dropped} dropped, during this workflow"))

    # Power-cap governor steps that slowed the cluster in the window.
    tightens = [i for i in in_window if i["name"] == "power_cap_step"
                and action(i).get("direction") == "tighten"]
    if tightens:
        last = tightens[-1]
        ceiling = action(last).get("freq_ceiling_ghz")
        ceiling_text = (f", frequency ceiling {ceiling:.1f} GHz"
                        if isinstance(ceiling, (int, float)) else "")
        causes.append(Cause(
            0.5 * len(tightens), "power_cap",
            f"power cap epoch {action(last).get('epoch', '?')}:"
            f" {len(tightens)} tightening"
            f" step{'s' if len(tightens) != 1 else ''} under a"
            f" {inputs(last).get('cap_w', 0):.0f} W cap{ceiling_text}"))

    # Decisions made about this workflow by uid: a doomed chain, a
    # redispatch, and every such decision's reason verbatim.
    own = [i for i in data.instants
           if i["run"] == run and i["name"] in KINDS
           and i["args"].get("workflow_uid") == workflow_uid]
    for inst in own:
        if inst["name"] == "workflow_doomed":
            causes.append(Cause(
                2.0, "doomed",
                f"workflow doomed at t={inst['t']:.2f}s"
                f" (stage {inputs(inst).get('stage', '?')},"
                f" cause: {inputs(inst).get('cause', '?')}) — its doom"
                f" line passed and the remaining chain was written off"))
        elif inst["name"] == "ha_redispatch":
            causes.append(Cause(
                1.0, "ha",
                f"work redispatched to {action(inst).get('to', '?')} at"
                f" t={inst['t']:.2f}s after its node was suspected down"))

    # Queued attempts of this workflow dropped at dispatch as unmeetable.
    drops = [i for i in in_window if i["name"] == "doomed_drop"
             and i["args"].get("job") in job_uids]
    if drops:
        causes.append(Cause(
            0.8 * len(drops), "doomed",
            f"{len(drops)} queued attempt{'s' if len(drops) != 1 else ''}"
            f" dropped at dispatch: remaining work could not fit before"
            f" the doom line"))

    # Retries denied to this workflow's functions by the cluster budget.
    denials = [i for i in in_window
               if i["name"] == "retry_budget_exhausted"
               and inputs(i).get("function") in functions]
    if denials:
        causes.append(Cause(
            0.6 * len(denials), "retry_budget",
            f"{len(denials)} retr{'ies' if len(denials) != 1 else 'y'}"
            f" denied: the cluster-wide retry budget was exhausted"))

    for inst in own:
        reason = inst["args"].get("reason") or inst["name"]
        causes.append(Cause(
            0.3, "audit",
            f"{inst['name']}: {reason} (t={inst['t']:.2f}s)"))

    causes.sort(key=lambda c: (-c.score, c.kind, c.text))
    slo_s = float(wf.args.get("slo_s", 0.0))
    return {
        "run": run,
        "run_label": data.run_labels.get(run, "run"),
        "workflow_uid": workflow_uid,
        "benchmark": wf.name,
        "status": wf.args.get("status", "?"),
        "latency_s": wf.duration_s,
        "slo_s": slo_s,
        "missed_by_s": wf.duration_s - slo_s if slo_s else None,
        "jobs": sorted(job_uids),
        "causes": [c.to_dict() for c in causes],
    }


def format_explanation(result: Dict[str, Any]) -> str:
    lines = []
    slo = result["slo_s"]
    verdict = result["status"]
    if verdict == "completed":
        verdict = ("missed SLO" if slo and result["latency_s"] > slo
                   else "met SLO")
    lines.append(
        f"workflow {result['workflow_uid']} ({result['benchmark']})"
        f" in run {result['run']} ({result['run_label']}):"
        f" latency {result['latency_s']:.2f}s vs SLO {slo:.2f}s"
        f" — {verdict}")
    if not result["causes"]:
        lines.append("  no contributing causes found in the trace")
    else:
        lines.append("ranked causes:")
        for i, cause in enumerate(result["causes"], 1):
            lines.append(f"  {i}. {cause['text']}")
    return "\n".join(lines) + "\n"
