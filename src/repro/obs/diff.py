"""``repro diff``: first-divergence attribution between fingerprinted runs.

Given two ``fingerprints.json`` documents (or one document holding two
arms of an A/B experiment), each in a run directory beside its
``trace.json`` (:data:`repro.obs.export.RUN_FILES`), this module
answers the three questions a whole-run fingerprint mismatch leaves
open:

* **where** — bisect each subsystem's per-epoch chain digests to the
  first diverging epoch (chain link ``e`` covers every epoch up to and
  including ``e``, so the first mismatch is binary-searchable), and rank
  the diverged subsystems in causal priority order: the point events,
  decisions included (``instants``), precede the rolled-up outcomes
  (``metrics``) and the energy attribution (``ledger``);
* **why** — join the exported trace's instants inside that first epoch
  and name the first diverging decision (an instant named in
  :data:`repro.obs.audit.KINDS`): its kind, actor, uids, time, reason, and
  which input/action keys differ; when every decision agrees, name the
  first diverging instant instead;
* **so what** — attribute the downstream deltas between the two runs:
  total energy and its split across the ledger's buckets (checked to
  re-sum to the total within the ledger's 1e-6 conservation tolerance),
  mean EWT, SLO misses per benchmark, and the cancel/retry counters.

Everything operates on the exported artifacts — never live objects — so
two runs recorded yesterday on different machines diff the same way as
two arms of one process. Same-seed, same-config runs produce identical
chains and the diff reports ``identical`` (exit 0 in the CLI).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.audit import KINDS
from repro.obs.export import TRACE_FILE, read_chrome_trace
from repro.obs.fingerprint import SUBSYSTEMS, load_document
from repro.obs.tracer import InstantRecord

#: Schema identifier of the JSON report ``repro diff --json`` writes.
DIFF_FORMAT = "repro.obs.diff/1"

#: Relative tolerance for the bucket-deltas-resum-to-total check
#: (matches ``EnergyLedger.TOLERANCE``).
REL_TOLERANCE = 1e-6

#: Manifest keys surfaced when two documents disagree about provenance.
MANIFEST_KEYS = ("experiment", "seed", "config_digest")


# ---------------------------------------------------------------------------
# Chain bisection
# ---------------------------------------------------------------------------
def first_mismatch(chain_a: List[str],
                   chain_b: List[str]) -> Optional[int]:
    """Index of the first diverging epoch, or None for identical chains.

    Uses the chain-cumulative property — link ``e`` digests every epoch
    ``<= e`` — to binary-search instead of scanning: if the links agree
    at ``mid``, every earlier epoch agreed too. A chain that is a strict
    prefix of the other diverges at the shorter length (the runs covered
    a different number of epochs).
    """
    n = min(len(chain_a), len(chain_b))
    if n == 0 or chain_a[n - 1] == chain_b[n - 1]:
        return None if len(chain_a) == len(chain_b) else n
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if chain_a[mid] == chain_b[mid]:
            lo = mid + 1
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Run alignment
# ---------------------------------------------------------------------------
def pair_entries(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
                 same_file: bool,
                 run_a: Optional[int] = None, run_b: Optional[int] = None
                 ) -> Tuple[List[Tuple[dict, dict]], List[str]]:
    """Align the two documents' runs into comparison pairs.

    Explicit ``--run-a/--run-b`` select one pair. Otherwise a single
    file with exactly two runs diffs its own arms (the A/B-experiment
    case), and two files align run-by-run at matching indices.
    """
    runs_a, runs_b = doc_a["runs"], doc_b["runs"]
    notes: List[str] = []

    def pick(runs: List[dict], index: int, side: str) -> dict:
        for entry in runs:
            if entry.get("run") == index:
                return entry
        raise ValueError(f"no run {index} in document {side}"
                         f" (has {sorted(e.get('run') for e in runs)})")

    if run_a is not None or run_b is not None:
        run_a = run_a if run_a is not None else 0
        run_b = run_b if run_b is not None else run_a
        return [(pick(runs_a, run_a, "A"), pick(runs_b, run_b, "B"))], notes
    if same_file:
        if len(runs_a) == 2:
            return [(runs_a[0], runs_a[1])], notes
        raise ValueError(
            f"diffing a document against itself needs --run-a/--run-b"
            f" unless it holds exactly two runs (it holds {len(runs_a)})")
    if not runs_a or not runs_b:
        raise ValueError("a fingerprints document has no runs to diff")
    if len(runs_a) != len(runs_b):
        notes.append(f"run counts differ: {len(runs_a)} in A vs"
                     f" {len(runs_b)} in B; comparing the first"
                     f" {min(len(runs_a), len(runs_b))} pair(s)")
    return list(zip(runs_a, runs_b)), notes


# ---------------------------------------------------------------------------
# The first diverging decision (trace instants join)
# ---------------------------------------------------------------------------
def _key_deltas(rec_a: Dict[str, Any], rec_b: Dict[str, Any]
                ) -> List[str]:
    """Top-level keys (and inputs/action sub-keys) that differ."""
    deltas = []
    for key in sorted(set(rec_a) | set(rec_b)):
        va, vb = rec_a.get(key), rec_b.get(key)
        if va == vb:
            continue
        if isinstance(va, dict) and isinstance(vb, dict):
            subkeys = sorted(k for k in set(va) | set(vb)
                             if va.get(k) != vb.get(k))
            deltas.append(f"{key}({', '.join(subkeys)})")
        else:
            deltas.append(key)
    return deltas


def _describe_divergence(records_a: List[dict], records_b: List[dict]
                         ) -> Optional[Dict[str, Any]]:
    """The first position where two in-epoch record streams disagree."""
    for index, (rec_a, rec_b) in enumerate(zip(records_a, records_b)):
        if rec_a == rec_b:
            continue
        return {"index": index, "a": rec_a, "b": rec_b,
                "differing_keys": _key_deltas(rec_a, rec_b)}
    if len(records_a) != len(records_b):
        index = min(len(records_a), len(records_b))
        longer, side = ((records_a, "a") if len(records_a) > len(records_b)
                        else (records_b, "b"))
        return {"index": index, "only_in": side, side: longer[index]}
    return None


#: Trace instants read back by absolute trace path (None: no trace there).
TraceCache = Dict[str, Optional[List[InstantRecord]]]


def _trace_instants(doc_path: str, traces: TraceCache
                    ) -> Optional[List[InstantRecord]]:
    """Every instant of the trace in the fingerprints document's run
    directory (None when it has none), parsed on first use only."""
    path = os.path.abspath(os.path.join(os.path.dirname(doc_path),
                                        TRACE_FILE))
    if path not in traces:
        traces[path] = (read_chrome_trace(path, spans=False).instants
                        if os.path.exists(path) else None)
    return traces[path]


def _epoch_instants(doc_path: str, run: int, epoch: int, epoch_s: float,
                    traces: TraceCache) -> Optional[List[dict]]:
    """The run's instants inside one epoch (None when the run directory
    has no trace). A decision comes back in its audit-record shape (kind,
    actor, t, then the payload), so a delta names the input/action keys
    that moved."""
    instants = _trace_instants(doc_path, traces)
    if instants is None:
        return None
    t0, t1 = epoch * epoch_s, (epoch + 1) * epoch_s
    records = []
    for i in instants:
        if i.run != run or not t0 <= i.t < t1:
            continue
        if i.name in KINDS:
            records.append({"kind": i.name, "actor": i.track,
                            "t": round(i.t, 6), **i.args})
        else:
            records.append({"name": i.name, "track": i.track,
                            "t": round(i.t, 6), "args": i.args})
    return records


def first_diverging_decision(path_a: str, path_b: str, run_a: int,
                             run_b: int, epoch: int, epoch_s: float,
                             traces: TraceCache
                             ) -> Tuple[Optional[dict], List[str]]:
    """Join the instants inside one epoch and name the first diverging
    decision, or else the first diverging instant; returns (decision,
    notes) where notes explain any degraded lookup. ``traces`` keeps
    parsed traces across calls."""
    records_a = _epoch_instants(path_a, run_a, epoch, epoch_s, traces)
    records_b = _epoch_instants(path_b, run_b, epoch, epoch_s, traces)
    if records_a is None or records_b is None:
        return None, [f"trace artifact missing on"
                      f" {'A' if records_a is None else 'B'}:"
                      f" cannot join epoch {epoch} instants"]
    decision = (_describe_divergence([r for r in records_a if "kind" in r],
                                     [r for r in records_b if "kind" in r])
                or _describe_divergence(records_a, records_b))
    if decision is not None:
        return decision, []
    return None, [f"instants inside epoch {epoch} are identical"]


# ---------------------------------------------------------------------------
# Downstream attribution
# ---------------------------------------------------------------------------
def _delta(a: Optional[float], b: Optional[float]
           ) -> Optional[Dict[str, float]]:
    if a is None or b is None:
        return None
    return {"a": float(a), "b": float(b), "delta": float(b) - float(a)}


def attribute(entry_a: Dict[str, Any], entry_b: Dict[str, Any]
              ) -> Dict[str, Any]:
    """The B−A deltas of every summarized downstream outcome."""
    sa, sb = entry_a.get("summary", {}), entry_b.get("summary", {})
    energy = _delta(sa.get("energy_total_j"), sb.get("energy_total_j"))
    comp_a, comp_b = (sa.get("energy_by_component"),
                      sb.get("energy_by_component"))
    by_component = None
    bucket_sum_ok = None
    if comp_a is not None and comp_b is not None:
        by_component = {c: float(comp_b.get(c, 0.0)) - float(
            comp_a.get(c, 0.0)) for c in sorted(set(comp_a) | set(comp_b))}
        if energy is not None:
            total = energy["delta"]
            bucket_sum = sum(by_component.values())
            scale = max(abs(sa["energy_total_j"]), abs(sb["energy_total_j"]),
                        1e-12)
            bucket_sum_ok = abs(bucket_sum - total) <= REL_TOLERANCE * scale
    misses = {}
    ma, mb = (sa.get("slo_misses_by_benchmark") or {},
              sb.get("slo_misses_by_benchmark") or {})
    for bench in sorted(set(ma) | set(mb)):
        change = int(mb.get(bench, 0)) - int(ma.get(bench, 0))
        if change:
            misses[bench] = change
    counts = {}
    ca, cb = sa.get("counts") or {}, sb.get("counts") or {}
    for key in sorted(set(ca) | set(cb)):
        change = int(cb.get(key, 0)) - int(ca.get(key, 0))
        if change:
            counts[key] = change
    return {
        "energy_total_j": energy,
        "energy_by_component_delta_j": by_component,
        "bucket_deltas_resum_to_total": bucket_sum_ok,
        "ewt_mean_s": _delta(sa.get("ewt_mean_s"), sb.get("ewt_mean_s")),
        "workflows_completed": _delta(sa.get("workflows_completed"),
                                      sb.get("workflows_completed")),
        "slo_miss_delta_by_benchmark": misses,
        "count_deltas": counts,
    }


# ---------------------------------------------------------------------------
# Whole-document diff
# ---------------------------------------------------------------------------
def diff_pair(entry_a: Dict[str, Any], entry_b: Dict[str, Any],
              path_a: str, path_b: str, epoch_s: float,
              traces: TraceCache) -> Dict[str, Any]:
    """Compare one aligned run pair; the per-pair report dict."""
    chains_a, chains_b = entry_a["chains"], entry_b["chains"]
    subsystems: Dict[str, Dict[str, Any]] = {}
    diverged: List[Tuple[str, int]] = []
    for sub in sorted(set(chains_a) | set(chains_b)):
        if sub not in chains_a or sub not in chains_b:
            subsystems[sub] = {
                "status": "only_a" if sub in chains_a else "only_b",
                "first_epoch": None}
            continue
        epoch = first_mismatch(chains_a[sub], chains_b[sub])
        if epoch is None:
            subsystems[sub] = {"status": "identical", "first_epoch": None}
        else:
            subsystems[sub] = {"status": "diverged", "first_epoch": epoch}
            diverged.append((sub, epoch))
    identical = (not diverged
                 and entry_a["final"] == entry_b["final"]
                 and all(s["status"] == "identical"
                         for s in subsystems.values()))
    pair: Dict[str, Any] = {
        "run_a": entry_a["run"], "run_b": entry_b["run"],
        "label_a": entry_a.get("label", "run"),
        "label_b": entry_b.get("label", "run"),
        "n_epochs": {"a": entry_a["n_epochs"], "b": entry_b["n_epochs"]},
        "final": {"a": entry_a["final"], "b": entry_b["final"],
                  "equal": entry_a["final"] == entry_b["final"]},
        "identical": identical,
        "subsystems": subsystems,
        "first": None,
        "decision": None,
        "attribution": None,
        # A document written before decisions joined the trace also
        # chains an "audit" subsystem.
        "notes": [f"subsystem '{sub}' is from an older fingerprints"
                  f" format: decisions are compared inside 'instants'"
                  for sub in sorted(set(chains_a) | set(chains_b))
                  if sub not in SUBSYSTEMS],
    }
    if identical:
        return pair
    if diverged:
        # Earliest epoch wins; the causal priority order breaks ties.
        rank = {sub: i for i, sub in enumerate(SUBSYSTEMS)}
        ordered = sorted(diverged,
                         key=lambda d: (d[1], rank.get(d[0], len(rank))))
        sub, epoch = ordered[0]
        pair["first"] = {"epoch": epoch, "subsystem": sub,
                         "t0_s": epoch * epoch_s,
                         "t1_s": (epoch + 1) * epoch_s}
        # Name the first diverging decision. The first diverging epoch
        # can hold no record-level delta — the ledger reclassifies
        # earlier joules retroactively (a retried attempt's energy
        # becomes retry_waste at the *later* retry decision) — so fall
        # forward to the epoch where the instants diverged.
        decision = None
        for epoch2 in sorted({epoch} | {e for s, e in diverged
                                        if s == "instants"}):
            decision, notes = first_diverging_decision(
                path_a, path_b, entry_a["run"], entry_b["run"], epoch2,
                epoch_s, traces)
            for note in notes:
                if note not in pair["notes"]:
                    pair["notes"].append(note)
            if decision is not None:
                if epoch2 != epoch:
                    pair["notes"].append(
                        f"first record-level delta sits in epoch"
                        f" {epoch2}: the epoch-{epoch} {sub} divergence"
                        f" is retroactive attribution of it")
                decision["epoch"] = epoch2
                break
        pair["decision"] = decision
    elif not pair["final"]["equal"]:
        pair["notes"].append(
            "final fingerprints differ but every shared chain agrees"
            " (the divergence is outside the chained subsystems)")
    pair["attribution"] = attribute(entry_a, entry_b)
    return pair


def diff_documents(path_a: str, path_b: Optional[str] = None,
                   run_a: Optional[int] = None,
                   run_b: Optional[int] = None) -> Dict[str, Any]:
    """Diff two fingerprints.json files (or one against itself)."""
    same_file = path_b is None or os.path.abspath(path_a) == \
        os.path.abspath(path_b)
    doc_a = load_document(path_a)
    doc_b = doc_a if same_file else load_document(path_b)
    real_b = path_a if same_file else path_b
    notes: List[str] = []
    if float(doc_a["epoch_s"]) != float(doc_b["epoch_s"]):
        raise ValueError(
            f"epoch lengths differ ({doc_a['epoch_s']}s vs"
            f" {doc_b['epoch_s']}s): chains are not comparable")
    man_a, man_b = doc_a.get("manifest", {}), doc_b.get("manifest", {})
    for key in MANIFEST_KEYS:
        if key in man_a and key in man_b and man_a[key] != man_b[key]:
            notes.append(f"manifest {key} differs:"
                         f" {man_a[key]!r} vs {man_b[key]!r}")
    pairs, pair_notes = pair_entries(doc_a, doc_b, same_file, run_a, run_b)
    notes.extend(pair_notes)
    epoch_s = float(doc_a["epoch_s"])
    # Each side's trace is parsed once for every pair and epoch joined.
    traces: TraceCache = {}
    compared = [diff_pair(ea, eb, path_a, real_b, epoch_s, traces)
                for ea, eb in pairs]
    return {
        "format": DIFF_FORMAT,
        "a": {"path": path_a, "manifest": man_a,
              "runs": len(doc_a["runs"])},
        "b": {"path": real_b, "manifest": man_b,
              "runs": len(doc_b["runs"])},
        "epoch_s": epoch_s,
        "identical": all(p["identical"] for p in compared) and not any(
            "run counts differ" in n for n in notes),
        "notes": notes,
        "pairs": compared,
    }


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------
def _short(digest_hex: str) -> str:
    return digest_hex[:12]


def _what(record: Dict[str, Any]) -> str:
    """A decision by its kind, actor and uids; any other instant by its
    name and track."""
    if "kind" not in record:
        return f"{record.get('name')} on {record.get('track')}"
    text = f"kind {record['kind']} actor {record.get('actor')}"
    for key, label in (("workflow_uid", "workflow"), ("job_uid", "job")):
        if record.get(key) is not None:
            text += f" {label} {record[key]}"
    return text


def _format_decision(decision: Dict[str, Any]) -> List[str]:
    where = f"#{decision['index']} in epoch {decision.get('epoch', '?')}"
    if "only_in" in decision:
        records = [decision[decision["only_in"]]]
        head = (f"only arm {decision['only_in'].upper()} has"
                f" {_what(records[0])} at t={records[0].get('t'):.3f}s")
    else:
        records = [decision["a"], decision["b"]]

        def both(text_of) -> str:
            va, vb = (text_of(r) for r in records)
            return va if va == vb else f"{va} vs {vb}"

        def seconds(record: Dict[str, Any]) -> str:
            return f"{record.get('t'):.3f}s"

        head = f"{both(_what)} at t={both(seconds)}"
    is_decision = all("kind" in r for r in records)
    noun = "decision" if is_decision else "trace instant"
    lines = [f"first diverging {noun} ({where}): {head}"]
    reasons = list(dict.fromkeys(r.get("reason") for r in records))
    if is_decision and any(reasons):
        lines.append(f"  reason: {' vs '.join(map(str, reasons))}")
    if "only_in" not in decision:
        keys = ", ".join(decision.get("differing_keys", [])) or "?"
        lines.append(f"  differs in: {keys}")
    return lines


def _format_attribution(attribution: Dict[str, Any]) -> List[str]:
    lines = ["downstream deltas (B − A):"]
    energy = attribution.get("energy_total_j")
    if energy is not None:
        lines.append(f"  energy: {energy['delta']:+.6f} J total"
                     f" ({energy['a']:.6f} → {energy['b']:.6f})")
        buckets = attribution.get("energy_by_component_delta_j")
        if buckets:
            for component, delta in buckets.items():
                if abs(delta) > 1e-12:
                    lines.append(f"    {component:<12} {delta:+.6f} J")
            check = attribution.get("bucket_deltas_resum_to_total")
            if check is not None:
                verdict = "within" if check else "OUTSIDE"
                lines.append(f"    (bucket deltas re-sum to the total"
                             f" {verdict} 1e-6)")
    ewt = attribution.get("ewt_mean_s")
    if ewt is not None:
        lines.append(f"  mean EWT: {ewt['delta']:+.6f} s"
                     f" ({ewt['a']:.6f} → {ewt['b']:.6f})")
    done = attribution.get("workflows_completed")
    if done is not None and done["delta"]:
        lines.append(f"  workflows completed: {done['delta']:+.0f}"
                     f" ({done['a']:.0f} → {done['b']:.0f})")
    misses = attribution.get("slo_miss_delta_by_benchmark")
    if misses:
        listing = ", ".join(f"{bench} {delta:+d}"
                            for bench, delta in misses.items())
        lines.append(f"  SLO misses: {listing}")
    counts = attribution.get("count_deltas")
    if counts:
        listing = ", ".join(f"{key} {delta:+d}"
                            for key, delta in counts.items())
        lines.append(f"  counts: {listing}")
    if len(lines) == 1:
        lines.append("  (no summarized outcome moved)")
    return lines


def format_diff(result: Dict[str, Any]) -> str:
    lines = [f"repro diff: {result['a']['path']} vs"
             f" {result['b']['path']}"]
    for note in result["notes"]:
        lines.append(f"note: {note}")
    for pair in result["pairs"]:
        lines.append(
            f"A: run {pair['run_a']} ({pair['label_a']}) —"
            f" {pair['n_epochs']['a']} epochs,"
            f" final {_short(pair['final']['a'])}")
        lines.append(
            f"B: run {pair['run_b']} ({pair['label_b']}) —"
            f" {pair['n_epochs']['b']} epochs,"
            f" final {_short(pair['final']['b'])}")
        if pair["identical"]:
            lines.append("identical: every chain and the final"
                         " fingerprint agree")
            continue
        first = pair["first"]
        if first is not None:
            agreeing = sorted(sub for sub, s in pair["subsystems"].items()
                              if s["status"] == "identical")
            lines.append(
                f"first divergence: epoch {first['epoch']}"
                f" [{first['t0_s']:.1f}s, {first['t1_s']:.1f}s)"
                f" in subsystem '{first['subsystem']}'")
            others = [f"{sub}@{s['first_epoch']}"
                      for sub, s in sorted(pair["subsystems"].items())
                      if s["status"] == "diverged"
                      and sub != first["subsystem"]]
            if others:
                lines.append(f"  also diverged: {', '.join(others)}")
            if agreeing:
                lines.append(f"  still identical: {', '.join(agreeing)}")
        if pair["decision"] is not None:
            lines.extend(_format_decision(pair["decision"]))
        for note in pair["notes"]:
            lines.append(f"note: {note}")
        if pair["attribution"] is not None:
            lines.extend(_format_attribution(pair["attribution"]))
    return "\n".join(lines) + "\n"
