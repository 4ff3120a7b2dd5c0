"""Canonical run fingerprints and progressive per-epoch chain digests.

This module is the single home of the canonical-JSON digest that every
determinism anchor in the repo shares (it used to live twice, as
``tests/fingerprints.py::_canon`` and ``repro.verify.fuzz::_canonical``):

* :func:`canon` / :func:`canonical_json` — a JSON-stable, full-precision
  form of any metrics value (floats via ``repr``, numpy scalars
  unwrapped, dict keys stringified and sorted, dataclasses by field);
* :func:`cluster_fingerprint` — the whole-run SHA-256 over every
  observable outcome of one finalized cluster. The stored seed
  fingerprints (``tests/data/seed_fingerprint.json``) and the shrunk
  fuzz-corpus artifacts (``corpus/``) pin this digest byte-for-byte, so
  its payload and serialization must never drift silently.

On top of the whole-run digest it adds **progressive fingerprints**: a
:class:`FingerprintRecorder` attached to a tracer
(``Tracer(fingerprint=FingerprintRecorder())``) that, when a run closes,
folds each observability stream into a rolling SHA-256 **chain** per
epoch and per subsystem:

* ``metrics`` — the per-epoch metrics row (invocations, energy, p50/p99,
  SLO violations, every counter column);
* ``ledger`` — per-epoch joules per attribution component (present when
  the tracer carries an :class:`~repro.obs.ledger.EnergyLedger`);
* ``instants`` — every trace instant inside the epoch, the control-plane
  decisions (:mod:`repro.obs.audit`) included.

Chain link ``e`` is ``sha256(chain[e-1] + "\\n" + payload_json[e])``, so
two runs' chains agree at epoch ``e`` iff every epoch up to and
including ``e`` agreed — which is what lets ``repro diff`` *bisect* two
chains to the first diverging epoch instead of comparing full payloads.

The recorder only reads recorded tracer/ledger state after the
run has finished: fingerprints-on runs are bit-identical to the stored
seed fingerprints, including under chaos. Everything serializes to a
small ``fingerprints.json`` artifact (:meth:`FingerprintRecorder.write`)
alongside a run **manifest** (seed, config digest, artifact paths).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, List, Optional

try:  # numpy is the repo's one hard dependency, but keep this importable
    import numpy as _np
    _BOOL_TYPES: tuple = (bool, _np.bool_)
    _FLOAT_TYPES: tuple = (float, _np.floating)
    _INT_TYPES: tuple = (int, _np.integer)
except ImportError:  # pragma: no cover - numpy is baked into the image
    _BOOL_TYPES = (bool,)
    _FLOAT_TYPES = (float,)
    _INT_TYPES = (int,)

#: Artifact schema identifier of a fingerprints.json document.
FORMAT = "repro.obs.fingerprint/1"

#: Chain subsystems in diff-priority order: the point events, decisions
#: included (instants), precede the rolled-up outcomes (metrics) and the
#: energy attribution (ledger).
SUBSYSTEMS = ("instants", "metrics", "ledger")

#: Instant names rolled into the per-run summary counts, as
#: ``summary["counts"][<key>]`` (a compact cross-run attribution view).
SUMMARY_INSTANTS = (
    ("retry", "retries"),
    ("hedge", "hedges"),
    ("invocation_timeout", "timeouts"),
    ("cancel", "cancels"),
    ("doomed_drop", "doomed_drops"),
    ("workflow_doomed", "workflows_doomed"),
    ("retry_budget_exhausted", "retry_budget_denials"),
    ("admission_shed", "admission_sheds"),
    ("tenant_throttle", "tenant_throttles"),
    ("ha_redispatch", "ha_redispatches"),
)


# ---------------------------------------------------------------------------
# Canonical JSON (the shared digest substrate)
# ---------------------------------------------------------------------------
def canon(value: Any) -> Any:
    """A JSON-stable, full-precision form of any metrics value."""
    if isinstance(value, _BOOL_TYPES):
        return bool(value)
    if isinstance(value, _FLOAT_TYPES):
        return repr(float(value))
    if isinstance(value, _INT_TYPES):
        return int(value)
    if isinstance(value, dict):
        return {repr(k) if isinstance(k, float) else str(k): canon(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


def canonical_json(value: Any) -> str:
    """The one serialization every digest in the repo is built on.

    ``sort_keys=True`` with the default separators — the stored seed
    fingerprints and corpus artifacts were produced with exactly this
    call, so changing it invalidates every pinned digest at once.
    """
    return json.dumps(canon(value), sort_keys=True)


def digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def chain_seed(subsystem: str) -> str:
    """The genesis link of one subsystem's epoch chain."""
    return hashlib.sha256(f"{FORMAT}/{subsystem}".encode()).hexdigest()


def chain_digest(previous: str, payload_json: str) -> str:
    """One rolling-chain step: ``sha256(prev + "\\n" + payload)``."""
    return hashlib.sha256(
        (previous + "\n" + payload_json).encode()).hexdigest()


def fold_chain(subsystem: str, payload_jsons: List[str]) -> List[str]:
    """Fold canonical epoch payloads into the full chain-digest list."""
    link = chain_seed(subsystem)
    chain: List[str] = []
    for payload in payload_jsons:
        link = chain_digest(link, payload)
        chain.append(link)
    return chain


# ---------------------------------------------------------------------------
# The whole-run fingerprint (the determinism anchor)
# ---------------------------------------------------------------------------
def cluster_outcome(cluster) -> Dict[str, Any]:
    """Every observable outcome of one finalized cluster, canonicalized.

    This is the pinned payload behind the stored seed fingerprints and
    the fuzz-corpus artifacts: extend it only when baseline behaviour is
    *meant* to change (and regenerate both).
    """
    m = cluster.metrics
    return canon({
        "functions": m.function_records,
        "workflows": m.workflow_records,
        "retries": m.retries,
        "hedges": m.hedges,
        "timeouts": m.timeouts,
        "failures": m.failures,
        "lost": m.lost_invocations,
        "failed_workflows": m.failed_workflows,
        "retry_energy_j": m.retry_energy_j,
        "energy": [s.meter.total_j for s in cluster.servers],
    })


def cluster_fingerprint(cluster) -> str:
    """SHA-256 over every observable outcome of one finalized cluster."""
    blob = json.dumps(cluster_outcome(cluster), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Progressive per-epoch chains
# ---------------------------------------------------------------------------
class FingerprintRecorder:
    """Builds per-epoch, per-subsystem chain digests for recorded runs.

    Attach one to a tracer (``Tracer(fingerprint=FingerprintRecorder())``)
    and the experiment harness closes it after each run; or call
    :meth:`close_run` directly with a finalized cluster and its tracer.
    Entries accumulate across runs (one per experiment arm), and
    :meth:`write` serializes them — with an optional manifest — to a
    ``fingerprints.json`` document ``repro diff`` consumes.
    """

    def __init__(self, epoch_s: float = 2.0):
        if epoch_s <= 0:
            raise ValueError(f"epoch length must be positive: {epoch_s}")
        self.epoch_s = epoch_s
        #: One JSON-ready entry per closed run.
        self.entries: List[Dict[str, Any]] = []
        #: Canonical epoch-payload strings per run index per subsystem —
        #: kept in memory (never serialized) so the verify layer can
        #: independently recompute the chains as a self-check.
        self.payloads: Dict[int, Dict[str, List[str]]] = {}

    # ------------------------------------------------------------------
    # Closing a run
    # ------------------------------------------------------------------
    def close_run(self, cluster, tracer) -> Dict[str, Any]:
        """Fold the just-finished run into chains; returns its entry."""
        # deferred: avoids an import cycle
        from repro.obs.export import records_by_run, run_epochs
        from repro.obs.registry import LEDGER_COMPONENTS, LEDGER_EPOCH_COLUMNS
        tracer.finish_run()
        run = tracer._run
        label = (tracer.run_labels[run]
                 if 0 <= run < len(tracer.run_labels) else "run")
        epoch_s = self.epoch_s
        # Only this run's records are binned: earlier runs were folded
        # when they closed.
        records = records_by_run(tracer, run)[run]
        rows = run_epochs(tracer, run, records, epoch_s)
        n_epochs = len(rows)

        def bin_of(t: float) -> int:
            return max(0, min(n_epochs - 1, int(t / epoch_s)))

        # metrics: the epoch row minus run identity and ledger columns
        # (the ledger stream chains separately, at component granularity).
        strip = {"run", "system"} | set(LEDGER_EPOCH_COLUMNS)
        payloads: Dict[str, List[str]] = {
            "metrics": [canonical_json({k: v for k, v in row.items()
                                        if k not in strip})
                        for row in rows],
        }

        # instants: every point event, minus the run index (two files'
        # arms may sit at different run indices yet be identical runs).
        instant_bins: List[List[Dict[str, Any]]] = [[] for _ in rows]
        for inst in records.instants:
            instant_bins[bin_of(inst.t)].append({
                "name": inst.name, "track": inst.track,
                "t": round(inst.t, 9), "args": inst.args})
        payloads["instants"] = [canonical_json(bin) for bin in instant_bins]

        # ledger: per-epoch joules per component, when one is attached
        # and this run was closed (entries classified); the rows' ledger
        # columns hold them.
        ledger = getattr(tracer, "ledger", None)
        if ledger is not None and any(r.run == run for r in ledger.reports):
            payloads["ledger"] = [
                canonical_json({c: row[column] for c, column
                                in zip(LEDGER_COMPONENTS,
                                       LEDGER_EPOCH_COLUMNS)})
                for row in rows]

        entry = {
            "run": run,
            "label": label,
            "final": cluster_fingerprint(cluster),
            "n_epochs": n_epochs,
            "chains": {sub: fold_chain(sub, payloads[sub])
                       for sub in payloads},
            "summary": self._summary(cluster, records, run, ledger),
        }
        self.entries.append(entry)
        self.payloads[run] = payloads
        return entry

    def _summary(self, cluster, records, run: int,
                 ledger) -> Dict[str, Any]:
        """The compact attribution rollup ``repro diff`` reports from."""
        misses: Dict[str, int] = {}
        workflows = completed = 0
        for span in records.spans:
            if span.kind != "workflow":
                continue
            workflows += 1
            if span.args.get("status") != "completed":
                continue
            completed += 1
            if not span.args.get("met_slo", True):
                misses[span.name] = misses.get(span.name, 0) + 1
        counts = {key: 0 for _, key in SUMMARY_INSTANTS}
        names = dict(SUMMARY_INSTANTS)
        for inst in records.instants:
            key = names.get(inst.name)
            if key is not None:
                counts[key] += 1
        # Cluster-wide EWT: counter samples arrive node-by-node at the
        # same timestamps; sum per timestamp, then average over time.
        ewt_by_t: Dict[float, float] = {}
        for sample in records.counters:
            if sample.series == "ewt_s":
                ewt_by_t[sample.t] = ewt_by_t.get(sample.t, 0.0) \
                    + sample.value
        ewt_mean = (sum(ewt_by_t.values()) / len(ewt_by_t)
                    if ewt_by_t else None)
        by_component = None
        if ledger is not None and any(r.run == run for r in ledger.reports):
            by_component = {k: float(v)
                            for k, v in ledger.by_component(run).items()}
        return {
            "energy_total_j": float(cluster.total_energy_j),
            "energy_by_component": by_component,
            "workflows": workflows,
            "workflows_completed": completed,
            "slo_misses_by_benchmark": dict(sorted(misses.items())),
            "ewt_mean_s": ewt_mean,
            "counts": counts,
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def document(self, manifest: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
        """The JSON-ready fingerprints document (payloads stay local)."""
        return {
            "format": FORMAT,
            "epoch_s": self.epoch_s,
            "manifest": dict(manifest or {}),
            "runs": [dict(entry) for entry in self.entries],
        }

    def write(self, path: str,
              manifest: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        document = self.document(manifest)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return document


def load_document(path: str) -> Dict[str, Any]:
    """Read and validate one fingerprints.json document."""
    with open(path) as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise ValueError(
            f"not a fingerprints document (format="
            f"{document.get('format')!r}"
            if isinstance(document, dict) else
            "not a fingerprints document (top level is not an object)")
    runs = document.get("runs")
    if not isinstance(runs, list):
        raise ValueError("fingerprints document has no runs list")
    epoch_s = document.get("epoch_s")
    if not isinstance(epoch_s, (int, float)) or not math.isfinite(epoch_s) \
            or epoch_s <= 0:
        raise ValueError(f"bad epoch_s in fingerprints document: {epoch_s!r}")
    return document
