"""The decision audit log: structured "why" records from the control plane.

Every consequential control-plane decision — the MILP deadline split, a
pool resize/retune, an admission shed, a brownout level change, a
circuit-breaker trip, an HA failover or redispatch — emits one
:class:`AuditRecord` describing the inputs the decider saw, the action
it took, the alternatives it rejected, and a human-readable reason.
Records carry the workflow/job uid where one applies, so they join
against trace spans (and ``repro explain`` walks both together).

Like the tracer, the audit log is opt-in and read-only: hooks check
``env.audit is not None`` (the :class:`~repro.sim.engine.Environment`
default) before building any arguments, so unaudited runs are
bit-identical to the seed fingerprints.

Export is JSONL with sorted keys and a monotonic per-run sequence
number, which makes same-seed audit logs byte-identical — CI diffs two
of them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


#: The audit record kinds emitted by the control plane. Purely
#: documentary — the log accepts any kind string — but tests pin these.
KINDS = (
    "milp_split",      # workflow_controller: deadline split chosen
    "pool_retune",     # node refresh: pool resize / frequency retarget
    "admission_shed",  # guard: workflow rejected at the frontend
    "brownout_change", # guard: admission brownout level moved
    "breaker_trip",    # guard: a function's circuit breaker opened
    "ha_failover",     # ha: controller leadership changed
    "ha_redispatch",   # ha: in-flight work resubmitted elsewhere
    "tenant_throttle", # tenancy: over-budget tenant shed or throttled
    "power_cap_step",  # tenancy: governor moved the actuation ladder
    "workflow_doomed", # cancel: a chain was written off past its doom line
    "retry_budget_exhausted",  # cancel: a retry was denied by the budget
)


@dataclass
class AuditRecord:
    """One control-plane decision: what was seen, done, and rejected."""

    run: int
    seq: int            # monotonic within the run (total order)
    t: float
    kind: str           # one of KINDS
    actor: str          # deciding component, e.g. "node0", "frontend"
    inputs: Dict[str, Any] = field(default_factory=dict)
    action: Dict[str, Any] = field(default_factory=dict)
    alternatives: List[Dict[str, Any]] = field(default_factory=list)
    reason: str = ""
    workflow_uid: Optional[int] = None
    job_uid: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run,
            "seq": self.seq,
            "t": round(self.t, 9),
            "kind": self.kind,
            "actor": self.actor,
            "inputs": self.inputs,
            "action": self.action,
            "alternatives": self.alternatives,
            "reason": self.reason,
            "workflow_uid": self.workflow_uid,
            "job_uid": self.job_uid,
        }


class AuditLog:
    """Accumulates decision records across one or more runs."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[AuditRecord] = []
        self.run_labels: List[str] = []
        self._env = None
        self._run = -1
        self._seq = 0

    # ------------------------------------------------------------------
    # Run lifecycle (mirrors the tracer's)
    # ------------------------------------------------------------------
    def bind(self, env) -> None:
        """Attach to ``env``: timestamps come from it, hooks route here."""
        self._env = env
        env.audit = self

    def begin_run(self, label: str) -> None:
        self._run += 1
        self._seq = 0
        self.run_labels.append(label)

    @property
    def now(self) -> float:
        if self._env is None:
            raise RuntimeError("audit log is not bound to an environment")
        return self._env.now

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, actor: str, *,
               inputs: Optional[Dict[str, Any]] = None,
               action: Optional[Dict[str, Any]] = None,
               alternatives: Sequence[Dict[str, Any]] = (),
               reason: str = "",
               workflow_uid: Optional[int] = None,
               job_uid: Optional[int] = None) -> AuditRecord:
        t = self.now
        if self._run < 0:
            # Hooks fired before begin_run: open an anonymous run.
            self._run = 0
            self.run_labels.append("run")
        rec = AuditRecord(
            run=self._run, seq=self._seq, t=t, kind=kind, actor=actor,
            inputs=dict(inputs or {}), action=dict(action or {}),
            alternatives=[dict(a) for a in alternatives], reason=reason,
            workflow_uid=workflow_uid, job_uid=job_uid)
        self._seq += 1
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------
    # Introspection + export
    # ------------------------------------------------------------------
    def of_kind(self, kind: str, run: Optional[int] = None
                ) -> List[AuditRecord]:
        return [r for r in self.records
                if r.kind == kind and (run is None or r.run == run)]

    def for_workflow(self, workflow_uid: int, run: Optional[int] = None
                     ) -> List[AuditRecord]:
        return [r for r in self.records
                if r.workflow_uid == workflow_uid
                and (run is None or r.run == run)]

    def to_jsonl(self) -> str:
        """Byte-deterministic JSONL (sorted keys, stable float repr)."""
        lines = []
        for rec in self.records:
            lines.append(json.dumps(rec.to_dict(), sort_keys=True,
                                    separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> int:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return len(self.records)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read an audit JSONL file back into plain dicts (for explain)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
