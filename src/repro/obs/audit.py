"""The decision audit log: ``audit.jsonl``, rendered from the trace.

Every consequential control-plane decision — the MILP deadline split, a
pool retune, an admission shed, a brownout level change, a
circuit-breaker trip, an HA failover or redispatch, a tenant throttle, a
power-cap step, a doomed workflow, a denied retry — is recorded exactly
once, through :meth:`repro.obs.tracer.Tracer.decision`: an instant named
after the decision's kind, on the actor's track, whose args describe the
inputs the decider saw, the action it took, the alternatives it
rejected, a human-readable reason, and the workflow/job uid where one
applies. ``repro explain`` and ``repro diff`` read decisions from the
trace; untraced runs record none (the null tracer's ``decision`` is a
no-op).

``audit.jsonl`` is a second view of the same records: one JSON line per
decision instant, in trace order, with a per-run sequence number and
sorted keys, which makes same-seed logs byte-identical — CI compares two
of them directly.
"""

from __future__ import annotations

import json

#: The decision kinds emitted by the control plane. ``audit.jsonl``,
#: ``repro explain`` and ``repro diff`` treat the trace instants named
#: here as decisions; no other instant uses these names.
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


def write_jsonl(tracer, path: str) -> int:
    """Write the tracer's decisions to ``path`` as JSONL.

    Each line is one decision instant: its run, its sequence number
    within the run, its time rounded to 9 digits, its kind and actor,
    and its args. Returns the number of lines.
    """
    kinds = frozenset(KINDS)
    seq = {}
    lines = []
    for inst in tracer.instants:
        if inst.name not in kinds:
            continue
        n = seq[inst.run] = seq.get(inst.run, -1) + 1
        lines.append(json.dumps(
            {"run": inst.run, "seq": n, "t": round(inst.t, 9),
             "kind": inst.name, "actor": inst.track, **inst.args},
            sort_keys=True, separators=(",", ":")))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


class AuditLog:
    """A handle that writes the active tracer's ``audit.jsonl``.

    The benchmark harness in ``bench/`` installs one next to its tracer
    (:func:`repro.obs.install_audit` binds it to that tracer) and calls
    :meth:`write` after the run; ``repro.obs.write_run`` writes the same
    bytes.
    """

    def __init__(self) -> None:
        self.tracer = None

    def write(self, path: str) -> int:
        if self.tracer is None:
            raise RuntimeError("audit log is not bound to a tracer")
        return write_jsonl(self.tracer, path)
