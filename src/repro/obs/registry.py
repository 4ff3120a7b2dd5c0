"""The shared name registries of the observability subsystem.

One place for the mappings that used to be duplicated between the
exporters and the newer ledger/burn-rate code:

* :data:`EPOCH_INSTANT_COLUMNS` — trace instant name → epoch-metrics
  column. :func:`repro.obs.export.epoch_rows` counts each named instant
  into its column; anything emitting a new countable instant adds one
  entry here and the epoch CSV/JSON picks it up everywhere at once.
* :data:`LEDGER_COMPONENTS` — the energy-attribution ledger's component
  taxonomy (see ``DESIGN.md`` §9), in presentation order.
* :data:`LEDGER_EPOCH_COLUMNS` — the per-epoch ledger columns derived
  from the taxonomy (``energy_<component>_j``).

This module deliberately imports nothing from the rest of ``repro`` so
both the tracer side and the exporter side can depend on it.
"""

from __future__ import annotations

#: Instant name → epoch-metrics column (counted per epoch).
EPOCH_INSTANT_COLUMNS = {
    "retry": "retries",
    "hedge": "hedges",
    "invocation_timeout": "timeouts",
    "preemption": "preemptions",
    "freq_transition": "freq_transitions",
    "ha_suspect": "ha_suspicions",
    "ha_redispatch": "ha_redispatches",
    "ha_failover": "ha_failovers",
    "ha_fenced": "ha_fenced",
    "ha_frozen": "ha_frozen",
    "slo_burn_fast": "slo_fast_burns",
    "slo_burn_slow": "slo_slow_burns",
    "tenant_throttle": "tenant_throttles",
    "power_cap_step": "power_cap_steps",
    "cancel": "cancels",
    "doomed_drop": "doomed_drops",
    "workflow_doomed": "workflows_doomed",
    "retry_budget_exhausted": "retry_budget_denials",
    "retry_budget_refund": "retry_budget_refunds",
}

#: The ledger's component taxonomy: every metered joule lands in exactly
#: one of these (conservation is validated against the hardware meters).
LEDGER_COMPONENTS = (
    "run",          # productive run-segment energy of winning attempts
    "block",        # cores held idle through a job's I/O block (RTC mode)
    "cold_start",   # container-boot setup work, prewarms included
    "idle",         # unheld idle cores
    "freq_switch",  # DVFS transition stalls and idle retunes
    "retry_waste",  # attempts later aborted or abandoned (wasted work)
    "cancelled",    # joules already burned by attempts the cancel layer killed
    "doomed",       # completed work inside workflows doomed mid-chain
    "shed",         # work executed for workflows that ultimately failed
    "static",       # background uncore + DRAM standby power
)

#: Per-epoch ledger columns added to the epoch metrics when a ledger is
#: attached to the tracer.
LEDGER_EPOCH_COLUMNS = tuple(f"energy_{c}_j" for c in LEDGER_COMPONENTS)
