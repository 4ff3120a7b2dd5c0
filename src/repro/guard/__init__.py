"""repro.guard — overload protection and graceful degradation.

Four opt-in guard families for the EcoFaaS control plane:

- **Admission control** (:mod:`repro.guard.admission`): per-function
  token buckets and EWT-driven brownout shedding at the frontend.
- **Circuit breakers** (:mod:`repro.guard.breaker`): per-function
  closed/open/half-open breakers that stop retry storms.
- **Safe mode** (:mod:`repro.guard.safemode`): prediction sanity
  screening, deadline-split label budgets, DPT staleness pinning.
- **Checkpoints** (:mod:`repro.guard.checkpoint`): periodic controller
  snapshots with staleness-bounded restore on crash recovery, plus a
  refresh watchdog.

Everything is opt-in: a cluster whose config carries no
:class:`GuardConfig` runs its guard runtime with every family off and
produces bit-identical results (regression-tested against a stored
fingerprint).
"""

from repro.guard.admission import (
    SHED_BROWNOUT,
    SHED_OVERLOAD,
    SHED_RATE_LIMIT,
    AdmissionController,
    TokenBucket,
)
from repro.guard.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.guard.checkpoint import CheckpointStore, ControllerCheckpoint
from repro.guard.config import AdmissionConfig, BreakerConfig, GuardConfig
from repro.guard.runtime import GuardRuntime
from repro.guard.safemode import PredictionGuard

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BreakerBoard",
    "BreakerConfig",
    "CheckpointStore",
    "CircuitBreaker",
    "ControllerCheckpoint",
    "GuardConfig",
    "GuardRuntime",
    "PredictionGuard",
    "TokenBucket",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "SHED_BROWNOUT",
    "SHED_OVERLOAD",
    "SHED_RATE_LIMIT",
]
