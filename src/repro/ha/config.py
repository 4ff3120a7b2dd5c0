"""HA tunables: heartbeats, the phi detector, leases, re-dispatch.

An :class:`HAConfig` switches on the high-availability layer of
``repro.ha``. Like the guard layer it is fully opt-in — a
:class:`Cluster` built without one runs its HA runtime inert, matching
the pre-HA code byte-for-byte —
and every HA decision is a pure function of simulation time and observed
state (no random draws), so HA-armed runs are exactly as deterministic
as plain ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: How often standbys check the lease for expiry, seconds.
ELECTION_PERIOD_S = 0.25


def _require_finite(name: str, value: float) -> None:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite: {value}")


def _require_positive(name: str, value: float) -> None:
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive: {value}")


@dataclass(frozen=True)
class HAConfig:
    """The high-availability policy of one cluster.

    **Failure detection.** Every node controller sends the frontend a
    heartbeat each :data:`~repro.ha.runtime.HEARTBEAT_PERIOD_S`; each
    heartbeat travels over the simulated RPC layer with
    :data:`~repro.ha.runtime.HEARTBEAT_LATENCY_S` of flight time, scaled
    by the node's current RPC slowdown factor (so RPC-spike faults
    visibly jitter arrival times). The frontend feeds arrival intervals
    into a phi-accrual detector (Hayashibara et al.): the suspicion
    level ``phi = -log10 P(next heartbeat still arrives)`` under a
    normal model of the trailing
    :data:`~repro.ha.detector.DETECTOR_WINDOW` intervals, with the
    interval standard deviation floored at
    :data:`~repro.ha.detector.MIN_INTERVAL_STD_S` so perfectly regular
    simulated heartbeats do not make the detector hair-triggered. A
    node is *suspected* when ``phi > phi_threshold`` and declared *dead*
    after a further ``dead_after_s`` without a heartbeat; a fresh
    heartbeat revives either state.

    **Controller failover.** ``n_controllers`` global-controller
    replicas (``ctl0`` the initial leader) share an epoch-numbered
    lease of ``lease_s`` seconds, renewed at half-lease cadence while
    leader and frontend can exchange messages. Standbys check the lease
    every :data:`ELECTION_PERIOD_S`; when it has expired, the election
    rule is deterministic: the lowest-id replica that is up and
    reachable from the frontend becomes leader with ``epoch + 1``.
    Pool-resize and MILP-split decisions carry the deciding replica's
    epoch; consumers remember the highest epoch they have seen and
    reject (fence) decisions from any lower epoch, so a partitioned
    stale leader can never mutate pool state.

    **Recovery.** With ``redispatch`` on, an in-flight invocation whose
    node becomes suspected is re-dispatched — exactly once per
    idempotency key, through a journal — to a non-suspected node;
    duplicate completions caused by false suspicion are fenced.
    """

    #: Suspicion threshold on the phi scale (8 ~ 1e-8 false-alarm odds).
    phi_threshold: float = 8.0
    #: Suspected -> dead after this long without a heartbeat, seconds.
    dead_after_s: float = 5.0
    #: Global-controller replicas (leader + standbys).
    n_controllers: int = 3
    #: Leader lease length, seconds (renewed at half-lease cadence).
    lease_s: float = 2.0
    #: Re-dispatch invocations stranded on suspected nodes.
    redispatch: bool = True

    def __post_init__(self) -> None:
        _require_positive("phi_threshold", self.phi_threshold)
        _require_positive("dead_after_s", self.dead_after_s)
        if self.n_controllers < 1:
            raise ValueError(
                f"n_controllers must be >= 1: {self.n_controllers}")
        _require_positive("lease_s", self.lease_s)
        if self.lease_s <= ELECTION_PERIOD_S:
            raise ValueError(
                f"lease_s ({self.lease_s}) must exceed the election period"
                f" ({ELECTION_PERIOD_S}) or the lease can expire"
                f" between checks of the replica that holds it")
