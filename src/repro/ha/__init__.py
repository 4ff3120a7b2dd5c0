"""repro.ha — failure detection, partition tolerance, controller failover.

The high-availability layer of the reproduced platform. Everything here
is opt-in: a :class:`Cluster` built without an :class:`HAConfig` runs its
:class:`HARuntime` inert and matches a run without the layer
byte-for-byte (the determinism suite pins this to the stored seed
fingerprints). The runtime is ``cluster.ha``; armed, it provides:

* a :class:`LinkTable` as ``cluster.ha.links`` — the directed
  network-partition model that ``repro.faults`` cuts and heals;
* heartbeat-driven phi-accrual failure detection and membership,
  epoch-fenced controller leases with deterministic failover, and
  idempotency-keyed re-dispatch of stranded invocations.
"""

from repro.ha.config import HAConfig
from repro.ha.controller import ControllerGroup, ControllerReplica
from repro.ha.detector import (
    ALIVE,
    DEAD,
    SUSPECTED,
    MembershipTable,
    PhiAccrualDetector,
)
from repro.ha.journal import RedispatchJournal
from repro.ha.links import LinkTable
from repro.ha.runtime import FRONTEND, HARuntime

__all__ = [
    "ALIVE",
    "DEAD",
    "SUSPECTED",
    "ControllerGroup",
    "ControllerReplica",
    "FRONTEND",
    "HAConfig",
    "HARuntime",
    "LinkTable",
    "MembershipTable",
    "PhiAccrualDetector",
    "RedispatchJournal",
]
