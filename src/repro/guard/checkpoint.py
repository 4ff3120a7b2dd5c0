"""Controller checkpoints: periodic snapshots, staleness-bounded restore.

Node controllers rebuild to cold state after a crash (the
``repro.faults`` reboot hook) — the safe but expensive choice: a rebooted
EcoFaaS node collapses back to one max-frequency pool and re-learns its
pool shape over several ``T_refresh`` windows. A :class:`CheckpointStore`
keeps each node's latest control-state snapshot so the reboot can resume
from it instead, unless the snapshot has aged past the staleness bound
(stale control state is worse than cold state).

What a snapshot holds is controller-specific and opaque here: nodes
expose ``checkpoint_state()`` / ``restore_state()`` hooks (see
:class:`repro.platform.system.NodeSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: A snapshot older than this at reboot is discarded, seconds: cold
#: state is safer than stale state.
MAX_STALENESS_S = 10.0


@dataclass(frozen=True)
class ControllerCheckpoint:
    """One node controller snapshot."""

    taken_at_s: float
    state: Dict[str, Any]


class CheckpointStore:
    """Latest checkpoint per node, with staleness-bounded lookup."""

    def __init__(self) -> None:
        self._latest: Dict[int, ControllerCheckpoint] = {}
        #: Snapshots taken (all nodes, all periods).
        self.taken = 0

    def take(self, node_id: int, now: float,
             state: Optional[Dict[str, Any]]) -> bool:
        """Store ``state`` as the node's latest snapshot (None = no-op)."""
        if state is None:
            return False
        self._latest[node_id] = ControllerCheckpoint(now, state)
        self.taken += 1
        return True

    def fresh(self, node_id: int, now: float
              ) -> Optional[ControllerCheckpoint]:
        """The node's latest snapshot, or None if absent or too stale."""
        checkpoint = self._latest.get(node_id)
        if checkpoint is None:
            return None
        if now - checkpoint.taken_at_s > MAX_STALENESS_S:
            return None
        return checkpoint

    def latest(self, node_id: int) -> Optional[ControllerCheckpoint]:
        return self._latest.get(node_id)
