"""Deadline-propagating cancellation & adaptive retry budgets.

Opt-in via :class:`CancelConfig` on :class:`ClusterConfig` (the guard /
HA pattern): with no config, the cluster's cancel runtime is inert and
the run is byte-identical to one without the layer. Armed, the layer
kills doomed work before it burns joules — hedged losers, timed-out
attempts, queued jobs whose deadline is already unmeetable, and
workflow chains past their doom line — and caps cluster-wide retries
with a token budget so per-invocation retry policies cannot compound
into a retry storm (the metastable-failure mode the ``retrystorm``
experiment demonstrates).
"""

from repro.cancel.budget import RetryBudget, RetryTokenPool
from repro.cancel.config import (
    CancelConfig,
    DeadlineConfig,
    RetryBudgetConfig,
)
from repro.cancel.runtime import CancelRuntime

__all__ = [
    "CancelConfig",
    "CancelRuntime",
    "DeadlineConfig",
    "RetryBudget",
    "RetryBudgetConfig",
    "RetryTokenPool",
]
