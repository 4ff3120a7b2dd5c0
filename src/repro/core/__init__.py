"""EcoFaaS: the paper's primary contribution.

The energy-management framework of Sections V–VI:

* :mod:`~repro.core.ewma` — EWMA with Holt-Winters trend and adaptive
  (Trigg-Leach) smoothing.
* :mod:`~repro.core.history` — the per-function History Table (Fig. 11).
* :mod:`~repro.core.mlp` — the 3-layer ReLU network for input-aware
  execution-time prediction (Section VI-E2), in NumPy, trained online.
* :mod:`~repro.core.predictor` — per-function frequency profiles: estimate
  ``T_Run`` / ``T_Block`` / ``Energy`` at any frequency from measurements
  at a few frequencies.
* :mod:`~repro.core.dpt` — the Delay-Power Table and SLO → per-function
  deadline splitting (Section VI-A): an exact stage-Pareto solver for the
  paper's MILP, plus an exhaustive cross-check.
* :mod:`~repro.core.transfer` — linear-regression transfer learning across
  heterogeneous server types (Section VI-E3).
* :mod:`~repro.core.dispatcher` — the Energy-Aware Function Dispatcher
  (Section VI-B) with the three boost strategies of Section VI-D.
* :mod:`~repro.core.node` — Core Pools, the per-node elastic controller,
  and the EcoFaaS :class:`~repro.platform.system.NodeSystem`.
* :mod:`~repro.core.workflow_controller` — the SLO-aware Workflow
  Controller with container prewarming (Sections VI-A, VI-E1).
* :mod:`~repro.core.system` — the assembled
  :class:`~repro.platform.system.ClusterSystem`.
"""

from repro.core.config import EcoFaaSConfig
from repro.core.dpt import DelayPowerTable, split_deadlines
from repro.core.ewma import AdaptiveEwma
from repro.core.history import HistoryTable
from repro.core.mlp import MLPRegressor
from repro.core.predictor import FrequencyProfile
from repro.core.system import EcoFaaSSystem
from repro.core.transfer import TransferModel

__all__ = [
    "AdaptiveEwma",
    "DelayPowerTable",
    "EcoFaaSConfig",
    "EcoFaaSSystem",
    "FrequencyProfile",
    "HistoryTable",
    "MLPRegressor",
    "TransferModel",
    "split_deadlines",
]
