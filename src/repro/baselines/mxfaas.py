"""Baseline: the MXFaaS serverless platform (no energy management).

Per Section VII: per-function core ownership, invocations multiplexed on
the function's own cores (context-switch-on-idle), every core pinned at the
highest frequency, and no deadlines — requests are simply served as fast as
possible.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.partitioned import PartitionedNode
from repro.hardware.server import Server
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.system import ClusterSystem, NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.applications import Workflow


class BaselineNode(PartitionedNode):
    """MXFaaS node: switch-on-idle at the top frequency."""

    switch_on_idle = True
    per_job_frequency = False


class BaselineSystem(ClusterSystem):
    """The paper's Baseline."""

    name = "Baseline"

    def make_node(self, env: Environment, server: Server,
                  metrics: MetricsCollector, rng: RngRegistry,
                  layers: Layers) -> NodeSystem:
        return BaselineNode(env, server, metrics, rng, layers)

    def function_deadlines(self, workflow: Workflow, arrival_s: float,
                           slo_s: float) -> Optional[Dict[str, float]]:
        """Baseline ignores SLOs: everything runs flat out."""
        return None
