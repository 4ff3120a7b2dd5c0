"""The assembled EcoFaaS system (Fig. 8)."""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import EcoFaaSConfig
from repro.core.node import EcoFaaSNode
from repro.core.profiles import ProfileStore
from repro.core.workflow_controller import WorkflowController
from repro.hardware.server import Server
from repro.platform.cluster import Cluster
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.system import ClusterSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.applications import Workflow


class EcoFaaSSystem(ClusterSystem):
    """EcoFaaS: Workflow Controllers + elastic Core Pools + dispatchers."""

    name = "EcoFaaS"

    def __init__(self, config: Optional[EcoFaaSConfig] = None):
        self.config = config or EcoFaaSConfig()
        self._store: Optional[ProfileStore] = None
        self._env: Optional[Environment] = None
        self._layers: Optional[Layers] = None
        self._controllers: Dict[str, WorkflowController] = {}

    @property
    def store(self) -> ProfileStore:
        if self._store is None:
            raise RuntimeError("no node created yet; the store is lazy")
        return self._store

    def make_node(self, env: Environment, server: Server,
                  metrics: MetricsCollector, rng: RngRegistry,
                  layers: Layers) -> EcoFaaSNode:
        if self._store is None:
            self._store = ProfileStore(server.scale, server.power,
                                       self.config, seed=rng.seed)
            self._env = env
            self._layers = layers
        return EcoFaaSNode(env, server, metrics, rng, self.config,
                           self._store, layers)

    def controller(self, workflow: Workflow) -> WorkflowController:
        """The per-application Workflow Controller (created lazily)."""
        if self._env is None or self._store is None:
            raise RuntimeError("create nodes before requesting controllers")
        if workflow.name not in self._controllers:
            self._controllers[workflow.name] = WorkflowController(
                self._env, workflow, self._store, self.config, self._layers)
        return self._controllers[workflow.name]

    def function_deadlines(self, workflow: Workflow, arrival_s: float,
                           slo_s: float) -> Optional[Dict[str, float]]:
        return self.controller(workflow).deadlines(arrival_s, slo_s)

    def on_workflow_arrival(self, cluster: Cluster, workflow: Workflow,
                            arrival_s: float,
                            deadlines: Optional[Dict[str, float]]) -> None:
        if self.config.prewarm and deadlines is not None:
            self.controller(workflow).prewarm(cluster, arrival_s, deadlines)
