"""Baseline+PowerCtrl: a Gemini-style DVFS layer on top of MXFaaS.

Per Section VII, this upper-bound comparison system:

* splits an application's SLO across functions *proportionally to their
  execution time at the highest frequency* (as Kraken/Fifer do);
* predicts each invocation's execution time at any frequency with 100 %
  accuracy (we read the invocation's ground-truth spec — a true oracle);
* assumes a *run-to-completion* model: a core is held through the
  invocation's I/O blocks, and queue-wait estimates include those blocks;
* re-programs the core to the chosen frequency at dispatch when it differs
  from the core's current one, paying the 10–20 ms sandboxed-userspace
  switch cost (functions live in containers and must cross the host/kernel
  boundary, Section III-4).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.partitioned import PartitionedNode
from repro.hardware.frequency import DvfsCostModel
from repro.hardware.server import Server
from repro.platform.job import Job
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.platform.scheduler import CorePoolScheduler
from repro.platform.system import ClusterSystem, NodeSystem
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads.applications import Workflow
from repro.workloads.model import FunctionModel


def proportional_deadlines(workflow: Workflow, arrival_s: float,
                           slo_s: float) -> Dict[str, float]:
    """Split an SLO proportionally to stage latency at the top frequency.

    Every function in a stage receives the stage's cumulative deadline
    (parallel members share it). Returns absolute deadlines.
    """
    if slo_s <= 0:
        raise ValueError(f"SLO must be positive: {slo_s}")
    stage_latencies = [stage.warm_latency(3.0) for stage in workflow.stages]
    total = sum(stage_latencies)
    deadlines: Dict[str, float] = {}
    elapsed = 0.0
    for stage, latency in zip(workflow.stages, stage_latencies):
        elapsed += slo_s * latency / total
        for fn in stage.functions:
            deadlines[fn.name] = arrival_s + elapsed
    return deadlines


class PowerCtrlNode(PartitionedNode):
    """MXFaaS node with the Gemini-style per-invocation DVFS layer."""

    switch_on_idle = False  # run-to-completion
    per_job_frequency = True

    def __init__(self, env: Environment, server: Server,
                 metrics: MetricsCollector, rng: RngRegistry,
                 layers: Layers):
        super().__init__(env, server, metrics, rng, layers)
        self._dvfs_cost = DvfsCostModel(rng=rng.stream("powerctrl/dvfs"))

    def switch_cost(self) -> float:
        return self._dvfs_cost.sandbox_cost()

    def choose_frequency(self, pool: CorePoolScheduler, job: Job,
                         fn_model: FunctionModel) -> None:
        """Lowest frequency whose oracle-predicted finish meets the deadline.

        Run-to-completion queueing: the wait behind the queue includes the
        blocked time of the jobs ahead, so jobs register their full service
        time (run + block) in the EWT counter.
        """
        scale = self.server.scale
        chosen = scale.max
        if job.deadline_s is not None:
            wait = pool.estimated_queue_seconds()
            budget = job.deadline_s - self.env.now - wait
            for freq in scale.levels:  # ascending: first fit is the lowest
                service = (job.remaining_run_seconds(freq)
                           + job.spec.total_block_seconds)
                if service <= budget:
                    chosen = freq
                    break
        job.chosen_freq_ghz = chosen
        job.registered_run_seconds = (
            job.remaining_run_seconds(chosen)
            + job.spec.total_block_seconds)
        if self.env.trace.enabled:
            self.env.trace.instant(
                "freq_choice", pool.name, job=job.job_id,
                function=job.function_name, chosen_ghz=chosen,
                deadline_s=job.deadline_s)


class PowerCtrlSystem(ClusterSystem):
    """The paper's Baseline+PowerCtrl."""

    name = "Baseline+PowerCtrl"

    def make_node(self, env: Environment, server: Server,
                  metrics: MetricsCollector, rng: RngRegistry,
                  layers: Layers) -> NodeSystem:
        return PowerCtrlNode(env, server, metrics, rng, layers)

    def function_deadlines(self, workflow: Workflow, arrival_s: float,
                           slo_s: float) -> Optional[Dict[str, float]]:
        return proportional_deadlines(workflow, arrival_s, slo_s)
