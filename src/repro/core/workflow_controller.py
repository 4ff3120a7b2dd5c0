"""The SLO-Aware Workflow Controller (Sections VI-A, VI-E1).

One controller per application. It maintains the Delay-Power Table from
the functions' shared profiles, re-solves the MILP deadline split every
``T_update``, hands out absolute per-function deadlines at admission, and
prewarms missing containers off the critical path at the lowest frequency
that still beats the predecessors' deadlines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.baselines.powerctrl import proportional_deadlines
from repro.core.config import EcoFaaSConfig
from repro.core.dpt import DeadlineSplit, DelayPowerTable, split_deadlines
from repro.core.profiles import ProfileStore
from repro.platform.layers import Layers
from repro.sim.engine import Environment
from repro.workloads.applications import Workflow

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import Cluster


class WorkflowController:
    """Per-application SLO splitting and prewarming."""

    def __init__(self, env: Environment, workflow: Workflow,
                 store: ProfileStore, config: EcoFaaSConfig,
                 layers: Layers):
        self.env = env
        self.layers = layers
        self.workflow = workflow
        self.store = store
        self.config = config
        self.dpt = DelayPowerTable(store.scale)
        self._split: Optional[DeadlineSplit] = None
        self._split_computed_at = -float("inf")
        self._last_slo: Optional[float] = None
        #: Statistics.
        self.milp_runs = 0

    # ------------------------------------------------------------------
    # Deadline assignment
    # ------------------------------------------------------------------
    def deadlines(self, arrival_s: float, slo_s: float) -> Dict[str, float]:
        """Absolute per-function deadlines for one admission."""
        if self._stale(slo_s):
            if self.layers.ha.authorize_split(self.workflow.name):
                self._recompute(slo_s)
            # Epoch fencing (repro.ha): with no authorized leader the
            # previous split stays in force; the next admission retries.
        if self._split is None:
            # Profiles are not ready: proportional split (the same policy
            # Baseline+PowerCtrl uses) until the DPT is populated.
            return proportional_deadlines(self.workflow, arrival_s, slo_s)
        return self._split.function_deadlines(self.workflow, arrival_s)

    def _stale(self, slo_s: float) -> bool:
        if self._last_slo is None or abs(slo_s - self._last_slo) > 1e-9:
            return True
        return (self.env.now - self._split_computed_at
                >= self.config.t_update_s)

    def _recompute(self, slo_s: float) -> None:
        self._split_computed_at = self.env.now
        self._last_slo = slo_s
        trace = self.env.trace
        if not all(self.store.ready(fn.name)
                   for fn in self.workflow.functions):
            self._split = None
            if trace.enabled:
                pending = [fn.name for fn in self.workflow.functions
                           if not self.store.ready(fn.name)]
                trace.decision(
                    "milp_split", f"controller:{self.workflow.name}",
                    inputs={"slo_s": slo_s, "profiles_pending": pending},
                    action={"split": "proportional"},
                    alternatives=[{"split": "milp",
                                   "rejected": "profiles not ready"}],
                    reason="function profiles incomplete; proportional"
                           " split until the DPT is populated")
            return
        self._populate_dpt()
        if self.config.use_milp:
            guard = self.layers.guard
            budget = guard.milp_node_budget
            split = split_deadlines(self.workflow, slo_s, self.dpt,
                                    max_nodes=budget)
            self.milp_runs += 1
            if split.solver_exhausted:
                # Safe mode: an unproven plan is not trusted — use the
                # proportional split until the next T_update.
                guard.record_milp_fallback(self.workflow.name)
                self._split = None
                trace.decision(
                    "milp_split", f"controller:{self.workflow.name}",
                    inputs={"slo_s": slo_s, "node_budget": budget},
                    action={"split": "proportional"},
                    alternatives=[{"split": "milp",
                                   "rejected": "solver budget exhausted"}],
                    reason="MILP solver exhausted its label budget;"
                           " safe-mode proportional split")
            else:
                self._split = split
                trace.decision(
                    "milp_split", f"controller:{self.workflow.name}",
                    inputs={"slo_s": slo_s, "node_budget": budget},
                    action={"split": "milp",
                            "frequencies": dict(split.frequencies),
                            "stage_budgets": [round(b, 6) for b
                                              in split.stage_budgets],
                            "energy_j": round(split.energy_j, 6),
                            "feasible": split.feasible},
                    alternatives=[{"split": "proportional",
                                   "rejected": "MILP plan is cheaper"
                                               " and proven"}],
                    reason="MILP deadline split chosen"
                           if split.feasible else
                           "no feasible plan; fastest-frequency"
                           " fallback plan chosen")
        else:
            self._split = None  # ablation: proportional split only

    def _populate_dpt(self) -> None:
        """DPT entries t = T_Run(f) + T_Block + T_Queue, E = Energy(f)."""
        for fn in self.workflow.functions:
            profile = self.store.profile_by_name(fn.name)
            t_block = profile.predict_t_block()
            for level in self.store.scale:
                t_run = profile.predict_t_run(level)
                t_queue = self.store.level_queue_estimate(level)
                energy = profile.predict_energy(level)
                self.dpt.update(fn.name, level,
                                t_run + t_block + t_queue, energy)

    # ------------------------------------------------------------------
    # Prewarming (Section VI-E1)
    # ------------------------------------------------------------------
    def prewarm(self, cluster: "Cluster", arrival_s: float,
                deadlines: Dict[str, float]) -> None:
        """Boot missing containers for downstream stages in the background.

        Each missing function's cold start gets the sum of its
        predecessors' budgets (it only has to be warm by the time its
        stage starts); stage-0 functions get no prewarm — their cold start
        is on the critical path and handled at high frequency by the
        dispatcher.
        """
        for stage_index, stage in enumerate(self.workflow.stages):
            if stage_index == 0:
                continue
            for fn in stage.functions:
                node = cluster.pick_node()
                if node is None:
                    # Every node is down (crash storm): nothing to warm.
                    return
                if node.containers.state(fn.name) != "cold":
                    continue
                previous_stage = self.workflow.stages[stage_index - 1]
                predecessor = previous_stage.functions[0].name
                budget = max(deadlines[predecessor] - arrival_s, 1e-3)
                node.prewarm(fn, budget, self.workflow.name)
