"""Unit tests for the Workflow Controller (deadlines, DPT, staleness)."""

import pytest

from repro.baselines.powerctrl import proportional_deadlines
from repro.core.config import EcoFaaSConfig
from repro.core.profiles import ProfileStore
from repro.core.workflow_controller import WorkflowController
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.platform.cluster import ClusterConfig
from repro.platform.layers import Layers
from repro.platform.metrics import MetricsCollector
from repro.sim import Environment
from repro.workloads.registry import workflow_for


def make_controller(workflow_name="eBank", config=None):
    env = Environment()
    config = config or EcoFaaSConfig()
    store = ProfileStore(FrequencyScale(), PowerModel(), config)
    workflow = workflow_for(workflow_name)
    controller = WorkflowController(
        env, workflow, store, config,
        Layers.build(env, MetricsCollector(), ClusterConfig()))
    return env, store, workflow, controller


def populate(store, workflow, freq=3.0, queue_s=0.0, n=5):
    for fn in workflow.functions:
        profile = store.profile(fn)
        for _ in range(n):
            profile.observe(freq, fn.run_seconds(freq), fn.block_seconds,
                            fn.run_seconds(freq) * 8.0)
        for _ in range(n):
            store.queue_ewma(fn.name).update(queue_s)
    for level in FrequencyScale():
        for _ in range(n):
            store.level_queue_ewma(level).update(queue_s)


class TestDeadlineAssignment:
    def test_proportional_fallback_before_profiles_ready(self):
        env, store, workflow, controller = make_controller()
        deadlines = controller.deadlines(arrival_s=0.0, slo_s=2.0)
        assert deadlines == proportional_deadlines(workflow, 0.0, 2.0)
        assert controller.milp_runs == 0

    def test_milp_split_once_profiles_ready(self):
        env, store, workflow, controller = make_controller()
        populate(store, workflow)
        deadlines = controller.deadlines(arrival_s=10.0, slo_s=2.0)
        assert controller.milp_runs == 1
        values = [deadlines[f.name] for f in workflow.functions]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(12.0)

    def test_cached_split_reused_within_t_update(self):
        env, store, workflow, controller = make_controller(
            config=EcoFaaSConfig(t_update_s=5.0))
        populate(store, workflow)
        controller.deadlines(0.0, 2.0)
        env.run(until=2.0)
        controller.deadlines(2.0, 2.0)
        assert controller.milp_runs == 1  # still fresh

    def test_split_recomputed_after_t_update(self):
        env, store, workflow, controller = make_controller(
            config=EcoFaaSConfig(t_update_s=5.0))
        populate(store, workflow)
        controller.deadlines(0.0, 2.0)
        env.run(until=6.0)
        controller.deadlines(6.0, 2.0)
        assert controller.milp_runs == 2

    def test_slo_change_forces_recompute(self):
        env, store, workflow, controller = make_controller()
        populate(store, workflow)
        controller.deadlines(0.0, 2.0)
        controller.deadlines(0.0, 4.0)
        assert controller.milp_runs == 2

    def test_milp_ablation_never_solves(self):
        env, store, workflow, controller = make_controller(
            config=EcoFaaSConfig(use_milp=False))
        populate(store, workflow)
        deadlines = controller.deadlines(0.0, 2.0)
        assert controller.milp_runs == 0
        assert deadlines == proportional_deadlines(workflow, 0.0, 2.0)

    def test_queueing_pushes_plan_to_higher_frequencies(self):
        env, store, workflow, controller = make_controller("VidAn")
        populate(store, workflow, queue_s=0.0)
        controller.deadlines(0.0, workflow_for("VidAn").slo_seconds())
        relaxed = dict(controller._split.frequencies)

        env2, store2, workflow2, controller2 = make_controller("VidAn")
        populate(store2, workflow2, queue_s=0.5)
        controller2.deadlines(0.0, workflow_for("VidAn").slo_seconds())
        pressured = dict(controller2._split.frequencies)
        assert (sum(pressured.values()) >= sum(relaxed.values()))

    def test_dpt_populated_for_every_level(self):
        env, store, workflow, controller = make_controller()
        populate(store, workflow)
        controller.deadlines(0.0, 2.0)
        for fn in workflow.functions:
            assert controller.dpt.has_function(fn.name)

    def test_energy_of_plan_decreases_with_looser_slo(self):
        env, store, workflow, controller = make_controller("VidAn")
        populate(store, workflow)
        slo_tight = workflow.warm_latency(3.0) * 1.1
        controller.deadlines(0.0, slo_tight)
        tight_energy = controller._split.energy_j
        controller.deadlines(0.0, slo_tight * 10)
        loose_energy = controller._split.energy_j
        assert loose_energy < tight_energy
