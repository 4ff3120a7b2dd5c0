"""Tests for the Delay-Power Table and the exact SLO deadline splitter."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dpt as dpt_module
from repro.core.dpt import (
    DelayPowerTable,
    solve_milp,
    split_deadlines,
    split_deadlines_exhaustive,
)
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.workloads.applications import Workflow, WorkflowStage
from repro.workloads.model import FunctionModel
from repro.workloads.registry import get_application


def constant_fn(name, run_ms):
    return FunctionModel(name=name, run_seconds_at_max=run_ms / 1000.0,
                         compute_fraction=0.7, block_seconds=0.0,
                         n_blocks=0, cold_start_seconds=0.1)


def make_dpt(workflow, scale=None, queue_s=0.0):
    """DPT with physically consistent t/E entries for every function."""
    scale = scale or FrequencyScale()
    power = PowerModel()
    dpt = DelayPowerTable(scale)
    for fn in workflow.functions:
        for level in scale:
            t_run = fn.run_seconds(level)
            energy = t_run * power.core_active_power(level)
            dpt.update(fn.name, level, t_run + queue_s, energy)
    return dpt


def plan_time(workflow, dpt, frequencies):
    """Σ over stages of the slowest member's time under ``frequencies``."""
    return sum(max(dpt.times(fn.name)[frequencies[fn.name]]
                   for fn in stage.functions)
               for stage in workflow.stages)


#: Labels the merge builds for :func:`ebank_tight` (a pinned work counter:
#: losing a pruning rule changes it).
EBANK_TIGHT_LABELS = 628


def ebank_tight():
    """eBank's six-stage chain at 1.1x its all-max-frequency time."""
    workflow = get_application("eBank")
    dpt = make_dpt(workflow)
    return workflow, dpt, 1.1 * plan_time(
        workflow, dpt, {fn.name: 3.0 for fn in workflow.functions})


@st.composite
def random_problems(draw):
    """(workflow, DPT, SLO): 1-4 stages of 1-3 members, 2-5 levels.

    Entries mix fresh draws with a small shared pool, so exact ties in
    time and energy occur. The SLO runs from below the fastest plan's
    time to above the all-slowest plan's, and is sometimes exactly the
    fastest plan's time.
    """
    n_levels = draw(st.integers(min_value=2, max_value=5))
    scale = FrequencyScale(tuple(1.0 + 0.5 * i for i in range(n_levels)))
    # Keep the exhaustive oracle at <= 4,096 plans.
    room = int(math.log(4096) / math.log(n_levels) + 1e-9)
    stages = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if room == 0:
            break
        size = draw(st.integers(min_value=1, max_value=min(3, room)))
        room -= size
        stages.append(WorkflowStage(tuple(
            constant_fn(f"f{len(stages)}.{m}", 100) for m in range(size))))
    workflow = Workflow("random", tuple(stages))
    pool = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2))
    value = st.one_of(st.sampled_from(pool), st.floats(0.01, 1.0))
    dpt = DelayPowerTable(scale)
    for fn in workflow.functions:
        for level in scale:
            dpt.update(fn.name, level, draw(value), draw(value))
    fastest = sum(max(min(dpt.times(fn.name).values())
                      for fn in stage.functions)
                  for stage in workflow.stages)
    slowest = sum(max(max(dpt.times(fn.name).values())
                      for fn in stage.functions)
                  for stage in workflow.stages)
    slo = draw(st.one_of(st.just(fastest),
                         st.floats(0.5 * fastest, 1.5 * slowest)))
    return workflow, dpt, slo


def spy_solves(monkeypatch):
    """Record every solution split_deadlines gets from solve_milp."""
    solutions = []
    original = dpt_module.solve_milp

    def counted(*args, **kwargs):
        solution = original(*args, **kwargs)
        solutions.append(solution)
        return solution

    monkeypatch.setattr(dpt_module, "solve_milp", counted)
    return solutions


class TestMilpSolver:
    """The exact splitter behind :func:`split_deadlines`, called directly."""

    def test_infeasible_problem(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        solution = solve_milp(workflow, 0.01, make_dpt(workflow))
        assert not solution.ok
        assert solution.status == "infeasible"
        assert solution.frequencies is None

    def test_infeasible_is_not_exhausted(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        solution = solve_milp(workflow, 0.01, make_dpt(workflow),
                              max_nodes=1)
        assert not solution.ok
        assert not solution.exhausted  # proven infeasible, not starved
        assert solution.nodes_explored == 0

    def test_node_budget_exhaustion_is_flagged(self):
        workflow, dpt, slo = ebank_tight()
        full = solve_milp(workflow, slo, dpt, max_nodes=EBANK_TIGHT_LABELS)
        assert full.ok and not full.exhausted
        starved = solve_milp(workflow, slo, dpt,
                             max_nodes=EBANK_TIGHT_LABELS - 1)
        assert starved.exhausted and starved.status == "exhausted"
        assert not starved.ok and starved.frequencies is None
        assert starved.nodes_explored > EBANK_TIGHT_LABELS - 1

    def test_objective_is_the_plans_energy_in_workflow_order(self):
        workflow, dpt, slo = ebank_tight()
        solution = solve_milp(workflow, slo, dpt)
        assert list(solution.frequencies) == [
            fn.name for fn in workflow.functions]
        assert solution.objective == sum(
            dpt.energies(name)[freq]
            for name, freq in solution.frequencies.items())

    def test_exact_ties_pick_the_first_plan_in_level_order(self):
        workflow = Workflow("tie", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 100),)),
        ))
        dpt = DelayPowerTable(FrequencyScale((1.0, 2.0)))
        for name in ("a", "b"):
            dpt.update(name, 1.0, 2.0, 1.0)
            dpt.update(name, 2.0, 1.0, 2.0)
        # a slow + b fast and a fast + b slow tie at (3 s, 3 J).
        solution = solve_milp(workflow, 3.0, dpt)
        assert solution.frequencies == {"a": 1.0, "b": 2.0}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=10_000))
    def test_multiple_choice_knapsack_matches_brute_force(self, n_groups, seed):
        """Random one-frequency-per-function chains: the splitter's plan
        must equal exhaustive enumeration."""
        rng = np.random.default_rng(seed)
        scale = FrequencyScale((1.0, 2.0, 3.0))
        costs = rng.uniform(1, 10, size=(n_groups, len(scale)))
        times = rng.uniform(1, 5, size=(n_groups, len(scale)))
        budget = float(times.min(axis=1).sum() * 1.5)
        workflow = Workflow("knapsack", tuple(
            WorkflowStage((constant_fn(f"g{g}", 100),))
            for g in range(n_groups)))
        dpt = DelayPowerTable(scale)
        for g in range(n_groups):
            for j, level in enumerate(scale):
                dpt.update(f"g{g}", level, float(times[g, j]),
                           float(costs[g, j]))
        solution = solve_milp(workflow, budget, dpt)

        best = np.inf
        for combo in itertools.product(range(len(scale)), repeat=n_groups):
            total_time = sum(times[g, j] for g, j in enumerate(combo))
            if total_time <= budget + 1e-9:
                best = min(best, sum(costs[g, j] for g, j in enumerate(combo)))
        if best is np.inf:
            assert not solution.ok
        else:
            assert solution.ok
            assert solution.objective == pytest.approx(best, rel=1e-6)


class TestWorkCounters:
    """Exact label counts: a lost pruning rule fails here, not on a timer."""

    def test_loose_slo_split_short_circuits(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        workflow, dpt, slo = ebank_tight()
        split = split_deadlines(workflow, 2 * slo, dpt)
        assert set(split.frequencies.values()) == {1.2}
        assert [s.nodes_explored for s in solves] == [0]

    def test_tight_ebank_split_builds_exact_label_count(self, monkeypatch):
        solves = spy_solves(monkeypatch)
        workflow, dpt, slo = ebank_tight()
        split = split_deadlines(workflow, slo, dpt)
        assert split.feasible and not split.solver_exhausted
        assert [s.nodes_explored for s in solves] == [EBANK_TIGHT_LABELS]


class TestDelayPowerTable:
    def test_update_and_lookup(self):
        dpt = DelayPowerTable(FrequencyScale())
        dpt.update("f", 3.0, 0.1, 2.0)
        assert dpt.entry("f", 3.0) == (0.1, 2.0)
        assert dpt.entry("f", 1.2) is None
        assert not dpt.has_function("f")

    def test_has_function_requires_all_levels(self):
        dpt = DelayPowerTable(FrequencyScale())
        for level in FrequencyScale():
            dpt.update("f", level, 0.1, 2.0)
        assert dpt.has_function("f")

    def test_validation(self):
        dpt = DelayPowerTable(FrequencyScale())
        with pytest.raises(ValueError):
            dpt.update("f", 2.0, 0.1, 1.0)  # not a level
        with pytest.raises(ValueError):
            dpt.update("f", 3.0, -0.1, 1.0)

    @pytest.mark.parametrize("time_s, energy_j", [
        (math.nan, 1.0), (math.inf, 1.0), (0.1, math.nan), (0.1, -math.inf)])
    def test_non_finite_entries_rejected(self, time_s, energy_j):
        dpt = DelayPowerTable(FrequencyScale())
        with pytest.raises(ValueError, match=r"'f' at 3\.0 GHz"):
            dpt.update("f", 3.0, time_s, energy_j)
        assert dpt.entry("f", 3.0) is None


class TestSplitDeadlines:
    def test_loose_slo_selects_lowest_frequency(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 200),)),
        ))
        dpt = make_dpt(workflow)
        split = split_deadlines(workflow, slo_s=100.0, dpt=dpt)
        assert split.feasible
        assert all(freq == 1.2 for freq in split.frequencies.values())

    def test_tight_slo_selects_highest_frequency(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 200),)),
        ))
        dpt = make_dpt(workflow)
        # Just feasible at max only: sum at max = 0.3s.
        split = split_deadlines(workflow, slo_s=0.301, dpt=dpt)
        assert split.feasible
        assert all(freq == 3.0 for freq in split.frequencies.values())

    def test_infeasible_slo_falls_back_to_fastest_plan(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        dpt = make_dpt(workflow)
        split = split_deadlines(workflow, slo_s=0.01, dpt=dpt)
        assert not split.feasible
        assert split.frequencies["a"] == 3.0

    def test_intermediate_slo_mixes_frequencies_energy_optimally(self):
        workflow = Workflow("mix", (
            WorkflowStage((constant_fn("short", 20),)),
            WorkflowStage((constant_fn("long", 500),)),
        ))
        dpt = make_dpt(workflow)
        slo = 0.75  # between all-max (0.52) and all-min (1.17)
        split = split_deadlines(workflow, slo, dpt)
        exact = split_deadlines_exhaustive(workflow, slo, dpt)
        assert split.feasible
        assert split.energy_j == pytest.approx(exact.energy_j, rel=1e-6)

    def test_milp_matches_exhaustive_on_parallel_stages(self):
        workflow = Workflow("par", (
            WorkflowStage((constant_fn("p1", 100), constant_fn("p2", 150))),
            WorkflowStage((constant_fn("tail", 60),)),
        ))
        dpt = make_dpt(workflow)
        for slo in (0.3, 0.5, 0.8):
            milp = split_deadlines(workflow, slo, dpt)
            exact = split_deadlines_exhaustive(workflow, slo, dpt)
            assert milp.energy_j == pytest.approx(exact.energy_j, rel=1e-6), slo

    def test_parallel_stage_budget_is_slowest_member(self):
        workflow = Workflow("par", (
            WorkflowStage((constant_fn("p1", 100), constant_fn("p2", 200))),
        ))
        dpt = make_dpt(workflow)
        split = split_deadlines(workflow, slo_s=10.0, dpt=dpt)
        chosen_p2 = split.frequencies["p2"]
        # Budget covers the slower member before slack scaling.
        assert split.stage_budgets[0] >= dpt.times("p2")[chosen_p2] - 1e-9

    def test_function_deadlines_are_cumulative_absolute(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 100),)),
        ))
        dpt = make_dpt(workflow)
        split = split_deadlines(workflow, slo_s=1.0, dpt=dpt)
        deadlines = split.function_deadlines(workflow, arrival_s=50.0)
        assert deadlines["a"] < deadlines["b"]
        assert deadlines["b"] == pytest.approx(50.0 + sum(split.stage_budgets))

    def test_budgets_fill_whole_slo(self):
        """The paper's deadlines consume the full SLO (Fig. 10)."""
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 100),)),
        ))
        dpt = make_dpt(workflow)
        split = split_deadlines(workflow, slo_s=2.0, dpt=dpt)
        assert sum(split.stage_budgets) == pytest.approx(2.0)

    def test_missing_dpt_entries_raise(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        dpt = DelayPowerTable(FrequencyScale())
        with pytest.raises(KeyError):
            split_deadlines(workflow, 1.0, dpt)

    def test_invalid_slo(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        with pytest.raises(ValueError):
            split_deadlines(workflow, 0.0, make_dpt(workflow))

    @pytest.mark.parametrize("slo", [math.nan, math.inf])
    def test_non_finite_slo_rejected(self, slo):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),))
        with pytest.raises(ValueError, match="SLO"):
            split_deadlines(workflow, slo, make_dpt(workflow))

    def test_single_function_chain_all_slo_regimes(self):
        workflow = Workflow("solo", (
            WorkflowStage((constant_fn("a", 100),)),))
        dpt = make_dpt(workflow)
        loose = split_deadlines(workflow, slo_s=1.0, dpt=dpt)
        assert loose.feasible and loose.frequencies["a"] == 1.2
        tight = split_deadlines(workflow, slo_s=0.101, dpt=dpt)
        assert tight.feasible and tight.frequencies["a"] == 3.0
        hopeless = split_deadlines(workflow, slo_s=0.01, dpt=dpt)
        assert not hopeless.feasible
        assert not hopeless.solver_exhausted  # infeasible, not starved
        assert hopeless.frequencies["a"] == 3.0  # fastest-plan fallback

    def test_starved_split_falls_back_and_reports_exhaustion(self):
        """An intermediate SLO needs the stage merge; with a one-label
        budget the split degrades to the fastest plan and flags it (the
        Workflow Controller's cue to use the proportional split)."""
        workflow = Workflow("solo", (
            WorkflowStage((constant_fn("a", 100),)),))
        dpt = make_dpt(workflow)
        full = split_deadlines(workflow, slo_s=0.15, dpt=dpt)
        assert full.feasible and not full.solver_exhausted
        starved = split_deadlines(workflow, slo_s=0.15, dpt=dpt,
                                  max_nodes=1)
        assert starved.solver_exhausted
        assert not starved.feasible
        assert starved.frequencies["a"] == 3.0  # always-safe fallback

    def test_default_max_nodes_is_never_exhausted_on_real_workflows(self):
        workflow = Workflow("par", (
            WorkflowStage((constant_fn("p1", 100), constant_fn("p2", 150))),
            WorkflowStage((constant_fn("tail", 60),)),
        ))
        dpt = make_dpt(workflow)
        for slo in (0.3, 0.5, 0.8):
            assert not split_deadlines(workflow, slo, dpt).solver_exhausted

    def test_queue_time_in_entries_tightens_choices(self):
        workflow = Workflow("chain", (
            WorkflowStage((constant_fn("a", 100),)),
            WorkflowStage((constant_fn("b", 100),)),
        ))
        no_queue = split_deadlines(workflow, 0.6, make_dpt(workflow))
        queued = split_deadlines(workflow, 0.6,
                                 make_dpt(workflow, queue_s=0.1))
        mean_freq = lambda s: np.mean(list(s.frequencies.values()))
        assert mean_freq(queued) >= mean_freq(no_queue)

    def test_exhaustive_guard_rejects_huge_workflows(self):
        functions = tuple(constant_fn(f"f{i}", 10) for i in range(12))
        workflow = Workflow("big", tuple(
            WorkflowStage((fn,)) for fn in functions))
        dpt = make_dpt(workflow)
        with pytest.raises(ValueError):
            split_deadlines_exhaustive(workflow, 10.0, dpt,
                                       max_combinations=1000)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_milp_never_worse_than_exhaustive_random_chains(self, seed):
        rng = np.random.default_rng(seed)
        functions = tuple(
            constant_fn(f"f{i}", float(rng.uniform(10, 300)))
            for i in range(3))
        workflow = Workflow("rand", tuple(
            WorkflowStage((fn,)) for fn in functions))
        dpt = make_dpt(workflow)
        t_max = sum(dpt.times(fn.name)[3.0] for fn in functions)
        t_min = sum(dpt.times(fn.name)[1.2] for fn in functions)
        slo = float(rng.uniform(t_max, t_min * 1.2))
        milp = split_deadlines(workflow, slo, dpt)
        exact = split_deadlines_exhaustive(workflow, slo, dpt)
        assert milp.feasible == exact.feasible
        if milp.feasible:
            assert milp.energy_j == pytest.approx(exact.energy_j, rel=1e-6)

    @settings(max_examples=120, deadline=None)
    @given(random_problems())
    def test_split_matches_exhaustive_oracle(self, problem):
        workflow, dpt, slo = problem
        split = split_deadlines(workflow, slo, dpt)
        exact = split_deadlines_exhaustive(workflow, slo, dpt)
        assert split.feasible == exact.feasible
        if exact.feasible:
            assert split.energy_j == pytest.approx(exact.energy_j, rel=1e-9)
            assert plan_time(workflow, dpt, split.frequencies) <= slo + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(random_problems(), st.floats(0.0, 2.0))
    def test_looser_slo_never_costs_more(self, problem, extra):
        workflow, dpt, slo = problem
        tight = split_deadlines(workflow, slo, dpt)
        loose = split_deadlines(workflow, slo * (1 + extra), dpt)
        if tight.feasible:
            assert loose.feasible
            assert loose.energy_j <= tight.energy_j * (1 + 1e-9)
