"""The Delay-Power Table and SLO → per-function deadline splitting.

Section VI-A: the Workflow Controller keeps, per application, a table with
the predicted execution time ``t_fj^Fi = T_Run + T_Block + T_Queue`` and
energy ``E_fj^Fi`` of each function at each frequency, and solves

    minimise   Σ E_fj^Fi
    subject to Σ t_fj^Fi <= SLO,   one frequency per function,

where parallel children of a stage contribute the *slowest* member's time
(Fig. 9's structure). The paper hands this to an MILP solver (PuLP). The
problem is a multiple-choice knapsack over stages, so :func:`solve_milp`
solves it exactly without an LP: it lists each stage's nondominated
(stage time, stage energy) points and merges the lists stage by stage.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hardware.frequency import FrequencyScale
from repro.workloads.applications import Workflow

#: A plan fits the SLO when its time is at most ``SLO + _SLO_TOL``.
_SLO_TOL = 1e-9
#: Relative slack on the merge's look-ahead bound, so float rounding in
#: the bound never prunes a plan that fits.
_BOUND_SLACK = 1e-12

#: One point of a stage's Pareto list: (stage time, stage energy, level
#: index per member).
_Point = Tuple[float, float, Tuple[int, ...]]
#: One partial plan of the merge: (time, energy, parent label index,
#: point index in this stage's list).
_Label = Tuple[float, float, int, int]


class DelayPowerTable:
    """Per-application (function, frequency) → (time, energy) predictions."""

    def __init__(self, scale: FrequencyScale):
        self.scale = scale
        self._entries: Dict[Tuple[str, float], Tuple[float, float]] = {}

    def update(self, function_name: str, freq_ghz: float,
               time_s: float, energy_j: float) -> None:
        """Insert or refresh one entry."""
        if freq_ghz not in self.scale:
            raise ValueError(
                f"{freq_ghz} GHz is not a level of {self.scale.levels}")
        if not (math.isfinite(time_s) and math.isfinite(energy_j)):
            raise ValueError(
                f"DPT entry for {function_name!r} at {freq_ghz} GHz must be"
                f" finite: time {time_s}, energy {energy_j}")
        if time_s < 0 or energy_j < 0:
            raise ValueError("time and energy must be non-negative")
        self._entries[(function_name, freq_ghz)] = (time_s, energy_j)

    def entry(self, function_name: str,
              freq_ghz: float) -> Optional[Tuple[float, float]]:
        return self._entries.get((function_name, freq_ghz))

    def has_function(self, function_name: str) -> bool:
        """True when every frequency level is populated for the function."""
        return all((function_name, f) in self._entries for f in self.scale)

    def times(self, function_name: str) -> Dict[float, float]:
        return {f: self._entries[(function_name, f)][0]
                for f in self.scale if (function_name, f) in self._entries}

    def energies(self, function_name: str) -> Dict[float, float]:
        return {f: self._entries[(function_name, f)][1]
                for f in self.scale if (function_name, f) in self._entries}


@dataclass(frozen=True)
class DeadlineSplit:
    """The result of splitting an SLO across a workflow."""

    #: Chosen frequency per function (the tick marks of Fig. 9).
    frequencies: Dict[str, float]
    #: Time budget per stage, seconds.
    stage_budgets: List[float]
    #: Predicted total energy of the plan, joules.
    energy_j: float
    #: Whether the plan fits inside the SLO.
    feasible: bool
    #: The solver ran out of its label budget (repro.guard safe mode):
    #: the plan is the max-frequency fallback.
    solver_exhausted: bool = False

    def function_deadlines(self, workflow: Workflow,
                           arrival_s: float) -> Dict[str, float]:
        """Absolute per-function deadlines (cumulative stage budgets)."""
        deadlines: Dict[str, float] = {}
        elapsed = arrival_s
        for stage, budget in zip(workflow.stages, self.stage_budgets):
            elapsed += budget
            for fn in stage.functions:
                deadlines[fn.name] = elapsed
        return deadlines


@dataclass(frozen=True)
class MilpSolution:
    """Outcome of one :func:`solve_milp` call."""

    status: str  # "optimal" | "infeasible" | "exhausted"
    #: Chosen frequency per function, in ``workflow.functions`` order.
    frequencies: Optional[Dict[str, float]] = None
    #: The plan's energy, summed in ``workflow.functions`` order.
    objective: Optional[float] = None
    #: Partial plans (labels) the merge built; 0 when it never ran.
    nodes_explored: int = 0
    #: The label budget ran out before the merge finished: no plan.
    exhausted: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _stage_front(times: Sequence[Sequence[float]],
                 energies: Sequence[Sequence[float]]) -> List[_Point]:
    """Nondominated points of one stage, fastest (and dearest) first.

    Every member time is a candidate cap on the stage time. At a cap each
    member takes its cheapest level that fits, the lowest level index on
    an energy tie. Equal (time, energy) points keep the first choice in
    level order.
    """
    points = []
    for cap in sorted({t for row in times for t in row}):
        choice = []
        for t_row, e_row in zip(times, energies):
            fits = [j for j, t in enumerate(t_row) if t <= cap]
            if not fits:
                break
            choice.append(min(fits, key=lambda j: (e_row[j], j)))
        else:
            points.append((
                max(t_row[j] for t_row, j in zip(times, choice)),
                sum(e_row[j] for e_row, j in zip(energies, choice)),
                tuple(choice)))
    points.sort()
    front: List[_Point] = []
    for point in points:
        if not front or point[1] < front[-1][1]:
            front.append(point)
    return front


def _prefix(layers: List[List[_Label]], label: _Label,
            fronts: List[List[_Point]]) -> Tuple[Tuple[int, ...], ...]:
    """A partial plan's level choices, stage by stage, by back-pointers."""
    choices = []
    for k in range(len(layers) - 1, -1, -1):
        choices.append(fronts[k][label[3]][2])
        if k:
            label = layers[k - 1][label[2]]
    return tuple(reversed(choices))


def solve_milp(workflow: Workflow, slo_s: float, dpt: DelayPowerTable,
               max_nodes: Optional[int] = None) -> MilpSolution:
    """Exact minimum-energy frequency plan under the SLO (Section VI-A).

    Requires a fully populated DPT. When the plan that gives every stage
    its cheapest point fits, it is the global minimum and is returned
    without a merge. Otherwise the stage lists are merged in stage order,
    keeping nondominated partial plans. A partial plan is dropped when
    even the fastest rest cannot meet the SLO. (No energy bound against
    the all-fastest plan: each stage's fastest point is its dearest, so
    no partial plan plus the cheapest rest can cost more than that plan.)

    Ties break by lower energy, then lower total time, then the first
    plan in workflow-and-level order. ``max_nodes`` caps the labels the
    merge may build (repro.guard's safe-mode budget); going over it
    returns status ``"exhausted"`` with no plan.
    """
    levels = list(dpt.scale)
    fronts = []
    for stage in workflow.stages:
        times = [dpt.times(fn.name) for fn in stage.functions]
        energies = [dpt.energies(fn.name) for fn in stage.functions]
        fronts.append(_stage_front(
            [[row[f] for f in levels] for row in times],
            [[row[f] for f in levels] for row in energies]))
    limit = slo_s + _SLO_TOL

    def solution(choices: Sequence[Tuple[int, ...]],
                 nodes: int) -> MilpSolution:
        chosen = [levels[j] for choice in choices for j in choice]
        frequencies = {fn.name: f
                       for fn, f in zip(workflow.functions, chosen)}
        energy = sum(dpt.energies(name)[f]
                     for name, f in frequencies.items())
        return MilpSolution("optimal", frequencies, energy, nodes)

    cheapest = [front[-1] for front in fronts]
    if sum(point[0] for point in cheapest) <= limit:
        return solution([point[2] for point in cheapest], 0)
    fastest = [front[0] for front in fronts]
    if sum(point[0] for point in fastest) > limit:
        return MilpSolution("infeasible")

    # The fastest possible time of the stages after stage k.
    rest_time = [0.0] * (len(fronts) + 1)
    for k in range(len(fronts) - 1, -1, -1):
        rest_time[k] = fronts[k][0][0] + rest_time[k + 1]
    time_bound = limit * (1 + _BOUND_SLACK)

    layers: List[List[_Label]] = []
    labels: List[_Label] = [(0.0, 0.0, -1, -1)]
    built = 0
    for k, front in enumerate(fronts):
        candidates: List[_Label] = []
        for i, (t0, e0, _, _) in enumerate(labels):
            for j, (t, e, _) in enumerate(front):
                t += t0
                if t + rest_time[k + 1] > time_bound:
                    break  # the rest of the list is slower still
                candidates.append((t, e + e0, i, j))
            if max_nodes is not None and built + len(candidates) > max_nodes:
                return MilpSolution("exhausted",
                                    nodes_explored=built + len(candidates),
                                    exhausted=True)
        built += len(candidates)
        candidates.sort()
        labels = []
        layers.append(labels)
        for label in candidates:
            if labels and label[1] >= labels[-1][1]:
                if (label[:2] == labels[-1][:2]
                        and _prefix(layers, label, fronts)
                        < _prefix(layers, labels[-1], fronts)):
                    labels[-1] = label
                continue
            labels.append(label)

    best = [label for label in labels if label[0] <= limit][-1]
    return solution(_prefix(layers, best, fronts), built)


def split_deadlines(workflow: Workflow, slo_s: float,
                    dpt: DelayPowerTable,
                    max_nodes: Optional[int] = None) -> DeadlineSplit:
    """Minimise total energy under the SLO (Section VI-A).

    Requires a fully populated DPT for every function of the workflow.
    When even the fastest plan misses the SLO the problem is infeasible;
    the returned split then uses the all-max-frequency plan and marks
    ``feasible=False`` (the system will boost at run time).

    ``max_nodes`` caps the labels :func:`solve_milp` may build
    (repro.guard's safe-mode budget); a solve that runs out falls back to
    the max-frequency plan and marks the split ``solver_exhausted=True``
    so callers can fall back further.
    """
    if not (math.isfinite(slo_s) and slo_s > 0):
        raise ValueError(f"SLO must be positive and finite: {slo_s}")
    for fn in workflow.functions:
        if not dpt.has_function(fn.name):
            raise KeyError(f"DPT is missing entries for {fn.name!r}")

    solution = solve_milp(workflow, slo_s, dpt, max_nodes)
    if not solution.ok:
        return _fastest_plan(workflow, dpt, slo_s,
                             solver_exhausted=solution.exhausted)

    frequencies = solution.frequencies
    budgets = [max(dpt.times(fn.name)[frequencies[fn.name]]
                   for fn in stage.functions)
               for stage in workflow.stages]
    # Distribute leftover SLO slack proportionally: the paper's deadlines
    # consume the whole SLO budget (Fig. 10's t_B is a full allocation).
    total = sum(budgets)
    if 0 < total < slo_s:
        scale_up = slo_s / total
        budgets = [b * scale_up for b in budgets]
    return DeadlineSplit(frequencies=frequencies, stage_budgets=budgets,
                         energy_j=solution.objective, feasible=True)


def _fastest_plan(workflow: Workflow, dpt: DelayPowerTable,
                  slo_s: float,
                  solver_exhausted: bool = False) -> DeadlineSplit:
    """All functions at the top frequency (the infeasible-SLO fallback)."""
    top = dpt.scale.max
    frequencies = {fn.name: top for fn in workflow.functions}
    budgets = [max(dpt.times(fn.name)[top] for fn in stage.functions)
               for stage in workflow.stages]
    energy = sum(dpt.energies(fn.name)[top] for fn in workflow.functions)
    return DeadlineSplit(frequencies=frequencies, stage_budgets=budgets,
                         energy_j=energy, feasible=False,
                         solver_exhausted=solver_exhausted)


def split_deadlines_exhaustive(workflow: Workflow, slo_s: float,
                               dpt: DelayPowerTable,
                               max_combinations: int = 2_000_000
                               ) -> DeadlineSplit:
    """Exact enumeration over all frequency assignments (cross-check).

    Exponential in the function count — use only for small workflows (the
    test-suite verifies :func:`split_deadlines` against this).
    """
    levels = list(dpt.scale)
    functions = workflow.functions
    n_combos = len(levels) ** len(functions)
    if n_combos > max_combinations:
        raise ValueError(
            f"{n_combos} combinations exceed the cap {max_combinations}")
    best: Optional[DeadlineSplit] = None
    for combo in itertools.product(levels, repeat=len(functions)):
        frequencies = {fn.name: freq
                       for fn, freq in zip(functions, combo)}
        budgets = [max(dpt.times(fn.name)[frequencies[fn.name]]
                       for fn in stage.functions)
                   for stage in workflow.stages]
        if sum(budgets) > slo_s + _SLO_TOL:
            continue
        energy = sum(dpt.energies(fn.name)[frequencies[fn.name]]
                     for fn in functions)
        if best is None or energy < best.energy_j:
            best = DeadlineSplit(frequencies, budgets, energy, True)
    if best is None:
        return _fastest_plan(workflow, dpt, slo_s)
    return best
