"""Section VIII-D: overheads and accuracy of the EcoFaaS components.

* MILP solve time as functions (2–20) and frequency levels (2–10) vary —
  the paper measures ~10 ms (0.2 % of cycles at a 5 s cadence);
* EWMA prediction error (MAPE) for T_Run / T_Block / T_Queue / Energy —
  paper: 1.8 / 2.4 / 3.5 / 1.9 %;
* the input-aware network's prediction latency — paper: 10–30 µs native
  (we allow Python overhead but require well under 1 ms);
* its online training cost per observation: one training tick, as the
  predictor runs it every 8 observations (40 rows, 4 epochs), divided
  by 8 (no paper anchor).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.dpt import DelayPowerTable, split_deadlines
from repro.core.ewma import AdaptiveEwma
from repro.core.mlp import MLPRegressor
from repro.core.predictor import FrequencyProfile
from repro.experiments.common import ExperimentResult
from repro.hardware.frequency import FrequencyScale
from repro.hardware.power import PowerModel
from repro.workloads.applications import Workflow, WorkflowStage
from repro.workloads.model import FunctionModel


def _chain(n_functions: int) -> Workflow:
    functions = tuple(
        FunctionModel(name=f"f{i}", run_seconds_at_max=0.05 + 0.01 * i,
                      compute_fraction=0.6, block_seconds=0.0, n_blocks=0,
                      cold_start_seconds=0.1)
        for i in range(n_functions))
    return Workflow("chain", tuple(WorkflowStage((f,)) for f in functions))


def _milp_time(n_functions: int, n_levels: int, repeats: int) -> float:
    scale = FrequencyScale.from_granularity(
        int(1800 / max(n_levels - 1, 1)))
    if len(scale) != n_levels:
        levels = tuple(np.linspace(1.2, 3.0, n_levels))
        scale = FrequencyScale(levels)
    workflow = _chain(n_functions)
    power = PowerModel()
    dpt = DelayPowerTable(scale)
    for fn in workflow.functions:
        for level in scale:
            t = fn.run_seconds(level)
            dpt.update(fn.name, level, t, t * power.core_active_power(level))
    slo = 2.0 * workflow.warm_latency(scale.min)
    start = time.perf_counter()
    for _ in range(repeats):
        split_deadlines(workflow, slo, dpt)
    return (time.perf_counter() - start) / repeats


def _ewma_mape(seed: int, n: int = 400) -> dict:
    """MAPE of the adaptive EWMA on synthetic metric streams.

    The noise levels mirror the per-metric variability the paper's
    platform exhibits for an input-insensitive function (WebServe-class):
    its reported MAPEs (1.8/2.4/3.5/1.9 %) bound the underlying stream
    noise, since an EWMA cannot beat the noise floor.
    """
    rng = np.random.default_rng(seed)
    sigmas = {"t_run": 0.016, "t_block": 0.022, "t_queue": 0.032,
              "energy": 0.017}
    mape = {}
    for metric, sigma in sigmas.items():
        ewma = AdaptiveEwma()
        errors = []
        level = 1.0
        for i in range(n):
            # Slow drift plus multiplicative noise.
            level *= float(np.exp(rng.normal(0, 0.002)))
            value = level * float(np.exp(rng.normal(0, sigma)))
            if ewma.initialized:
                errors.append(abs(ewma.forecast() - value) / value)
            ewma.update(value)
        mape[metric] = float(np.mean(errors[int(n * 0.2):]))
    return mape


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        "Section VIII-D", "Component overheads and prediction accuracy")
    repeats = 3 if quick else 10
    for n_functions in (2, 8, 20):
        for n_levels in (2, 7, 10):
            ms = 1000 * _milp_time(n_functions, n_levels, repeats)
            result.add(component="milp_solver",
                       config=f"{n_functions}fns x {n_levels}levels",
                       value=round(ms, 2), unit="ms")

    mape = _ewma_mape(seed)
    for metric, value in mape.items():
        result.add(component="ewma_mape", config=metric,
                   value=round(100 * value, 2), unit="%")

    model = MLPRegressor(8, seed=seed)
    model.partial_fit([[1.0] * 8] * 16, [1.0] * 16)
    row = [1.0] * 8
    model.predict_one(row)
    start = time.perf_counter()
    for _ in range(200):
        model.predict_one(row)
    per_call_us = 1e6 * (time.perf_counter() - start) / 200
    result.add(component="mlp_predict", config="8 features",
               value=round(per_call_us, 1), unit="us")

    # The predictor's training cost per observation: one tick trains on
    # the 8 pending rows plus a 32-row replay sample, every 8 observations.
    every = FrequencyProfile._MLP_REPLAY_EVERY
    epochs = FrequencyProfile._MLP_EPOCHS
    n_rows = every + FrequencyProfile._MLP_BATCH
    batch = [[1.0 + 0.01 * i] * 8 for i in range(n_rows)]
    targets = [1.0] * n_rows
    model.partial_fit(batch, targets, epochs=epochs)
    start = time.perf_counter()
    for _ in range(50):
        model.partial_fit(batch, targets, epochs=epochs)
    per_obs_us = 1e6 * (time.perf_counter() - start) / 50 / every
    result.add(component="mlp_train_step",
               config=f"8 features, {n_rows} rows x {epochs} / {every} obs",
               value=round(per_obs_us, 1), unit="us")

    result.note("paper anchors: MILP ~10ms; EWMA MAPE 1.8/2.4/3.5/1.9%"
                " for T_run/T_block/T_queue/Energy; NN predict 10-30us")
    return result
