"""Benches for the sensitivity studies (Figs. 19-23, §VIII-D, ablations)."""

from repro.experiments import (
    ablations,
    fig19_prediction_error,
    fig20_update_sensitivity,
    fig21_pool_granularity,
    fig22_variability,
    fig23_colocation,
    section8d_overheads,
)


def test_fig19_overprediction(run_experiment):
    result = run_experiment(fig19_prediction_error)
    for level in ("low", "medium", "high"):
        row = result.row_for(load=level)
        # More overprediction can only cost energy (within noise).
        assert row["err80pct"] >= row["err0pct"] - 0.02, level


def test_fig20_update_periods(run_experiment):
    result = run_experiment(fig20_update_sensitivity)
    # The chosen operating points must not be clearly dominated: no swept
    # setting may beat them by more than a small margin.
    assert min(row["norm_energy"] for row in result.rows) > 0.85


def test_fig21_pool_granularity(run_experiment):
    result = run_experiment(fig21_pool_granularity)
    fine = result.row_for(granularity_mhz=50)
    native = result.row_for(granularity_mhz=300)
    coarse = result.row_for(granularity_mhz=600)
    # Finer steps fragment the node into more pools.
    assert fine["pools_mean"] >= native["pools_mean"] >= coarse["pools_mean"]
    # The native granularity yields the paper's 1-6 pools.
    assert native["pools_max"] <= 8


def test_fig22_variability(run_experiment):
    result = run_experiment(fig22_variability)
    # At the nominal dispersion the model stays accurate for every fn.
    nominal = [row["error_pct"] for row in result.rows
               if row["dispersion"] == 0.25]
    assert max(nominal) < 10.0
    # Error never decreases dramatically as variability explodes.
    for fn in {row["function"] for row in result.rows}:
        errors = [row["error_pct"] for row in result.rows
                  if row["function"] == fn]
        assert errors[-1] >= errors[0] - 1.0, fn


def test_fig23_colocation(run_experiment):
    result = run_experiment(fig23_colocation)
    base = [row["mj_per_inv_Baseline"] for row in result.rows]
    eco = [row["mj_per_inv_EcoFaaS"] for row in result.rows]
    # EcoFaaS stays cheaper than Baseline at every co-location level.
    assert all(e < b for e, b in zip(eco, base))


def test_section8d_overheads(run_experiment):
    result = run_experiment(section8d_overheads)
    milp = [row["value"] for row in result.rows
            if row["component"] == "milp_solver"]
    assert max(milp) < 100.0  # ms; paper: ~10ms
    mlp = result.row_for(component="mlp_predict")
    assert mlp["value"] < 1000.0  # us
    t_run_mape = result.row_for(component="ewma_mape", config="t_run")
    assert t_run_mape["value"] < 5.0  # %; paper: 1.8%


def test_ablations(run_experiment):
    result = run_experiment(ablations)
    full = result.row_for(variant="full")
    rtc = result.row_for(variant="rtc")
    no_prewarm = result.row_for(variant="no-prewarm")
    # Run-to-completion costs SLOs (the Fig. 5 insight): its miss rate
    # is several times the full system's on every seed. The p99 gap is
    # within run-to-run noise, so it is not asserted.
    assert rtc["slo_miss_pct"] > full["slo_miss_pct"]
    # Prewarming removes critical-path cold starts.
    assert no_prewarm["cold_starts"] >= full["cold_starts"]
