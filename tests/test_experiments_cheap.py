"""Tests for the CPU-cheap experiment harnesses (structure + anchors).

The expensive cluster-scale experiments are exercised by ``benchmarks/``;
these cover the analytic/microbenchmark ones so ``pytest tests/`` alone
still validates them.
"""

import pytest

from repro.experiments import (
    fig02_freq_sensitivity,
    fig03_resource_sensitivity,
    fig07_trace_cdf,
    heterogeneous,
    section8d_overheads,
    table1_benchmarks,
)


class TestTable1:
    def test_all_twelve_benchmarks_present(self):
        result = table1_benchmarks.run(quick=True)
        assert len(result.rows) == 12
        kinds = {row["kind"] for row in result.rows}
        assert kinds == {"function", "application"}

    def test_latencies_positive(self):
        result = table1_benchmarks.run(quick=True)
        assert all(row["warm_latency_ms"] > 0 for row in result.rows)


class TestFig02:
    @pytest.fixture(scope="class")
    def result(self):
        return fig02_freq_sensitivity.run(quick=True)

    def test_covers_all_functions_and_levels(self, result):
        functions = {row["function"] for row in result.rows}
        assert len(functions) == 7
        levels = {row["freq_ghz"] for row in result.rows}
        assert len(levels) == 7

    def test_normalization_anchor_at_max(self, result):
        for row in result.rows:
            if row["freq_ghz"] == 3.0:
                assert row["norm_response_time"] == pytest.approx(1.0)
                assert row["norm_energy"] == pytest.approx(1.0)

    def test_paper_anchor_webserv(self, result):
        row = result.row_for(function="WebServ", freq_ghz=1.2)
        assert row["norm_response_time"] < 1.25
        assert row["norm_energy"] < 0.65

    def test_energy_always_lower_below_max(self, result):
        for row in result.rows:
            if row["freq_ghz"] < 3.0:
                assert row["norm_energy"] < 1.0, row


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self):
        return fig03_resource_sensitivity.run(quick=True)

    def test_penalties_bounded(self, result):
        assert all(row["norm_response_time"] < 1.2 for row in result.rows)

    def test_full_allocation_is_unity(self, result):
        for row in result.rows:
            if ((row["knob"] == "llc_ways" and row["setting"] == 16)
                    or (row["knob"] == "membw" and row["setting"] == 1.0)):
                assert row["norm_response_time"] == pytest.approx(1.0)

    def test_paper_anchor_4ways(self, result):
        rows = [row for row in result.rows
                if row["knob"] == "llc_ways" and row["setting"] == 4]
        assert 0 < max(row["norm_response_time"] for row in rows) - 1 < 0.1


class TestFig07:
    def test_windows_monotone(self):
        result = fig07_trace_cdf.run(quick=True)
        means = [row["mean"] for row in result.rows]
        assert means == sorted(means)
        assert all(row["max"] >= row["p99"] >= row["p50"]
                   for row in result.rows)


class TestOverheads:
    @pytest.fixture(scope="class")
    def result(self):
        return section8d_overheads.run(quick=True)

    def test_milp_time_order_of_paper(self, result):
        values = [row["value"] for row in result.rows
                  if row["component"] == "milp_solver"]
        assert all(v < 100.0 for v in values)  # paper: ~10ms

    def test_milp_time_grows_with_problem_size(self, result):
        small = result.row_for(component="milp_solver",
                               config="2fns x 2levels")["value"]
        big = result.row_for(component="milp_solver",
                             config="20fns x 10levels")["value"]
        assert big > small

    def test_ewma_mape_near_paper(self, result):
        t_run = result.row_for(component="ewma_mape", config="t_run")
        assert t_run["value"] < 5.0

    def test_mlp_latency_sub_millisecond(self, result):
        row = result.row_for(component="mlp_predict")
        assert row["value"] < 1000.0

    def test_mlp_train_step_sub_millisecond(self, result):
        row = result.row_for(component="mlp_train_step")
        assert row["value"] < 1000.0


class TestHeterogeneous:
    def test_accuracy_reaches_paper_anchor(self):
        result = heterogeneous.run(quick=True)
        assert all(row["accuracy_pct"] > 90.0 for row in result.rows)
        # The fitted slope recovers each machine's speed factor.
        broadwell = result.row_for(machine="Broadwell")
        assert broadwell["slope"] == pytest.approx(0.92, abs=0.05)
