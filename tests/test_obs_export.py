"""Tests for the trace exporters, validator, and report loader."""

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.obs.export import _nearest_rank, _process_of
from repro.obs.export import read_chrome_trace
from repro.obs.validate import validate_events
from repro.sim import Environment


def synthetic_tracer():
    """A tracer with one hand-built run covering every record type."""
    env = Environment()
    tracer = obs.Tracer()
    tracer.begin_run("Synthetic")
    tracer.bind(env)

    def proc():
        tracer.workflow_begin(0, "App", slo_s=2.0)
        tracer.invocation_begin(1, "App.fn", benchmark="App")
        tracer.phase(1, "queue")
        yield env.timeout(0.5)
        tracer.phase(1, "run", freq_ghz=np.float64(2.0))
        tracer.counter("node0", "power_w", 100.0)
        tracer.counter("node1", "power_w", 50.0)
        tracer.counter("node0", "outstanding", 2)
        tracer.instant("freq_transition", "App.fn@0", to_ghz=2.0)
        yield env.timeout(1.0)
        tracer.invocation_end(
            1, "completed", energy_j=3.0, cold_start=True,
            met_deadline=bool(np.bool_(False)), latency_s=1.5)
        tracer.workflow_end(0, "completed", met_slo=np.bool_(True),
                            latency_s=1.5)
        tracer.instant("retry", "frontend", function="App.fn")
        tracer.instant("fault_node_crash", "faults", node=0)

    env.process(proc())
    env.run()
    return tracer


class TestProcessMapping:
    @pytest.mark.parametrize("track,process", [
        ("node0", "node0"),
        ("node12", "node12"),
        ("App.fn@3", "node3"),
        ("frontend", "frontend"),
        ("faults", "faults"),
        ("nodeX", "cluster"),
        ("misc", "cluster"),
    ])
    def test_track_to_process(self, track, process):
        assert _process_of(track) == process


class TestChromeTrace:
    def test_events_cover_spans_instants_counters(self):
        tracer = synthetic_tracer()
        events = obs.chrome_trace_events(tracer)
        phases = {e["ph"] for e in events}
        assert phases == {"M", "b", "e", "i", "C"}
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends) == 4  # workflow + invocation + 2 phases
        # Timestamps are microseconds.
        run_phase = next(e for e in begins if e["name"] == "run")
        assert run_phase["ts"] == 500000.0

    def test_numpy_scalars_are_json_serializable(self, tmp_path):
        tracer = synthetic_tracer()
        path = str(tmp_path / "trace.json")
        n = obs.write_chrome_trace(tracer, path)
        document = json.loads((tmp_path / "trace.json").read_text())
        assert len(document["traceEvents"]) == n
        end = next(e for e in document["traceEvents"]
                   if e["ph"] == "e" and e["name"] == "App.fn")
        assert end["args"]["met_deadline"] is False
        assert end["args"]["energy_j"] == 3.0

    def test_written_trace_validates(self, tmp_path):
        tracer = synthetic_tracer()
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(tracer, path)
        events, _, _ = read_chrome_trace(path)  # raises when invalid
        assert validate_events(events) == []

    def test_process_names_carry_run_labels(self, tmp_path):
        tracer = synthetic_tracer()
        events = obs.chrome_trace_events(tracer)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "Synthetic [0] invocations" in names
        assert "Synthetic [0] node0" in names

    def test_identical_traces_serialize_to_identical_bytes(self, tmp_path):
        paths = [str(tmp_path / f"t{i}.json") for i in range(2)]
        for path in paths:
            obs.write_chrome_trace(synthetic_tracer(), path)
        assert (tmp_path / "t0.json").read_bytes() == \
               (tmp_path / "t1.json").read_bytes()


class TestValidator:
    def test_accepts_minimal_balanced_events(self):
        events = [
            {"ph": "b", "name": "x", "cat": "c", "id": 1, "pid": 1,
             "tid": 0, "ts": 0.0, "args": {}},
            {"ph": "e", "name": "x", "cat": "c", "id": 1, "pid": 1,
             "tid": 0, "ts": 5.0, "args": {}},
        ]
        assert validate_events(events) == []

    def test_flags_dangling_span(self):
        events = [{"ph": "b", "name": "x", "cat": "c", "id": 1, "pid": 1,
                   "tid": 0, "ts": 0.0, "args": {}}]
        problems = validate_events(events)
        assert any("never closed" in p for p in problems)

    def test_flags_bad_field_types(self):
        problems = validate_events([
            {"ph": "i", "s": "t", "name": 7, "pid": 1, "tid": 0, "ts": 0.0},
            {"ph": "C", "name": "c", "pid": 1, "tid": 0, "ts": 1.0,
             "args": {"value": "not-a-number"}},
        ])
        assert len(problems) >= 2

    def test_flags_unknown_phase(self):
        problems = validate_events(
            [{"ph": "Z", "name": "x", "pid": 1, "tid": 0, "ts": 0.0}])
        assert any("ph" in p for p in problems)

    def test_flags_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"notTraceEvents\": []}")
        with pytest.raises(ValueError, match="no traceEvents"):
            read_chrome_trace(str(path))


class TestEpochRows:
    def test_nearest_rank(self):
        assert math.isnan(_nearest_rank([], 99.0))
        assert _nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert _nearest_rank([1.0, 2.0, 3.0, 4.0], 99.0) == 4.0

    def test_rows_bin_by_span_end(self):
        tracer = synthetic_tracer()
        rows = obs.epoch_rows(tracer, epoch_s=1.0)
        assert [r["epoch"] for r in rows] == [0, 1]
        # Invocation ends at t=1.5 -> second epoch.
        assert rows[0]["invocations"] == 0
        assert rows[1]["invocations"] == 1
        assert rows[1]["energy_j"] == 3.0
        assert rows[1]["cold_starts"] == 1
        assert rows[1]["deadline_misses"] == 1
        assert rows[1]["workflows"] == 1
        assert rows[1]["slo_violations"] == 0
        assert rows[1]["p99_latency_s"] == pytest.approx(1.5)

    def test_rows_count_instants_and_average_counters(self):
        rows = obs.epoch_rows(synthetic_tracer(), epoch_s=1.0)
        assert rows[0]["freq_transitions"] == 1
        assert rows[1]["retries"] == 1
        assert rows[1]["faults"] == 1
        # Both nodes sampled at t=0.5: summed across the cluster.
        assert rows[0]["mean_power_w"] == pytest.approx(150.0)
        assert rows[0]["mean_outstanding"] == pytest.approx(2.0)
        assert math.isnan(rows[1]["mean_power_w"])

    def test_epoch_length_must_be_positive(self):
        with pytest.raises(ValueError):
            obs.epoch_rows(synthetic_tracer(), epoch_s=0.0)

    def test_final_partial_epoch_is_emitted_and_flagged(self):
        # The synthetic run ends at t=1.5: the second epoch covers only
        # [1.0, 1.5) and must be emitted with its true end time rather
        # than silently padded to the epoch boundary.
        rows = obs.epoch_rows(synthetic_tracer(), epoch_s=1.0)
        assert rows[0]["is_partial"] is False
        assert rows[0]["t1_s"] == 1.0
        assert rows[1]["is_partial"] is True
        assert rows[1]["t1_s"] == pytest.approx(1.5)
        # The partial row still carries the tail's data (satellite fix:
        # it used to be dropped when the run ended off-boundary).
        assert rows[1]["invocations"] == 1

    def test_final_epoch_on_boundary_is_not_flagged(self):
        rows = obs.epoch_rows(synthetic_tracer(), epoch_s=1.5)
        assert [r["is_partial"] for r in rows] == [False]
        assert rows[0]["t1_s"] == pytest.approx(1.5)

    def test_instant_columns_come_from_shared_registry(self):
        from repro.obs.registry import EPOCH_INSTANT_COLUMNS

        rows = obs.epoch_rows(synthetic_tracer(), epoch_s=1.0)
        for column in EPOCH_INSTANT_COLUMNS.values():
            assert column in rows[0], column
        # The registry is the single source of truth: export has no
        # private copy of the instant → column mapping left.
        import repro.obs.export as export_module
        assert not hasattr(export_module, "_EPOCH_INSTANTS")

    def test_csv_writer(self, tmp_path):
        tracer = synthetic_tracer()
        csv_path = tmp_path / "epochs.csv"
        rows = obs.write_epoch_metrics(tracer, str(csv_path), epoch_s=1.0)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(rows)
        assert lines[0].startswith("run,system,epoch")
        assert rows[1]["invocations"] == 1


class TestSummaryAndReport:
    def test_run_summary_mentions_counts(self):
        text = obs.run_summary(synthetic_tracer())
        assert "run 0 (Synthetic)" in text
        assert "1/1 invocations completed" in text
        assert "1 workflows" in text
        assert "top by energy: App.fn=3J" in text
        assert "retry=1" in text

    def test_queueing_by_function(self):
        totals = obs.queueing_by_function(synthetic_tracer())
        assert totals == {"App.fn": pytest.approx(0.5)}

    def test_report_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(synthetic_tracer(), path)
        text = obs.report(path)
        assert "run 0 (Synthetic): 1 completed invocations" in text
        assert "App.fn" in text
        assert "3.0J" in text

    def test_report_json_format(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(synthetic_tracer(), path)
        document = json.loads(obs.report(path, fmt="json"))
        run = document["runs"][0]
        assert run["label"] == "Synthetic"
        assert run["completed_invocations"] == 1
        assert run["top_energy_j"][0] == {"function": "App.fn",
                                          "energy_j": 3.0}

    def test_cli_report_json_format(self, tmp_path, capsys):
        from repro.cli import main
        obs.write_chrome_trace(synthetic_tracer(),
                               str(tmp_path / "trace.json"))
        assert main(["report", str(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["completed_invocations"] == 1
