"""Tests for the trace exporters, the validator, the one trace reader
and the report."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.baselines import BaselineSystem
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs import export
from repro.obs.export import _nearest_rank, _process_of
from repro.obs.export import read_chrome_trace
from repro.obs.validate import validate_events
from repro.platform.cluster import ClusterConfig
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


def two_run_tracer():
    """:func:`synthetic_tracer` plus a second run that links a job to its
    workflow and ends with both still open."""
    tracer = synthetic_tracer()
    env = Environment()
    tracer.begin_run("Second")
    tracer.bind(env)

    def proc():
        tracer.workflow_begin(0, "App", slo_s=1.0)
        tracer.link(0, 1)
        tracer.invocation_begin(1, "App.fn", benchmark="App")
        tracer.phase(1, "queue", pool="pool2.0@0")
        yield env.timeout(0.25)
        tracer.instant("pool_retune", "controller",
                       inputs={"targets": {"pool2.0@0": 3}},
                       action={"targets": {"pool2.0@0": 2}})
        yield env.timeout(1.0 / 3.0)

    env.process(proc())
    env.run()
    return tracer


class TestReadBack:
    """The reader returns the records the writer wrote."""

    def test_round_trip_restores_every_record(self, tmp_path):
        tracer = two_run_tracer()
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(tracer, path)  # closes the open spans
        back = read_chrome_trace(path)
        assert back.run_labels == tracer.run_labels == ["Synthetic",
                                                        "Second"]
        assert back.wf_links == tracer.wf_links == [(1, 0, 1)]
        assert [s.args.get("status") for s in tracer.spans_of(
            "invocation", 1)] == ["unfinished"]
        assert len(back.spans) == len(tracer.spans)
        for old, new in zip(tracer.spans, back.spans):
            assert (new.run, new.kind, new.name, new.uid, new.args) == \
                (old.run, old.kind, old.name, old.uid, old.args)
            assert abs(new.t0 - old.t0) <= 1e-9
            assert abs(new.t1 - old.t1) <= 1e-9
        assert len(back.instants) == len(tracer.instants)
        for old, new in zip(tracer.instants, back.instants):
            assert (new.run, new.name, new.track, new.args) == \
                (old.run, old.name, old.track, old.args)
            assert abs(new.t - old.t) <= 1e-9

    def test_instants_only_read_builds_no_span(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(two_run_tracer(), path)
        full = read_chrome_trace(path)
        bare = read_chrome_trace(path, spans=False)
        assert full.spans and bare.spans == []
        assert bare.instants == full.instants
        assert (bare.run_labels, bare.run_end_s, bare.wf_links) == \
            (full.run_labels, full.run_end_s, full.wf_links)

    def test_counters_are_not_read_back(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(synthetic_tracer(), path)
        assert read_chrome_trace(path).counters == []


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
        read_chrome_trace(path)  # raises when invalid
        events = json.loads((tmp_path / "trace.json").read_text())
        assert validate_events(events["traceEvents"]) == []

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


def recorded(body, label="Case"):
    """A one-run tracer filled by the generator ``body(tracer, env)``."""
    env = Environment()
    tracer = obs.Tracer()
    tracer.begin_run(label)
    tracer.bind(env)
    env.process(body(tracer, env))
    env.run()
    return tracer


def _counters_only(tracer, env):
    tracer.counter("node0", "power_w", 80.0)
    tracer.counter("pool2.0@1", "pool_size", 3)
    yield env.timeout(0.5)
    tracer.counter("node0", "power_w", 90.5)


def _non_finite_args(tracer, env):
    tracer.instant("probe", "node0", nan=float("nan"), pinf=float("inf"),
                   ninf=-float("inf"), nested={"x": float("nan")},
                   alternatives=[{"score": float("inf")}])
    yield env.timeout(0.25)
    tracer.invocation_begin(1, "App.fn", slack=float("-inf"))
    tracer.invocation_end(1, "completed", energy_j=float("nan"))


def _numpy_args(tracer, env):
    tracer.invocation_begin(1, "App.fn", freq=np.float64(2.5),
                            size=np.int64(3), warm=np.bool_(True),
                            share=np.float32(0.1), gap=np.float64("nan"),
                            inputs={"n": np.int64(4), "f": np.float64(0.5)})
    yield env.timeout(1.0 / 3.0)
    tracer.invocation_end(1, "completed", met_deadline=np.bool_(False))


def _int_keyed_args(tracer, env):
    tracer.decision("pool_retune", "controller",
                    inputs={"demand": {0: 1.5, 2: 0.25}},
                    action={"targets": {1: 2, 0: 3}})
    tracer.instant("pool_retune", "pool2.0@0", targets={3: 1, "x": 2})
    yield env.timeout(0.1)


def _phase_span(tracer, env):
    tracer.invocation_begin(7, "App.fn", benchmark="App")
    tracer.phase(7, "queue", pool="pool2.0@0")
    yield env.timeout(0.125)
    tracer.phase(7, "run", freq_ghz=2.0)
    yield env.timeout(0.5)
    tracer.invocation_end(7, "completed", energy_j=1.0)


def _unfinished_span(tracer, env):
    tracer.workflow_begin(0, "App", slo_s=1.0)
    tracer.link(0, 1)
    tracer.invocation_begin(1, "App.fn")
    yield env.timeout(0.75)


STREAM_CASES = {
    "empty": obs.Tracer,
    "counters_only": lambda: recorded(_counters_only),
    "non_finite_args": lambda: recorded(_non_finite_args),
    "numpy_args": lambda: recorded(_numpy_args),
    "int_keyed_args": lambda: recorded(_int_keyed_args),
    "phase_span": lambda: recorded(_phase_span),
    "unfinished_span": lambda: recorded(_unfinished_span),
    "two_runs": two_run_tracer,
}


def one_shot_bytes(tracer):
    """The trace file as one ``json.dumps`` of the whole document, the
    shape the streaming writer must reproduce byte for byte."""
    document = {
        "traceEvents": obs.chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs (EcoFaaS reproduction)",
            "runs": list(tracer.run_labels),
            "clock": "simulation seconds, exported as microseconds",
            "workflowLinks": [list(link) for link in tracer.wf_links],
        },
    }
    return (json.dumps(document, separators=(",", ":")) + "\n").encode()


@pytest.fixture(scope="module")
def armed_two_runs():
    """Two armed runs (trace, ledger, fingerprints) on one tracer."""
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    try:
        for system in (EcoFaaSSystem(EcoFaaSConfig()), BaselineSystem()):
            run_cluster(system, make_load_trace("low", 2, 4.0, seed=3),
                        ClusterConfig(n_servers=2, drain_s=2.0))
    finally:
        obs.uninstall()
    return tracer


class TestStreamedBytes:
    """The streamed trace equals the one-shot encoding of the document."""

    @pytest.mark.parametrize("chunk", [1, 3, export.CHUNK_EVENTS])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_matches_one_shot_encoding(self, case, chunk, tmp_path,
                                       monkeypatch):
        monkeypatch.setattr(export, "CHUNK_EVENTS", chunk)
        path = tmp_path / "trace.json"
        n = obs.write_chrome_trace(STREAM_CASES[case](), str(path))
        expected = one_shot_bytes(STREAM_CASES[case]())
        assert path.read_bytes() == expected
        assert n == len(json.loads(expected)["traceEvents"])

    @pytest.mark.parametrize("chunk", [1, 3, export.CHUNK_EVENTS])
    def test_armed_two_run_trace_matches(self, armed_two_runs, chunk,
                                         tmp_path, monkeypatch):
        monkeypatch.setattr(export, "CHUNK_EVENTS", chunk)
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(armed_two_runs, str(path))
        assert armed_two_runs.run_labels == ["EcoFaaS", "Baseline"]
        assert path.read_bytes() == one_shot_bytes(armed_two_runs)

    def test_non_finite_and_numpy_args_are_plain_json(self):
        events = obs.chrome_trace_events(recorded(_non_finite_args))
        probe = next(e for e in events if e["name"] == "probe")
        assert probe["args"]["nan"] == "nan"
        assert probe["args"]["ninf"] == "-inf"
        assert probe["args"]["nested"] == {"x": "nan"}
        end = [e for e in obs.chrome_trace_events(recorded(_numpy_args))
               if e["ph"] == "e"][0]
        assert type(end["args"]["size"]) is int
        assert end["args"]["warm"] is True
        assert end["args"]["gap"] == "nan"
        assert end["args"]["inputs"] == {"n": 4, "f": 0.5}


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


def three_run_ledger_tracer(close_run):
    """Three hand-built runs on one tracer with an energy ledger.

    ``close_run(tracer, cluster)`` runs after each run, with a stub of
    the finalized cluster, as the experiment harness closes its runs.
    """
    ledger = obs.EnergyLedger()
    tracer = obs.Tracer(ledger=ledger)
    for run, end_s in enumerate((3.0, 4.5, 1.25)):
        env = Environment()
        tracer.begin_run(f"Run{run}")
        tracer.bind(env)

        def proc(env=env, end_s=end_s, run=run):
            tracer.workflow_begin(0, "App", slo_s=2.0)
            tracer.invocation_begin(1, "App.fn")
            tracer.counter("node0", "power_w", 40.0 + run)
            ledger.record_static("node0", 0.0, end_s / 3.0, 1.5)
            yield env.timeout(end_s / 3.0)
            tracer.instant("retry", "frontend", function="App.fn")
            ledger.record_static("node0", end_s / 3.0, end_s, 2.0 + run)
            yield env.timeout(end_s * 2.0 / 3.0)
            tracer.invocation_end(1, "completed", energy_j=0.5)
            tracer.workflow_end(0, "completed", met_slo=True)

        env.process(proc())
        env.run()
        close_run(tracer, SimpleNamespace(
            metrics=SimpleNamespace(
                function_records=[], workflow_records=[], retries=0,
                hedges=0, timeouts=0, failures=0, lost_invocations=0,
                failed_workflows=0, retry_energy_j=0.0),
            servers=[],
            total_energy_j=sum(e.joules for e in ledger.entries
                               if e.run == run)))
    return tracer


class TestEpochWork:
    """Each run's epochs are binned once, from that run's records."""

    def test_close_run_bins_only_the_run_it_closes(self, monkeypatch):
        recorder = obs.FingerprintRecorder(epoch_s=1.0)
        binned = []
        bin_epochs = obs.EnergyLedger.epoch_component_j

        def counted(ledger, run, n_epochs, epoch_s):
            binned.append(run)
            return bin_epochs(ledger, run, n_epochs, epoch_s)

        monkeypatch.setattr(obs.EnergyLedger, "epoch_component_j", counted)

        def close_run(tracer, cluster):
            tracer.ledger.close_run(cluster)
            entry = recorder.close_run(cluster, tracer)
            assert binned == list(range(entry["run"] + 1))

        three_run_ledger_tracer(close_run)
        assert [e["n_epochs"] for e in recorder.entries] == [3, 5, 2]

    def test_one_run_rows_equal_its_slice_of_all_rows(self):
        """The rows ``close_run`` bins for one run, from that run's
        records, equal its slice of :func:`epoch_rows` value for value."""
        tracer = three_run_ledger_tracer(
            lambda tracer, cluster: tracer.ledger.close_run(cluster))
        every = obs.epoch_rows(tracer, epoch_s=1.0)
        assert {row["run"] for row in every} == {0, 1, 2}
        for run in range(3):
            records = export.records_by_run(tracer, run)[run]
            one = export.run_epochs(tracer, run, records, 1.0)
            want = [row for row in every if row["run"] == run]
            assert [list(row) for row in one] == [list(row) for row in want]
            assert [[repr(v) for v in row.values()] for row in one] == \
                [[repr(v) for v in row.values()] for row in want]
            assert one[0]["energy_static_j"] > 0.0
        assert export.run_epochs(
            tracer, 3, export.records_by_run(tracer, 3)[3], 1.0) == []


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
        text = obs.report(read_chrome_trace(path))
        assert "run 0 (Synthetic): 1 completed invocations" in text
        assert "App.fn" in text
        assert "3.0J" in text

    def test_report_json_format(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(synthetic_tracer(), path)
        document = json.loads(obs.report(read_chrome_trace(path),
                                         fmt="json"))
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
