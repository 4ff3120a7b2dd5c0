"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench -q`` from the root of a
checkout.
"""

import json
import re

import pytest

import compare
import ecobench
import spans
import worker
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_times_partition_the_root_span():
    recorder = spans.SpanRecorder(clock=FakeClock(
        [0.0, 1.0, 3.0, 6.0, 7.0, 8.0, 10.0, 12.0]))
    recorder.open("root")    # t=0
    recorder.open("a")       # t=1
    recorder.open("b")       # t=3
    recorder.close()         # t=6   b: 3
    recorder.close()         # t=7   a: 2 + 1
    recorder.open("a")       # t=8
    recorder.close()         # t=10  a: 2
    recorder.close()         # t=12  root: 1 + 1 + 2
    layers = recorder.by_layer()
    assert layers == {
        "root": {"calls": 1, "self_s": 4.0, "inclusive_s": 12.0},
        "a": {"calls": 2, "self_s": 5.0, "inclusive_s": 8.0},
        "b": {"calls": 1, "self_s": 3.0, "inclusive_s": 3.0}}
    assert recorder.total_s() == 12.0
    assert recorder.collapsed() == ("root 4000000\nroot;a 5000000\n"
                                    "root;a;b 3000000\n")


@pytest.fixture
def micro(monkeypatch):
    """Register 2 s versions of the workloads under their own names."""
    def register(system, armed):
        name = f"micro_{system}_{'armed' if armed else 'plain'}"
        monkeypatch.setitem(workloads.WORKLOADS, name, workloads.Workload(
            name, system, instances=1, duration_s=2.0, armed=armed))
        return name
    return register


def _originals():
    return {(owner, attr): vars(owner)[attr]
            for _, owner, attr in spans.resolve_targets()}


def test_every_wrapped_function_is_restored(micro):
    before = _originals()
    result = worker.run_workload({"workload": micro("EcoFaaS", True),
                                  "seed": 3, "traced": True})
    assert result["layers"]["sim.dispatch"]["calls"] > 0
    after = _originals()
    assert all(after[key] is original for key, original in before.items())


@pytest.mark.parametrize("system, armed", [
    ("EcoFaaS", False), ("Baseline", False), ("EcoFaaS", True)])
def test_traced_micro_run_is_bit_identical(micro, system, armed):
    name = micro(system, armed)
    plain = worker.run_workload({"workload": name, "seed": 5})
    traced = worker.run_workload({"workload": name, "seed": 5,
                                  "traced": True})
    assert ecobench.sim_summary(traced["summary"]) == ecobench.sim_summary(
        plain["summary"])
    _, failed, problems = ecobench.check_runs(name, [plain, plain], traced)
    assert (failed, problems) == (0, [])


def test_emitted_names_are_declared(micro):
    name = micro("EcoFaaS", True)
    plain = worker.run_workload({"workload": name, "seed": 1})
    plain["reference_s"] = ecobench.REFERENCE_S
    traced = worker.run_workload({"workload": name, "seed": 1,
                                  "traced": True})
    matrix = {arm: [1.0, 1.1, 0.9] for arm in workloads.MATRIX_ARMS}
    spec = ecobench.load_spec()
    emitted = {
        "end_to_end": set(ecobench.end_to_end([plain])),
        "per_layer": set(ecobench.layer_metrics(traced, [plain], matrix)),
    }
    for section, names in emitted.items():
        declared = {entry["name"]: entry for entry in spec[section]}
        assert names == set(declared), section
        for metric in names:
            assert NAME.match(metric), metric
            assert declared[metric]["unit"]
            if section == "end_to_end":
                assert declared[metric]["bound"] > 0


def test_host_times_are_rescaled_to_the_reference_speed():
    sample = {"wall_s": 4.0, "setup_s": 0.8, "peak_rss_mb": 90.0,
              "reference_s": 2 * ecobench.REFERENCE_S,
              "summary": {"invocations": 1000, "energy_j": 5000.0,
                          "p99_latency_s": 3.0, "met_slo": 9,
                          "submitted": 10}}
    values = ecobench.sample_values(sample)
    assert values["wall_s"] == 2.0
    assert values["setup_s"] == 0.4
    assert values["invocations_per_s"] == 500.0
    assert (values["peak_rss_mb"], values["energy_kj"]) == (90.0, 5.0)


@pytest.mark.parametrize("a, b, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 1.0], "unchanged"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "improved"),
    ([1.0, 2.0, 0.5, 1.0], [1.2, 1.1, 1.3, 1.2], "unresolved"),
    ([1.0, 2.0, 0.5, 1.5], [0.3, 0.2, 0.4, 0.3], "improved"),
])
def test_compare_verdicts_for_a_lower_is_better_metric(a, b, expected):
    assert compare.verdict(a, b, "lower", 0.1)[0] == expected


def test_compare_claims_a_paired_gain_only_on_nine_in_ten_wins():
    a = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.02, 0.98, 1.01, 0.99]
    mostly = [0.9] * 8 + [1.05, 1.05]
    assert compare.verdict(a, mostly, "lower", 0.2)[0] == "improved"
    assert compare.verdict(a, mostly, "lower", 0.2, paired=True)[0] == (
        "unchanged")
    assert compare.verdict(a, [0.9] * 10, "lower", 0.2,
                           paired=True)[0] == "improved"


@pytest.mark.parametrize("metric, b, better, expected", [
    ("energy_kj", [10.0, 20.0, 30.0], "lower", "unchanged"),
    ("energy_kj", [10.01, 20.0, 30.0], "lower", "unchanged"),
    ("energy_kj", [10.0, 20.0, 34.2], "lower", "worse"),
    ("energy_kj", [9.0, 18.0, 30.0], "lower", "improved"),
    ("slo_met_rate", [9.996, 20.0, 30.0], "higher", "unchanged"),
    ("slo_met_rate", [9.994, 20.0, 30.0], "higher", "worse"),
])
def test_compare_holds_simulated_metrics_to_per_seed_bounds(
        metric, b, better, expected):
    bound, relative = compare.SIM_BOUNDS[metric]
    assert compare.seed_verdict([10.0, 20.0, 30.0], b, better, bound,
                                relative)[0] == expected


def _sweep(path, seeds, energy):
    host = [1.0 + 0.001 * i for i in range(len(seeds))]
    path.write_text(json.dumps({"kind": "ecobench-sweep", "seeds": seeds,
                                "workloads": {"w": {"samples": {
                                    "wall_s": host, "energy_kj": energy}}}}))
    return str(path)


def test_compare_fails_a_simulated_regression_the_seed_spread_hides(
        tmp_path, capsys):
    # Energy varies by 20% from seed to seed; a 1% rise on every seed is
    # far inside that spread, and still a regression.
    seeds = list(range(1, 11))
    energy = [10.0 + 0.5 * i for i in range(10)]
    base = _sweep(tmp_path / "a.json", seeds, energy)
    same = _sweep(tmp_path / "b.json", seeds, list(energy))
    risen = _sweep(tmp_path / "c.json", seeds, [e * 1.01 for e in energy])
    assert compare.main([base, same]) == 0
    assert "0/10 seeds changed" in capsys.readouterr().out
    assert compare.main([base, risen]) == 1
    assert "10/10 seeds changed" in capsys.readouterr().out


def test_compare_leaves_simulated_metrics_of_other_seeds_unresolved(
        tmp_path, capsys):
    energy = [10.0, 11.0, 12.0]
    base = _sweep(tmp_path / "a.json", [1, 2, 3], energy)
    other = _sweep(tmp_path / "b.json", [4, 5, 6], [e * 1.5 for e in energy])
    assert compare.main([base, other]) == 0
    assert "unresolved (needs the same seeds" in capsys.readouterr().out


def test_compare_rejects_unreadable_files(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert compare.main([str(broken), str(broken)]) == 2
    assert "cannot read" in capsys.readouterr().err
