"""SLO burn-rate monitors: bucket math, alert edges, determinism."""

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.burnrate import (
    BurnRateMonitor,
    LogBucketHistogram,
    bucket_bounds,
    bucket_index,
)
from repro.platform.cluster import ClusterConfig


def test_bucket_index_is_monotonic_and_consistent_with_bounds():
    last = -1
    for latency_ms in (0.0, 0.5, 1.0, 1.2, 2.0, 5.0, 17.0, 100.0, 3000.0):
        index = bucket_index(latency_ms * 1e-3)
        assert index >= last
        last = index
        lo, hi = bucket_bounds(index)
        if latency_ms > 0:
            assert lo <= latency_ms * 1e-3 < hi or index == 0


def test_four_buckets_per_doubling():
    assert bucket_index(2e-3) - bucket_index(1e-3) == 4
    assert bucket_index(8e-3) - bucket_index(4e-3) == 4


def test_histogram_percentiles():
    hist = LogBucketHistogram()
    for latency_ms in [1, 1, 1, 1, 1, 1, 1, 1, 1, 100]:
        hist.observe(latency_ms * 1e-3)
    assert hist.count == 10
    # p50 sits in the 1 ms bucket, p99 in the 100 ms bucket.
    assert hist.percentile(0.50) < 2e-3
    lo, hi = bucket_bounds(bucket_index(100e-3))
    assert hist.percentile(0.99) == hi
    d = hist.to_dict()
    assert d["count"] == 10
    assert sum(d["buckets"].values()) == 10


class RecordingTracer:
    def __init__(self):
        self.instants = []

    def instant(self, name, track, **args):
        self.instants.append((name, args))


def feed(monitor, tracer, times_met):
    for t, met in times_met:
        monitor.observe(tracer, "WebServ", t, met, latency_s=0.01)


def test_fast_burn_alert_fires_on_rising_edge_only():
    monitor = BurnRateMonitor()
    monitor.begin_run(0, "test")
    tracer = RecordingTracer()
    # 5 misses in quick succession: 100% miss rate => burn 10 >= 4.
    feed(monitor, tracer, [(0.1 * i, False) for i in range(5)])
    fast = [i for i in tracer.instants if i[0] == "slo_burn_fast"]
    assert len(fast) == 1
    assert fast[0][1]["benchmark"] == "WebServ"
    assert fast[0][1]["burn"] >= 4.0
    # Still hot: no re-fire while the condition persists.
    feed(monitor, tracer, [(0.6, False), (0.7, False)])
    assert len([i for i in tracer.instants
                if i[0] == "slo_burn_fast"]) == 1
    # Recover (all met, window slides), then a second excursion re-fires.
    feed(monitor, tracer, [(6.0 + 0.1 * i, True) for i in range(10)])
    feed(monitor, tracer, [(20.0 + 0.1 * i, False) for i in range(5)])
    assert len([i for i in tracer.instants
                if i[0] == "slo_burn_fast"]) == 2


def test_no_alert_below_min_samples():
    monitor = BurnRateMonitor()
    monitor.begin_run(0, "test")
    tracer = RecordingTracer()
    feed(monitor, tracer, [(0.1 * i, False) for i in range(4)])
    assert tracer.instants == []


def test_slow_burn_tracks_sustained_budget_consumption():
    monitor = BurnRateMonitor()
    monitor.begin_run(0, "test")
    tracer = RecordingTracer()
    # 10% misses sustained: slow burn == 1.0 exactly => alert.
    events = [(float(i), i % 10 == 0) for i in range(20)]
    feed(monitor, tracer, [(t, not miss) for t, miss in events])
    assert any(i[0] == "slo_burn_slow" for i in tracer.instants)


def run_monitored(seed=6):
    monitor = BurnRateMonitor()
    obs.install(obs.Tracer(burnrate=monitor))
    try:
        trace = make_load_trace("high", 2, 8.0, seed=seed,
                                cores_per_server=20)
        config = ClusterConfig(
            n_servers=2, seed=seed,
            guard=overload_experiment.guard_config(2, 20))
        cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                              config)
    finally:
        obs.uninstall()
    return cluster, monitor


def test_monitor_summary_is_deterministic_across_runs():
    _, first = run_monitored()
    _, second = run_monitored()
    assert first.summary() == second.summary()
    assert first.summary()["config"] == {
        "target_miss_rate": 0.1, "fast_window_s": 5.0,
        "slow_window_s": 30.0, "fast_burn": 4.0, "slow_burn": 1.0,
        "min_samples": 5}
    runs = first.summary()["runs"]
    assert runs and runs[0]["benchmarks"]
    histograms = [b["histogram"] for b in runs[0]["benchmarks"].values()]
    assert sum(h["count"] for h in histograms) > 0


def test_burn_instants_land_in_epoch_metrics_columns():
    """The registry wires slo_burn_* instants to epoch columns."""
    from repro.obs.export import epoch_rows

    monitor = BurnRateMonitor()
    tracer = obs.install(obs.Tracer(burnrate=monitor))
    try:
        trace = make_load_trace("high", 2, 8.0, seed=6,
                                cores_per_server=20)
        config = ClusterConfig(
            n_servers=2, seed=6,
            guard=overload_experiment.guard_config(2, 20))
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)
    finally:
        obs.uninstall()
    rows = epoch_rows(tracer, epoch_s=2.0)
    assert all("slo_fast_burns" in row and "slo_slow_burns" in row
               for row in rows)
    fired = sum(row["slo_fast_burns"] + row["slo_slow_burns"]
                for row in rows)
    alerts = sum(
        b["fast_alerts"] + b["slow_alerts"]
        for run in monitor.summary()["runs"]
        for b in run["benchmarks"].values())
    assert fired == alerts
