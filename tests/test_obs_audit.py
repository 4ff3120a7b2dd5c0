"""Decision audit log: coverage, determinism, and the rendered JSONL.

Every control-plane decision point must leave a structured "why" record
in the trace when a tracer is installed, and two same-seed runs must
render byte-identical ``audit.jsonl`` files. The records live in one
list, ``Tracer.instants``; ``audit.jsonl`` is rendered from it, whether
through ``obs.write_run`` or through the ``obs.install_audit`` handle
that ``bench/workloads.py`` uses. That a traced run is bit-identical to
an untraced one is one row of ``tests/test_obs_determinism.py``.
"""

import json

import pytest

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.audit import KINDS, write_jsonl
from repro.platform.cluster import ClusterConfig


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def run_overload(seed=6, duration_s=8.0):
    """One guarded overload run."""
    trace = make_load_trace("high", 2, duration_s, seed=seed,
                            cores_per_server=20)
    config = ClusterConfig(
        n_servers=2, seed=seed,
        guard=overload_experiment.guard_config(2, 20))
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)


def run_traced(seed=6, duration_s=8.0):
    """One guarded overload run under a tracer; returns the tracer."""
    tracer = obs.install(obs.Tracer())
    try:
        run_overload(seed, duration_s)
    finally:
        obs.uninstall()
    return tracer


def decisions(tracer):
    return [i for i in tracer.instants if i.name in KINDS]


def test_control_plane_decisions_are_recorded():
    records = decisions(run_traced())
    kinds = {record.name for record in records}
    assert "milp_split" in kinds
    assert "pool_retune" in kinds
    assert "admission_shed" in kinds
    assert "brownout_change" in kinds
    for record in records:
        assert record.track
        assert record.args["reason"]
        assert record.args["action"] or record.args["alternatives"]


def test_ha_decisions_are_recorded():
    tracer = obs.install(obs.Tracer())
    try:
        partition_experiment.run_one(seed=0, with_faults=True,
                                     duration_s=25.0, n_servers=3)
    finally:
        obs.uninstall()
    kinds = {record.name for record in decisions(tracer)}
    assert "ha_failover" in kinds
    assert "ha_redispatch" in kinds
    redispatches = tracer.instants_named("ha_redispatch")
    assert all(r.args["workflow_uid"] is not None for r in redispatches)
    # The redispatch joins its workflow's span by uid.
    first = redispatches[0]
    assert any(span.uid == first.args["workflow_uid"]
               for span in tracer.spans_of("workflow", run=first.run))


def test_same_seed_audit_logs_are_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        path = tmp_path / f"audit{i}.jsonl"
        write_jsonl(run_traced(), str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    loaded = read_jsonl(paths[0])
    assert loaded
    assert [r["seq"] for r in loaded] == list(range(len(loaded)))
    assert all(r["kind"] for r in loaded)


def test_bench_audit_handle_writes_the_run_directory_bytes(tmp_path):
    """``bench/workloads.py`` installs a tracer and an ``AuditLog``,
    runs, uninstalls both, then writes ``audit.jsonl`` through the
    log: the bytes are the run directory's."""
    with pytest.raises(RuntimeError, match="needs an installed tracer"):
        obs.install_audit(obs.AuditLog())
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    audit = obs.install_audit(obs.AuditLog())
    try:
        run_overload(duration_s=4.0)
    finally:
        obs.uninstall()
        obs.uninstall_audit()
    path = tmp_path / "audit.jsonl"
    assert audit.write(str(path)) == len(decisions(tracer)) > 0
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    obs.write_run(tracer, str(run_dir), {})
    assert path.read_bytes() == (run_dir / "audit.jsonl").read_bytes()


def test_breaker_trip_is_recorded():
    """Drive a breaker open via the guard runtime with a stub env."""
    from repro.guard.config import BreakerConfig, GuardConfig
    from repro.guard.runtime import GuardRuntime

    class StubTrace:
        enabled = True
        calls = []

        def instant(self, name, track, **args):
            self.calls.append(("instant", name, args))

        def decision(self, kind, actor, **record):
            self.calls.append(("decision", kind, record))

    class StubEnv:
        now = 1.0
        trace = StubTrace()

    metrics = type("M", (), {"breaker_opens": 0, "breaker_fast_fails": 0})()
    config = GuardConfig(breaker=BreakerConfig(min_failures=2,
                                               failure_rate=0.5,
                                               window_s=10.0))
    runtime = GuardRuntime(StubEnv(), metrics, ClusterConfig(guard=config))
    runtime.record_attempt_failure("f")
    runtime.record_attempt_failure("f")
    # The trip reaches the tracer once, as its own decision.
    assert [call[:2] for call in StubTrace.calls] == [
        ("decision", "breaker_trip")]
    record = StubTrace.calls[0][2]
    assert record["inputs"]["function"] == "f"
    assert record["action"]["state"] == "open"
