"""Decision audit log: coverage, determinism, and the one-stream oracle.

Every control-plane decision point must leave a structured "why" record
when a log is installed, and two same-seed runs must serialize to
byte-identical JSONL. Each decision is emitted once and written twice —
to the JSONL log and, on traced runs, to the trace as a decision instant
— and :func:`stream_mismatches` checks that the two writers agree
(``tests/test_obs_explain.py`` and ``tests/test_tenancy_integration.py``
apply it to their traced runs). That an audited run is bit-identical to
an unaudited one is one row of ``tests/test_obs_determinism.py``.
"""

import json
import os

import pytest

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.audit import KINDS, AuditLog
from repro.obs.explain import load_explain_data
from repro.platform.cluster import ClusterConfig


def read_jsonl(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


#: The record fields a decision instant carries in its args.
PAYLOAD = ("inputs", "action", "alternatives", "reason", "workflow_uid",
           "job_uid")


def stream_mismatches(tracer, audit, run_dir):
    """Where the trace's decision instants and the audit records part.

    Checked twice: in memory (exact times) and through the run
    directory's exported files (the trace's microsecond timestamps, the
    JSONL's own rounding). Returns a list of problems, empty when both
    writers carry the same decision sequence.
    """
    problems = []
    instants = [i for i in tracer.instants if i.name in KINDS]
    memory = [(i.run, i.name, i.track, i.t, i.args) for i in instants]
    records = [(r.run, r.kind, r.actor, r.t,
                {key: getattr(r, key) for key in PAYLOAD})
               for r in audit.records]
    if memory != records:
        problems.append(f"in memory: {len(memory)} decision instants vs"
                        f" {len(records)} audit records")
    exported = [i for i in load_explain_data(
        os.path.join(run_dir, "trace.json")).instants if i["name"] in KINDS]
    lines = read_jsonl(os.path.join(run_dir, "audit.jsonl"))
    if len(exported) != len(lines):
        problems.append(f"exported: {len(exported)} decision instants vs"
                        f" {len(lines)} JSONL records")
    for inst, line in zip(exported, lines):
        same = (inst["run"], inst["name"], inst["track"]) == (
            line["run"], line["kind"], line["actor"]) \
            and abs(inst["t"] - line["t"]) <= 1e-6 \
            and all(inst["args"][key] == line[key] for key in PAYLOAD)
        if not same:
            problems.append(f"exported record seq {line['seq']} differs:"
                            f" {inst} vs {line}")
            break
    kinds_traced = {i["name"] for i in exported}
    kinds_logged = {line["kind"] for line in lines}
    if kinds_traced != kinds_logged:
        problems.append(f"kinds differ: {sorted(kinds_traced)} vs"
                        f" {sorted(kinds_logged)}")
    return problems


def run_audited(seed=6, duration_s=8.0):
    """One guarded overload run with an audit log installed."""
    audit = obs.install_audit(AuditLog())
    try:
        trace = make_load_trace("high", 2, duration_s, seed=seed,
                                cores_per_server=20)
        config = ClusterConfig(
            n_servers=2, seed=seed,
            guard=overload_experiment.guard_config(2, 20))
        cluster = run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                              config)
    finally:
        obs.uninstall_audit()
    return cluster, audit


def test_control_plane_decisions_are_recorded():
    _, audit = run_audited()
    kinds = {record.kind for record in audit.records}
    assert "milp_split" in kinds
    assert "pool_retune" in kinds
    assert "admission_shed" in kinds
    assert "brownout_change" in kinds
    for record in audit.records:
        assert record.actor
        assert record.reason
        assert record.action or record.alternatives


def test_ha_decisions_are_recorded():
    audit = obs.install_audit(AuditLog())
    try:
        partition_experiment.run_one(seed=0, with_faults=True,
                                     duration_s=25.0, n_servers=3)
    finally:
        obs.uninstall_audit()
    kinds = {record.kind for record in audit.records}
    assert "ha_failover" in kinds
    assert "ha_redispatch" in kinds
    redispatches = audit.of_kind("ha_redispatch")
    assert all(r.workflow_uid is not None for r in redispatches)
    # for_workflow() finds the redispatch by its workflow uid.
    uid = redispatches[0].workflow_uid
    assert audit.for_workflow(uid)


def test_same_seed_audit_logs_are_byte_identical(tmp_path):
    paths = []
    for i in range(2):
        _, audit = run_audited()
        path = tmp_path / f"audit{i}.jsonl"
        audit.write(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    loaded = read_jsonl(paths[0])
    assert loaded
    assert [r["seq"] for r in loaded] == \
        sorted(r["seq"] for r in loaded)
    assert all(r["kind"] for r in loaded)


def test_record_requires_binding():
    log = AuditLog()
    with pytest.raises(RuntimeError):
        _ = log.now


def test_breaker_trip_is_recorded():
    """Drive a breaker open via the guard runtime with a stub env."""
    from repro.guard.config import BreakerConfig, GuardConfig
    from repro.guard.runtime import GuardRuntime

    class StubTrace:
        enabled = False
        names = []

        def instant(self, name, track, **args):
            self.names.append(name)

    class StubEnv:
        now = 1.0
        trace = StubTrace()
        audit = None
        ha = None

    class StubCluster:
        env = StubEnv()
        metrics = type("M", (), {"breaker_opens": 0,
                                 "breaker_fast_fails": 0})()
        nodes = ()

    config = GuardConfig(breaker=BreakerConfig(min_failures=2,
                                               failure_rate=0.5,
                                               window_s=10.0))
    runtime = GuardRuntime(StubCluster(), config)
    audit = AuditLog()
    audit.begin_run("stub")
    audit.bind(StubEnv)
    StubEnv.audit = audit
    runtime.record_attempt_failure("f")
    runtime.record_attempt_failure("f")
    trips = audit.of_kind("breaker_trip")
    assert len(trips) == 1
    assert trips[0].inputs["function"] == "f"
    assert trips[0].action["state"] == "open"
    # The trip reaches the trace once, as the record's own instant.
    assert StubTrace.names == ["breaker_trip"]
