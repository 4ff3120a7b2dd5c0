"""``repro explain``: ranked causes for missed-SLO workflows.

The acceptance bar: in both the guarded-overload and the HA-partition
regimes, at least one workflow misses its SLO and ``explain`` produces a
non-empty ranked cause list for it, joining trace spans, instants, and
the decision instants the audit log writes into the trace. Both runs
also record the audit JSONL, and the one-stream oracle checks that it
and the trace carry the same decisions.
"""

import pytest

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.explain import (
    explain,
    format_explanation,
    load_explain_data,
    missed_workflows,
)
from repro.platform.cluster import ClusterConfig
from tests.test_obs_audit import stream_mismatches


@pytest.fixture(scope="module")
def overload_artifacts(tmp_path_factory):
    """Trace + audit files from one guarded overload run."""
    out = tmp_path_factory.mktemp("overload")
    tracer = obs.install(obs.Tracer())
    audit = obs.install_audit(obs.AuditLog())
    try:
        trace = make_load_trace("high", 2, 12.0, seed=6,
                                cores_per_server=20)
        config = ClusterConfig(
            n_servers=2, seed=6,
            guard=overload_experiment.guard_config(2, 20))
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)
    finally:
        obs.uninstall()
        obs.uninstall_audit()
    trace_path = out / "trace.json"
    audit_path = out / "audit.jsonl"
    obs.write_chrome_trace(tracer, str(trace_path))
    audit.write(str(audit_path))
    return tracer, audit, str(trace_path), str(audit_path)


@pytest.fixture(scope="module")
def partition_artifacts(tmp_path_factory):
    """Trace + audit files from one HA partition run."""
    out = tmp_path_factory.mktemp("partition")
    tracer = obs.install(obs.Tracer())
    audit = obs.install_audit(obs.AuditLog())
    try:
        partition_experiment.run_one(seed=0, with_faults=True,
                                     duration_s=30.0, n_servers=3)
    finally:
        obs.uninstall()
        obs.uninstall_audit()
    trace_path = out / "trace.json"
    audit_path = out / "audit.jsonl"
    obs.write_chrome_trace(tracer, str(trace_path))
    audit.write(str(audit_path))
    return tracer, audit, str(trace_path), str(audit_path)


def explain_worst(artifacts):
    data = load_explain_data(artifacts[2])
    missed = missed_workflows(data)
    assert missed, "expected at least one missed-SLO workflow"
    worst = missed[0]
    return data, explain(data, worst.uid, run=worst.run)


def test_overload_miss_has_ranked_causes(overload_artifacts):
    _, result = explain_worst(overload_artifacts)
    assert result["causes"]
    scores = [c["score"] for c in result["causes"]]
    assert scores == sorted(scores, reverse=True)
    # Overload misses queue: the dominant cause names the pool waited in.
    assert result["causes"][0]["kind"] == "queueing"
    assert "pool" in result["causes"][0]["text"]
    text = format_explanation(result)
    assert "ranked causes:" in text
    assert "missed SLO" in text or "failed" in text


def test_partition_miss_has_ranked_causes(partition_artifacts):
    data, result = explain_worst(partition_artifacts)
    assert result["causes"]
    assert result["missed_by_s"] is None or result["missed_by_s"] > 0 \
        or result["status"] == "failed"
    # Somewhere in the partition run, HA redispatches left decision
    # instants that explain can join by workflow uid.
    redispatched = [i for i in data.instants
                    if i["name"] == "ha_redispatch"]
    assert redispatched
    uid = redispatched[0]["args"]["workflow_uid"]
    if any(s.cat == "workflow" and s.uid == uid for s in data.spans):
        joined = explain(data, uid)
        kinds = {c["kind"] for c in joined["causes"]}
        assert "ha" in kinds or "audit" in kinds


def test_explain_links_jobs_to_workflows(overload_artifacts):
    data, result = explain_worst(overload_artifacts)
    assert result["jobs"], "workflow uid should link to its job uids"
    assert data.links, "trace should carry workflowLinks metadata"


def test_explain_unknown_workflow_raises(overload_artifacts):
    data = load_explain_data(overload_artifacts[2])
    with pytest.raises(KeyError):
        explain(data, 10**9)


def test_cli_explain_end_to_end(overload_artifacts, capsys):
    from repro.cli import main

    trace_path = overload_artifacts[2]
    assert main(["explain", trace_path, "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "ranked causes:" in out
    assert "1." in out


def test_cli_explain_specific_workflow(overload_artifacts, capsys):
    from repro.cli import main

    trace_path = overload_artifacts[2]
    data = load_explain_data(trace_path)
    uid = missed_workflows(data)[0].uid
    assert main(["explain", trace_path, str(uid)]) == 0
    out = capsys.readouterr().out
    assert f"workflow {uid} " in out


@pytest.mark.parametrize("name", ["overload", "partition"])
def test_trace_and_audit_log_carry_one_decision_stream(
        name, overload_artifacts, partition_artifacts):
    artifacts = {"overload": overload_artifacts,
                 "partition": partition_artifacts}[name]
    assert stream_mismatches(*artifacts) == []
    kinds = {r.kind for r in artifacts[1].records}
    expected = ({"admission_shed", "brownout_change", "milp_split",
                 "pool_retune"} if name == "overload"
                else {"ha_failover", "ha_redispatch"})
    assert expected <= kinds


def test_chaos_miss_names_retries_of_its_functions(tmp_path):
    """Retry and timeout instants carry the function, not the benchmark:
    a chaos miss with a retry of its own function inside its window is
    explained by a reliability cause."""
    from tests.fingerprints import reference_runs

    tracer = obs.install(obs.Tracer())
    try:
        dict(reference_runs())["ecofaas_chaos"]()
    finally:
        obs.uninstall()
    trace_path = str(tmp_path / "trace.json")
    obs.write_chrome_trace(tracer, trace_path)
    data = load_explain_data(trace_path)
    texts = [c["text"] for span in missed_workflows(data)
             for c in explain(data, span.uid, run=span.run)["causes"]
             if c["kind"] == "reliability"]
    assert any("retried during this workflow" in t for t in texts)


def test_cli_explain_missing_file(capsys):
    from repro.cli import main

    assert main(["explain", "/nonexistent/trace.json"]) == 2
