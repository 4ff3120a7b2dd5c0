"""``repro explain``: ranked causes for missed-SLO workflows.

The acceptance bar: in both the guarded-overload and the HA-partition
regimes, at least one workflow misses its SLO and ``explain`` produces a
non-empty ranked cause list for it, joining trace spans, instants, and
the control-plane decision instants. Both runs are written as run
directories, whose ``audit.jsonl`` renders those same decisions.

The overload run directory also pins ``repro report`` (text and JSON)
and ``repro explain`` on its worst-missed workflow, and its
``audit.jsonl`` byte for byte, against golden files. Regenerate them (only when that output intentionally changes)::

    PYTHONPATH=src:. python tests/test_obs_explain.py --write-golden
"""

import os

import pytest

from repro import obs
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments import overload as overload_experiment
from repro.experiments import partition as partition_experiment
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs.audit import KINDS
from repro.obs.explain import explain, format_explanation, missed_workflows
from repro.obs.export import read_chrome_trace
from repro.platform.cluster import ClusterConfig
from tests.test_obs_audit import read_jsonl


DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
#: Golden CLI outputs on the overload run directory, by their argv tail.
GOLDENS = {
    "report_golden.txt": ["report"],
    "report_golden.json": ["report", "--format", "json"],
    "explain_golden.txt": ["explain"],
}
#: The overload run directory's decision log, pinned byte for byte.
AUDIT_GOLDEN = "audit_golden.jsonl"


def record_overload_run(out: str):
    """Record one guarded overload run into the run directory ``out``."""
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    try:
        trace = make_load_trace("high", 2, 12.0, seed=6,
                                cores_per_server=20)
        config = ClusterConfig(
            n_servers=2, seed=6,
            guard=overload_experiment.guard_config(2, 20))
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace, config)
    finally:
        obs.uninstall()
    obs.write_run(tracer, out, {})
    return tracer, out


@pytest.fixture(scope="module")
def overload_artifacts(tmp_path_factory):
    """The run directory of one guarded overload run."""
    return record_overload_run(str(tmp_path_factory.mktemp("overload")))


@pytest.fixture(scope="module")
def partition_artifacts(tmp_path_factory):
    """The run directory of one HA partition run."""
    out = tmp_path_factory.mktemp("partition")
    tracer = obs.install(obs.Tracer(ledger=obs.EnergyLedger(),
                                    fingerprint=obs.FingerprintRecorder()))
    try:
        partition_experiment.run_one(seed=0, with_faults=True,
                                     duration_s=30.0, n_servers=3)
    finally:
        obs.uninstall()
    obs.write_run(tracer, str(out), {})
    return tracer, str(out)


def trace_of(artifacts):
    return os.path.join(artifacts[1], "trace.json")


def explain_worst(artifacts):
    tracer = read_chrome_trace(trace_of(artifacts))
    missed = missed_workflows(tracer)
    assert missed, "expected at least one missed-SLO workflow"
    worst = missed[0]
    return tracer, explain(tracer, worst.uid, run=worst.run)


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
    tracer, result = explain_worst(partition_artifacts)
    assert result["causes"]
    assert result["missed_by_s"] is None or result["missed_by_s"] > 0 \
        or result["status"] == "failed"
    # Somewhere in the partition run, HA redispatches left decision
    # instants that explain can join by workflow uid.
    redispatched = tracer.instants_named("ha_redispatch")
    assert redispatched
    uid = redispatched[0].args["workflow_uid"]
    if any(s.uid == uid for s in tracer.spans_of("workflow")):
        joined = explain(tracer, uid)
        kinds = {c["kind"] for c in joined["causes"]}
        assert "ha" in kinds or "audit" in kinds


def test_explain_links_jobs_to_workflows(overload_artifacts):
    tracer, result = explain_worst(overload_artifacts)
    assert result["jobs"], "workflow uid should link to its job uids"
    assert tracer.wf_links, "trace should carry workflowLinks metadata"


def test_explain_unknown_workflow_raises(overload_artifacts):
    tracer = read_chrome_trace(trace_of(overload_artifacts))
    with pytest.raises(KeyError):
        explain(tracer, 10**9)


def test_cli_explain_end_to_end(overload_artifacts, capsys):
    from repro.cli import main

    assert main(["explain", overload_artifacts[1], "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "ranked causes:" in out
    assert "1." in out


def test_cli_explain_specific_workflow(overload_artifacts, capsys):
    from repro.cli import main

    uid = missed_workflows(read_chrome_trace(
        trace_of(overload_artifacts)))[0].uid
    assert main(["explain", overload_artifacts[1], str(uid)]) == 0
    out = capsys.readouterr().out
    assert f"workflow {uid} " in out


@pytest.mark.parametrize("name", ["overload", "partition"])
def test_trace_and_audit_log_carry_one_decision_stream(
        name, overload_artifacts, partition_artifacts):
    artifacts = {"overload": overload_artifacts,
                 "partition": partition_artifacts}[name]
    tracer, run_dir = artifacts
    kinds = [i.name for i in tracer.instants if i.name in KINDS]
    expected = ({"admission_shed", "brownout_change", "milp_split",
                 "pool_retune"} if name == "overload"
                else {"ha_failover", "ha_redispatch"})
    assert expected <= set(kinds)
    lines = read_jsonl(os.path.join(run_dir, "audit.jsonl"))
    assert [line["kind"] for line in lines] == kinds


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
    tracer = read_chrome_trace(trace_path)
    texts = [c["text"] for span in missed_workflows(tracer)
             for c in explain(tracer, span.uid, run=span.run)["causes"]
             if c["kind"] == "reliability"]
    assert any("retried during this workflow" in t for t in texts)


def test_uid_in_two_runs_needs_a_run(tmp_path, capsys):
    """Workflow uids restart in every run: a uid two runs share is not
    silently explained from the first of them."""
    from repro.cli import main
    from repro.sim import Environment

    tracer = obs.Tracer()
    for _ in range(2):
        tracer.begin_run("EcoFaaS")
        tracer.bind(Environment())
        tracer.workflow_begin(7, "App", slo_s=1.0)
        tracer.workflow_end(7, "completed", met_slo=False)
    obs.write_chrome_trace(tracer, str(tmp_path / "trace.json"))
    assert main(["explain", str(tmp_path), "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "workflow 7 is in runs 0, 1: pick one with --run\n"
    assert main(["explain", str(tmp_path), "7", "--run", "1"]) == 0
    assert "workflow 7 (App) in run 1" in capsys.readouterr().out


def test_cli_explain_missing_file(capsys):
    from repro.cli import main

    assert main(["explain", "/nonexistent/trace.json"]) == 2


def cli_output(argv) -> str:
    """Stdout of ``repro <argv>``, which must exit 0."""
    import contextlib
    import io

    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = main(argv)
    assert rc == 0, f"{argv} exited {rc}"
    return buffer.getvalue()


@pytest.mark.parametrize("golden", sorted(GOLDENS))
def test_report_and_explain_match_golden(golden, overload_artifacts):
    command, *options = GOLDENS[golden]
    out = cli_output([command, overload_artifacts[1], *options])
    with open(os.path.join(DATA_DIR, golden)) as handle:
        assert out == handle.read()


def test_audit_jsonl_matches_golden(overload_artifacts):
    with open(os.path.join(overload_artifacts[1], "audit.jsonl"),
              "rb") as handle:
        out = handle.read()
    with open(os.path.join(DATA_DIR, AUDIT_GOLDEN), "rb") as handle:
        assert out == handle.read()


# ---------------------------------------------------------------------------
# Golden regeneration entrypoint
# ---------------------------------------------------------------------------
if __name__ == "__main__":
    import shutil
    import sys
    import tempfile

    if "--write-golden" not in sys.argv:
        sys.exit("usage: python tests/test_obs_explain.py --write-golden")
    run_dir = record_overload_run(tempfile.mkdtemp(prefix="overload_"))[1]
    for golden, (command, *options) in sorted(GOLDENS.items()):
        path = os.path.join(DATA_DIR, golden)
        with open(path, "w") as handle:
            handle.write(cli_output([command, run_dir, *options]))
        print(f"wrote {path}")
    path = os.path.join(DATA_DIR, AUDIT_GOLDEN)
    shutil.copyfile(os.path.join(run_dir, "audit.jsonl"), path)
    print(f"wrote {path}")
