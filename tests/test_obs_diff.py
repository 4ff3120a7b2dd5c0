"""repro.obs.diff: chain bisection, run alignment, golden diff output.

The integration half builds one deterministic "arena" of run
directories — two identical plain EcoFaaS reference runs plus one chaos
arm on the same trace — and pins ``repro diff`` against golden files:

* same seed, same config  → every chain identical, exit 0;
* config delta (chaos arm) → a stable first-divergence report naming
  the epoch, subsystem, and first diverging decision or trace instant,
  with the energy delta attributed across ledger buckets to 1e-6.

Regenerate the goldens (only when diff *output* intentionally changes)::

    PYTHONPATH=src:. python tests/test_obs_diff.py --write-golden
"""

import json
import os

import pytest

from repro import obs
from repro.cli import _diff
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.faults.plan import FaultPlan
from repro.obs.diff import _format_decision, diff_documents, first_mismatch
from repro.obs.fingerprint import (
    FORMAT,
    FingerprintRecorder,
    digest,
    fold_chain,
)
from repro.obs.ledger import EnergyLedger
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TEXT = os.path.join(DATA_DIR, "diff_golden.txt")
GOLDEN_JSON = os.path.join(DATA_DIR, "diff_golden.json")


# ---------------------------------------------------------------------------
# Chain bisection units
# ---------------------------------------------------------------------------
def test_first_mismatch_identical_chains():
    chain = fold_chain("metrics", ["a", "b", "c"])
    assert first_mismatch(chain, list(chain)) is None
    assert first_mismatch([], []) is None


def test_first_mismatch_finds_first_divergence():
    base = ["p0", "p1", "p2", "p3", "p4"]
    for k in range(len(base)):
        other = list(base)
        other[k] = "XX"
        assert first_mismatch(fold_chain("m", base),
                              fold_chain("m", other)) == k


def test_first_mismatch_prefix_diverges_at_shorter_length():
    chain = fold_chain("m", ["p0", "p1", "p2"])
    assert first_mismatch(chain, chain[:2]) == 2
    assert first_mismatch(chain[:2], chain) == 2
    assert first_mismatch([], chain) == 0


# ---------------------------------------------------------------------------
# The deterministic diff arena
# ---------------------------------------------------------------------------
def _run_arm(chaos: bool):
    """One reference run with fingerprints + ledger armed."""
    tracer = obs.install(obs.Tracer(ledger=EnergyLedger(),
                                    fingerprint=FingerprintRecorder()))
    try:
        if chaos:
            config = ClusterConfig(
                n_servers=2, drain_s=4.0,
                reliability=ReliabilityPolicy(max_retries=8,
                                              backoff_base_s=0.05))
            plan = FaultPlan.calibrated(6.0, 2, ["WebServ", "CNNServ"],
                                        seed=5)
        else:
            config = ClusterConfig(n_servers=2, drain_s=4.0)
            plan = None
        run_cluster(EcoFaaSSystem(EcoFaaSConfig()),
                    make_load_trace("low", 2, 6.0, seed=3), config,
                    fault_plan=plan)
    finally:
        obs.uninstall()
    return tracer


def _manifest(arm: str) -> dict:
    config = {"experiment": "ref", "seed": 3, "arm": arm}
    return {"experiment": "ref", "seed": 3,
            "config_digest": digest(config)}


def build_arena(dirpath: str) -> None:
    """Write run directories a/ and b/ (identical plain runs) and chaos/."""
    for name, chaos in (("a", False), ("b", False), ("chaos", True)):
        tracer = _run_arm(chaos)
        os.mkdir(os.path.join(dirpath, name))
        obs.write_run(tracer, os.path.join(dirpath, name),
                      _manifest("chaos" if chaos else "plain"))


@pytest.fixture(scope="module")
def arena(tmp_path_factory):
    dirpath = tmp_path_factory.mktemp("diff_arena")
    build_arena(str(dirpath))
    return str(dirpath)


# ---------------------------------------------------------------------------
# Same seed, same config: identical
# ---------------------------------------------------------------------------
def test_same_seed_runs_diff_identical(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a", "b"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "identical: every chain and the final fingerprint agree" in out
    assert "first divergence" not in out


def test_run_against_itself_is_identical(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a", "a", "--run-a", "0", "--run-b", "0"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "identical" in out


# ---------------------------------------------------------------------------
# Config delta: golden first-divergence report
# ---------------------------------------------------------------------------
def _golden(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def test_config_delta_matches_golden_text(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a", "chaos"])
    out, _ = capsys.readouterr()
    assert rc == 1
    assert out == _golden(GOLDEN_TEXT)


def test_config_delta_matches_golden_json(arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    rc = _diff(["a", "chaos", "--json", "-"])
    out, _ = capsys.readouterr()
    assert rc == 1
    assert out == _golden(GOLDEN_JSON)


def test_diff_output_is_byte_identical_across_invocations(
        arena, monkeypatch, capsys):
    monkeypatch.chdir(arena)
    _diff(["a", "chaos"])
    first, _ = capsys.readouterr()
    _diff(["a", "chaos"])
    second, _ = capsys.readouterr()
    assert first == second


def test_first_divergence_names_an_audit_decision(arena, monkeypatch):
    monkeypatch.chdir(arena)
    result = diff_documents("a/fingerprints.json", "chaos/fingerprints.json")
    assert result["identical"] is False
    pair = result["pairs"][0]
    assert pair["first"] is not None
    assert pair["first"]["subsystem"] in pair["subsystems"]
    assert pair["subsystems"][pair["first"]["subsystem"]]["status"] == \
        "diverged"
    decision = pair["decision"]
    assert decision is not None
    assert decision["differing_keys"]
    # The manifest config digests differ and the note says so.
    assert any("config_digest differs" in note for note in result["notes"])


def test_attribution_buckets_resum_to_energy_total(arena, monkeypatch):
    monkeypatch.chdir(arena)
    result = diff_documents("a/fingerprints.json", "chaos/fingerprints.json")
    attribution = result["pairs"][0]["attribution"]
    energy = attribution["energy_total_j"]
    buckets = attribution["energy_by_component_delta_j"]
    assert attribution["bucket_deltas_resum_to_total"] is True
    scale = max(abs(energy["a"]), abs(energy["b"]))
    assert abs(sum(buckets.values()) - energy["delta"]) <= 1e-6 * scale


def test_epoch_length_mismatch_is_an_error(arena, tmp_path, monkeypatch):
    monkeypatch.chdir(arena)
    with open("a/fingerprints.json") as handle:
        document = json.load(handle)
    document["epoch_s"] = 1.0
    other = tmp_path / "other_epoch.json"
    other.write_text(json.dumps(document))
    with pytest.raises(ValueError):
        diff_documents("a/fingerprints.json", str(other))


def test_decision_line_names_kind_actor_uid_and_reason():
    record = {"kind": "workflow_doomed", "actor": "frontend", "t": 0.514,
              "inputs": {"stage": 1}, "action": {"doomed": True},
              "alternatives": [], "reason": "its doom line passed",
              "workflow_uid": 12, "job_uid": None}
    lines = _format_decision({"index": 3, "epoch": 0, "only_in": "b",
                              "b": record})
    assert lines == [
        "first diverging decision (#3 in epoch 0): only arm B has kind"
        " workflow_doomed actor frontend workflow 12 at t=0.514s",
        "  reason: its doom line passed"]


def _document(directory, chains):
    entry = {"run": 0, "label": "EcoFaaS", "final": "f" * 64,
             "n_epochs": 1, "chains": chains, "summary": {}}
    directory.mkdir()
    (directory / "fingerprints.json").write_text(json.dumps(
        {"format": FORMAT, "epoch_s": 2.0, "manifest": {}, "runs": [entry]}))
    return str(directory)


def test_older_format_audit_chain_gets_a_note(tmp_path, capsys):
    """A document written while decisions had their own chain still
    diffs: one note, no traceback."""
    chains = {"instants": ["i"], "metrics": ["m"]}
    older = _document(tmp_path / "older", {**chains, "audit": ["a"]})
    newer = _document(tmp_path / "newer", chains)
    rc = _diff([older, newer])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    assert "note: subsystem 'audit' is from an older fingerprints format" \
        in out


def test_benchmark_run_directories_diff(arena, tmp_path):
    """The benchmark's armed workload writes its manifest's artifacts as
    a list of file names, with no run config: such run directories still
    diff to a report that names the first diverging instant."""
    import shutil
    paths = []
    for name in ("a", "chaos"):
        shutil.copytree(os.path.join(arena, name), tmp_path / name)
        path = tmp_path / name / "fingerprints.json"
        document = json.loads(path.read_text())
        document["manifest"] = {"workload": "eco_armed",
                                "artifacts": sorted(obs.RUN_FILES)}
        path.write_text(json.dumps(document))
        paths.append(str(path))
    decision = diff_documents(*paths)["pairs"][0]["decision"]
    assert decision["differing_keys"]


def _count_trace_loads(monkeypatch):
    import importlib
    diff = importlib.import_module("repro.obs.diff")
    loads = {}
    load = diff.read_chrome_trace

    def counted(path, **kwargs):
        loads[path] = loads.get(path, 0) + 1
        return load(path, **kwargs)

    monkeypatch.setattr(diff, "read_chrome_trace", counted)
    return loads


def test_each_trace_is_parsed_once_per_diff(arena, monkeypatch):
    """The a/chaos diff joins epochs 0 and 1 (the golden report's
    fall-forward note), yet reads each side's trace once."""
    loads = _count_trace_loads(monkeypatch)
    result = diff_documents(os.path.join(arena, "a", "fingerprints.json"),
                            os.path.join(arena, "chaos", "fingerprints.json"))
    assert result["pairs"][0]["decision"]["epoch"] == 1
    assert any("instants inside epoch 0 are identical" in note
               for note in result["pairs"][0]["notes"])
    assert sorted(loads.items()) == [
        (os.path.join(arena, name, "trace.json"), 1)
        for name in ("a", "chaos")]


def test_one_file_diff_parses_its_trace_once(arena, tmp_path, monkeypatch):
    """Both arms of one document share its trace: one parse for both."""
    import shutil
    shutil.copytree(os.path.join(arena, "a"), tmp_path / "ab")
    path = tmp_path / "ab" / "fingerprints.json"
    document = json.loads(path.read_text())
    with open(os.path.join(arena, "chaos", "fingerprints.json")) as handle:
        other = json.load(handle)["runs"][0]
    document["runs"].append({**other, "run": 1})
    path.write_text(json.dumps(document))
    loads = _count_trace_loads(monkeypatch)
    result = diff_documents(str(path))
    assert result["pairs"][0]["decision"] is not None
    assert loads == {str(tmp_path / "ab" / "trace.json"): 1}


# ---------------------------------------------------------------------------
# Golden regeneration entrypoint
# ---------------------------------------------------------------------------
if __name__ == "__main__":
    import contextlib
    import io
    import sys
    import tempfile

    if "--write-golden" not in sys.argv:
        sys.exit("usage: python tests/test_obs_diff.py --write-golden")
    workdir = tempfile.mkdtemp(prefix="diff_arena_")
    build_arena(workdir)
    os.chdir(workdir)
    for golden, argv in ((GOLDEN_TEXT, ["a", "chaos"]),
                         (GOLDEN_JSON, ["a", "chaos", "--json", "-"])):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            rc = _diff(argv)
        assert rc == 1, f"expected divergence, got rc={rc}"
        with open(golden, "w") as handle:
            handle.write(buffer.getvalue())
        print(f"wrote {golden}")
