"""CLI error-handling regressions: bad artifact paths must not traceback.

Every artifact-consuming subcommand gets the same treatment for a bad
input: ``report``, ``explain``, ``bill`` and ``diff`` take a run
directory (``--out``), ``fuzz --replay`` a file. A missing path, a path
that is not a run directory, and a corrupt artifact all exit non-zero
(2), print exactly one explanatory line on stderr, and never raise. Bad
experiment arguments (an ``--out`` that cannot be created, a negative
seed, a retired artifact flag) are rejected before the run starts, and
a ``--top`` below 1 before ``report`` or ``explain`` reads its trace. A
layer flag that an experiment does not take is reported on stderr and
dropped. These run no simulation.
"""

import json

import pytest

from repro import cli, obs
from repro.cli import _bill, _diff, _explain, _fuzz, _report

SUBCOMMANDS = {
    "report": _report,
    "explain": _explain,
    "bill": _bill,
    "diff": _diff,
    "fuzz": lambda argv: _fuzz(["--replay", *argv]),
}

#: The run-directory file each directory consumer opens.
RUN_FILE = {"report": "trace.json", "explain": "trace.json",
            "bill": "ledger.json", "diff": "fingerprints.json"}


def _one_line(err: str) -> bool:
    return len(err.strip().splitlines()) == 1


def _artifact(name, path, text):
    """Hand ``text`` to subcommand ``name``: as the file ``path`` for
    ``fuzz``, else as the consumer's file in the new run directory
    ``path``. Returns the argument to pass."""
    if name != "fuzz":
        path.mkdir()
        path = path / RUN_FILE[name]
    path.write_text(text, encoding="utf-8")
    return str(path if name == "fuzz" else path.parent)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_missing_file_is_one_line_error(name, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = SUBCOMMANDS[name]([missing])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "nope.json" in err
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("name", sorted(RUN_FILE))
def test_file_is_not_a_run_directory(name, tmp_path, capsys):
    path = tmp_path / RUN_FILE[name]
    path.write_text("{}", encoding="utf-8")
    rc = SUBCOMMANDS[name]([str(path)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == f"not a run directory: {path}\n"


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_corrupt_json_is_one_line_error(name, tmp_path, capsys):
    rc = SUBCOMMANDS[name]([_artifact(name, tmp_path / "run",
                                      "{this is not json")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "Traceback" not in err and "Traceback" not in out


# The last three documents are JSON the one trace reader's validation
# rejects: no events, an unknown phase, a span never closed.
@pytest.mark.parametrize("document", [
    "42", '"text"', '{"traceEvents": [], "otherData": 5}',
    '{"traceEvents": []}', '[{"ph": "Z", "name": "x", "pid": 1, "tid": 0}]',
    '[{"ph": "b", "name": "x", "cat": "c", "id": 1, "pid": 1, "tid": 0,'
    ' "ts": 0}]'])
@pytest.mark.parametrize("name", ["explain", "report"])
def test_non_trace_json_is_one_line_error(name, document, tmp_path, capsys):
    rc = SUBCOMMANDS[name]([_artifact(name, tmp_path / "run", document)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "not a trace-event JSON file" in err
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("top", [0, -1, -2])
@pytest.mark.parametrize("name", ["explain", "report"])
def test_top_below_one_is_one_line_error(name, top, tmp_path, capsys):
    run_dir = _artifact(name, tmp_path / "run", "{}")
    rc = SUBCOMMANDS[name]([run_dir, "--top", str(top)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "--top" in err and str(top) in err


def test_bill_wrong_shape_json(tmp_path, capsys):
    rc = _bill([_artifact("bill", tmp_path / "run", '{"not": "a ledger"}')])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not an energy-ledger JSON file" in err


def test_bill_runs_not_a_list(tmp_path, capsys):
    rc = _bill([_artifact("bill", tmp_path / "run", '{"runs": 5}')])
    _, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "not an energy-ledger JSON file: " in err and "ledger.json" in err


def test_bill_ledger_without_component_breakdown(tmp_path, capsys):
    """Every ledger a run directory holds has each run's per-benchmark
    component breakdown; one without it is rejected, not billed."""
    ledger = {"runs": [{"run": 0, "label": "EcoFaaS", "ledger_j": 10.0,
                        "by_benchmark": {"WebServ": 4.0}}]}
    rc = _bill([_artifact("bill", tmp_path / "run", json.dumps(ledger))])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "not an energy-ledger JSON file: " in err
    assert "by_benchmark_component" in err


def test_diff_wrong_shape_json(tmp_path, capsys):
    rc = _diff([_artifact("diff", tmp_path / "run",
                          '{"format": "something-else", "runs": []}')])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not a fingerprints document" in err


def test_diff_missing_b_side(tmp_path, capsys):
    a = _artifact("diff", tmp_path / "a", '{"format": "x"}')
    rc = _diff([a, str(tmp_path / "b")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err)


def _fingerprints(path, epoch_s=2.0):
    return _artifact("diff", path, json.dumps(
        {"format": "repro.obs.fingerprint/1", "epoch_s": epoch_s,
         "runs": []}))


@pytest.mark.parametrize("b_side", ["{bad", "[]"])
def test_diff_bad_b_side_names_the_b_file(b_side, tmp_path, capsys):
    a = _fingerprints(tmp_path / "a_side")
    rc = _diff([a, _artifact("diff", tmp_path / "b_side", b_side)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "b_side" in err and "a_side" not in err


def test_diff_incomparable_pair_is_one_line_error(tmp_path, capsys):
    a = _fingerprints(tmp_path / "a")
    b = _fingerprints(tmp_path / "b", epoch_s=1.0)
    rc = _diff([a, b])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert _one_line(err) and "epoch lengths differ" in err


def test_fuzz_replay_wrong_shape_json(tmp_path, capsys):
    artifact = tmp_path / "list.json"
    artifact.write_text("[1]", encoding="utf-8")
    rc = _fuzz(["--replay", str(artifact)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not a fuzz artifact" in err


@pytest.fixture
def no_run(monkeypatch):
    """Record ``_run_one`` calls instead of simulating."""
    calls = []
    monkeypatch.setattr(cli, "_run_one",
                        lambda *args, **kwargs: calls.append(args))
    return calls


#: Each artifact name blocked by a directory, under the id of the flag
#: that wrote that artifact before ``--out`` replaced it.
BLOCKED_ARTIFACTS = [("run", f"run/{name}") for name in obs.RUN_FILES]


@pytest.mark.parametrize(
    "out_dir, bad_path",
    [("absent/run", "absent/run"), ("a_file/run", "a_file/run"),
     ("a_file", "a_file"), *BLOCKED_ARTIFACTS],
    ids=["parent_missing", "parent_is_a_file", "is_a_file", "--trace",
         "--epoch-metrics", "--ledger", "--audit", "--fingerprints"])
def test_output_in_missing_directory_fails_before_run(out_dir, bad_path,
                                                      tmp_path, capsys,
                                                      no_run):
    """``--out`` makes one directory, not its parents, never replaces a
    file, and fails when a directory holds an artifact's name in it."""
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    if bad_path != out_dir:
        (tmp_path / bad_path).mkdir(parents=True)
    out_dir, bad_path = str(tmp_path / out_dir), str(tmp_path / bad_path)
    rc = cli.main(["fig16", "--out", out_dir])
    out, err = capsys.readouterr()
    assert rc == 2 and no_run == []
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "--out" in err and bad_path in err
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("flag", ["--trace", "--epoch-metrics", "--ledger",
                                  "--audit", "--fingerprints", "--burnrate"])
def test_retired_artifact_flags_are_rejected(flag, capsys, no_run):
    """``--out DIR`` replaced the six per-artifact flags."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig16", flag, "x.json"])
    assert excinfo.value.code == 2 and no_run == []
    assert flag in capsys.readouterr().err


def test_negative_seed_rejected_before_run(capsys, no_run):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig16", "--seed", "-1"])
    _, err = capsys.readouterr()
    assert excinfo.value.code == 2 and no_run == []
    assert "--seed" in err.strip().splitlines()[-1]


def test_layer_flags_reach_run_or_are_reported(monkeypatch, capsys):
    """A layer flag reaches ``run`` when its signature takes it, and is
    otherwise reported on stderr with the run going ahead without it."""
    import sys
    import types

    from repro.experiments.common import ExperimentResult

    seen = {}

    def run(quick=True, seed=0, tenancy=None, cancel=None):
        seen.update(quick=quick, seed=seed, tenancy=tenancy, cancel=cancel)
        result = ExperimentResult("stub", "stub")
        result.add(value=1)
        return result

    module = types.ModuleType("tests._stub_flags")
    module.run = run
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setattr(cli, "EXPERIMENTS", {"stub": module.__name__})
    rc = cli.main(["stub", "--ha", "--tenancy", "--power-cap", "300",
                   "--cancel", "--seed", "4"])
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "[stub does not support --ha; running without it]",
        "[stub does not support --power-cap; running without it]",
    ]
    assert seen == {"quick": True, "seed": 4, "tenancy": True,
                    "cancel": True}
