"""CLI error-handling regressions: bad artifact paths must not traceback.

Every artifact-consuming subcommand (``report``, ``explain``, ``bill``,
``diff``, ``fuzz --replay``) gets the same treatment for a missing and for a corrupt input
file: exit non-zero (2), print exactly one explanatory line on stderr,
and never raise. Bad experiment arguments (an output path in a missing
directory, a negative seed) are rejected before the run starts. These
run no simulation.
"""

import json

import pytest

from repro import cli
from repro.cli import _bill, _diff, _explain, _fuzz, _report

SUBCOMMANDS = {
    "report": _report,
    "explain": _explain,
    "bill": _bill,
    "diff": _diff,
    "fuzz": lambda argv: _fuzz(["--replay", *argv]),
}


def _one_line(err: str) -> bool:
    return len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_missing_file_is_one_line_error(name, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = SUBCOMMANDS[name]([missing])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "nope.json" in err
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_corrupt_json_is_one_line_error(name, tmp_path, capsys):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{this is not json", encoding="utf-8")
    rc = SUBCOMMANDS[name]([str(corrupt)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert "Traceback" not in err and "Traceback" not in out


def test_bill_wrong_shape_json(tmp_path, capsys):
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"not": "a ledger"}), encoding="utf-8")
    rc = _bill([str(ledger)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not an energy-ledger JSON file" in err


def test_diff_wrong_shape_json(tmp_path, capsys):
    fp = tmp_path / "fp.json"
    fp.write_text(json.dumps({"format": "something-else", "runs": []}),
                  encoding="utf-8")
    rc = _diff([str(fp)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "not a fingerprints document" in err


def test_diff_missing_b_side(tmp_path, capsys):
    fp = tmp_path / "a.json"
    fp.write_text(json.dumps({"format": "x"}), encoding="utf-8")
    rc = _diff([str(fp), str(tmp_path / "b.json")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert _one_line(err)


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


@pytest.mark.parametrize("flag", ["--trace", "--epoch-metrics", "--ledger",
                                  "--audit", "--fingerprints"])
def test_output_in_missing_directory_fails_before_run(flag, tmp_path,
                                                      capsys, no_run):
    missing = str(tmp_path / "absent" / "out.json")
    argv = ["fig16", flag, missing]
    if flag != "--trace":
        argv += ["--trace", str(tmp_path / "trace.json")]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2 and no_run == []
    assert _one_line(err), f"expected one stderr line, got: {err!r}"
    assert flag in err and missing in err
    assert "Traceback" not in err and "Traceback" not in out


def test_negative_seed_rejected_before_run(capsys, no_run):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig16", "--seed", "-1"])
    _, err = capsys.readouterr()
    assert excinfo.value.code == 2 and no_run == []
    assert "--seed" in err.strip().splitlines()[-1]
