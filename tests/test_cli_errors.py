"""CLI error-handling regressions: bad artifact paths must not traceback.

Every artifact-consuming subcommand (``report``, ``explain``, ``bill``,
``diff``, ``fuzz --replay``) gets the same treatment for a missing and for a corrupt input
file: exit non-zero (2), print exactly one explanatory line on stderr,
and never raise. These run no simulation.
"""

import json

import pytest

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
