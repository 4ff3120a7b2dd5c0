"""End-to-end fuzzer tests: clean trials pass, planted bugs are found,
shrunk, saved as artifacts, and replay byte-identically."""

import json
import pathlib

import pytest

from repro import cli
from repro.verify import fuzz


class TestSampleSpec:
    def test_spec_is_pure_json_and_deterministic(self):
        spec = fuzz.sample_spec(0, 7)
        again = fuzz.sample_spec(0, 7)
        assert spec == again
        assert json.loads(json.dumps(spec)) == spec
        assert spec["trial"] == 0 and spec["seed"] == 7
        assert isinstance(spec["plan"], list)

    def test_different_trials_draw_different_schedules(self):
        specs = [fuzz.sample_spec(trial, 7) for trial in range(4)]
        assert len({json.dumps(s, sort_keys=True) for s in specs}) == 4


class TestCleanTrial:
    def test_zero_violations_and_stable_fingerprint(self):
        spec = fuzz.sample_spec(0, 7)
        result = fuzz.run_trial(spec)
        assert result["violations"] == []
        assert result["fingerprint"]
        assert fuzz.run_trial(spec) == result  # byte-determinism


class TestMutationsAreFound:
    # (mutation, known-violating trial at seed 7) — kept in sync with
    # the CI fuzz-smoke step's seed.
    CASES = [("ledger-bucket", 0), ("breaker-jump", 0),
             ("journal-fence", 1), ("cancel-leak", 0)]

    @pytest.mark.parametrize("mutate,trial", CASES)
    def test_planted_bug_trips_its_invariant(self, mutate, trial):
        from repro.verify.mutate import MUTATIONS
        spec = fuzz.sample_spec(trial, 7)
        result = fuzz.run_trial(spec, mutate=mutate)
        names = {v["invariant"] for v in result["violations"]}
        assert MUTATIONS[mutate] in names


class TestShrinkAndReplay:
    def test_shrunk_artifact_replays_byte_identically(self, tmp_path):
        mutate, trial = "journal-fence", 1
        spec = fuzz.sample_spec(trial, 7)
        result = fuzz.run_trial(spec, mutate=mutate)
        assert result["violations"]
        shrunk = fuzz.shrink(spec, result, mutate=mutate, max_tests=48)
        assert shrunk["events_after"] <= shrunk["events_before"]

        artifact = fuzz.make_artifact(spec, result, shrunk, mutate)
        assert artifact["format"] == fuzz.ARTIFACT_FORMAT
        assert artifact["mutate"] == mutate
        names = {v["invariant"] for v in artifact["violations"]}
        assert "ha-journal-crosscheck" in names

        path = fuzz.write_artifact(artifact, str(tmp_path))
        with open(path) as fh:
            assert json.load(fh) == artifact

        replayed = fuzz.replay(path)
        assert replayed["match"], (
            "replaying the stored artifact diverged from its recorded"
            " violations/fingerprint")


class TestCorpus:
    """The seeded corpus/ of previously-shrunk artifacts must keep
    replaying byte-for-byte (ROADMAP item 6); see corpus/README.md."""

    CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

    def corpus_paths(self):
        return sorted(self.CORPUS.glob("*.json"))

    def test_corpus_is_seeded(self):
        paths = self.corpus_paths()
        assert len(paths) >= 4, (
            "corpus/ must hold at least one shrunk artifact per planted"
            " mutation")
        from repro.verify.mutate import MUTATIONS
        stems = "\n".join(p.stem for p in paths)
        for mutation in MUTATIONS:
            assert mutation in stems, f"no corpus artifact for {mutation}"

    def test_every_artifact_replays_byte_identically(self, capsys):
        # Through the CLI, so its exit code is checked as well.
        for path in self.corpus_paths():
            rc = cli._fuzz(["--replay", str(path)])
            out, err = capsys.readouterr()
            assert rc == 0, (
                f"{path.name}: replay diverged from the stored"
                f" violations/fingerprint\n{err}")
            assert "byte-identical: yes" in out
            assert "no violation" not in out, (
                f"{path.name}: corpus artifacts must reproduce a"
                " violation")


class TestCampaign:
    def test_clean_campaign_reports_nothing(self, tmp_path):
        lines = []
        outcome = fuzz.campaign(2, 7, artifact_dir=str(tmp_path),
                                echo=lines.append)
        assert outcome["violating_trials"] == []
        assert outcome["found"] == []
        assert outcome["trials"] == 2
        assert not list(tmp_path.iterdir())  # no artifacts on clean runs
        assert sum(line.startswith("trial") for line in lines) == 2

    def test_mutated_campaign_writes_artifact(self, tmp_path):
        outcome = fuzz.campaign(1, 7, mutate="ledger-bucket",
                                artifact_dir=str(tmp_path),
                                max_shrink=16, echo=lambda *_: None)
        assert outcome["violating_trials"] == [0]
        assert len(outcome["found"]) == 1
        found = outcome["found"][0]
        names = {v["invariant"]
                 for v in found["artifact"]["violations"]}
        assert "energy-conservation" in names
        artifacts = list(tmp_path.iterdir())
        assert len(artifacts) == 1
        assert fuzz.replay(str(artifacts[0]))["match"]
