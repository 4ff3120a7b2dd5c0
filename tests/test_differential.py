"""The differential refactor oracle (``tools/differential.py``)."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "differential.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("differential", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(trial, fingerprint="f" * 64, violated=()):
    return {"trial": trial, "fingerprint": fingerprint,
            "violated": list(violated)}


class TestComparison:
    def test_identical_sides_agree(self):
        tool = load_tool()
        rows = [row(0), row(1, "a" * 64), row(2, None, ["trial-exception"])]
        assert tool.first_difference(rows, [dict(r) for r in rows]) is None

    def test_first_differing_fingerprint_is_named(self):
        tool = load_tool()
        base = [row(0), row(1), row(2)]
        head = [row(0), row(1, "b" * 64), row(2, "c" * 64)]
        assert tool.first_difference(base, head) == 1

    def test_a_differing_violation_set_is_a_difference(self):
        tool = load_tool()
        base = [row(0), row(1)]
        head = [row(0), row(1, violated=["energy-conservation"])]
        assert tool.first_difference(base, head) == 1

    def test_a_short_side_differs_at_its_first_missing_trial(self):
        tool = load_tool()
        assert tool.first_difference([row(0), row(1)], [row(0)]) == 1

    def test_outcome_keeps_fingerprint_and_sorted_invariant_names(self):
        tool = load_tool()
        result = {"fingerprint": "d" * 64, "violations": [
            {"invariant": "b", "message": "x"},
            {"invariant": "a", "message": "y"},
            {"invariant": "b", "message": "z"}]}
        assert tool.outcome(result) == {"fingerprint": "d" * 64,
                                        "violated": ["a", "b"]}

    def test_table_row_marks_agreement(self):
        tool = load_tool()
        assert tool.format_row(row(3), row(3)).endswith("same")
        assert tool.format_row(row(3), row(3, "e" * 64)).endswith("DIFFERS")


class TestDirectVariant:
    def test_drops_reliability_ha_and_the_faults_they_absorb(self):
        tool = load_tool()
        kinds = ["node_crash", "rpc_spike", "network_partition",
                 "container_kill", "controller_crash", "dvfs_stall"]
        spec = {"reliability": {"max_retries": 4}, "ha": {"lease_s": 1.0},
                "guard": {"admission": None},
                "plan": [{"kind": kind} for kind in kinds]}
        variant = tool.direct_variant(spec)
        assert variant["reliability"] is None and variant["ha"] is None
        assert variant["guard"] == spec["guard"]
        assert [e["kind"] for e in variant["plan"]] == [
            "rpc_spike", "container_kill", "dvfs_stall"]
        assert len(spec["plan"]) == len(kinds)  # the drawn spec is kept

    def test_stand_in_build_matches_the_fuzzers_own(self):
        """Trees that predate ``reliability: None`` build the variant
        with a stand-in policy; the result is the fuzzer's own build."""
        from repro.verify import fuzz
        tool = load_tool()
        for trial in range(3):
            spec = tool.direct_variant(fuzz.sample_spec(trial, 7))
            config = fuzz._build_config(spec)
            assert config.reliability is None and config.ha is None
            assert tool._build_any_config(fuzz._build_config)(spec) == config


class TestSelfRun:
    def test_one_trial_of_the_working_tree_against_itself_agrees(self):
        tool = load_tool()
        lines = []
        status = tool.main([ROOT, ROOT, "--trials", "1", "--seed", "7"],
                           echo=lines.append)
        assert status == 0, "\n".join(lines)
        assert lines[-1] == "all 1 trial(s) agree"
        assert lines[-2].startswith("trial   0:")
        assert lines[-2].endswith("same")
