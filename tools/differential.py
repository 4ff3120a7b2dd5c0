"""Differential refactor oracle: the same fuzz trials in two source trees.

For each of N trials the oracle draws ``sample_spec(trial, seed)`` and
runs ``run_trial`` on it in a base tree and a head tree, then compares
the outcomes trial by trial: the run's ``cluster_fingerprint`` and the
set of violated invariants. Every drawn spec arms the reliability layer,
so each trial also runs its *direct-dispatch* variant
(:func:`direct_variant`): the fire-and-wait path that every paper figure
takes. A behaviour-preserving refactor agrees on every run; the first
one that differs is reported with its spec.

Each tree runs in its own subprocess that imports that tree's ``src/``
through ``PYTHONPATH`` (the way ``bench/worker.py`` imports its
checkout), so the oracle works on any commit that has ``sample_spec``
and ``run_trial``, including commits older than this file. The two
sides run in parallel.

When both trees can write a run directory (``repro.obs.write_run``),
the first differing spec is recorded on both sides and ``repro diff``
(from the head tree) names the first diverging decision.

Usage::

    python tools/differential.py BASE [HEAD] --trials 200 --seed 7

``BASE`` and ``HEAD`` are each a directory holding a source tree or a
git revision of the repository this file lives in, which is extracted
with ``git archive``. ``HEAD`` defaults to the working tree. Exit status:
0 when every trial agrees, 1 when one differs, 2 on a usage or worker
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Width of the fingerprint prefix in the per-trial table.
SHORT = 12

#: The runs of one trial: the drawn spec and its direct-dispatch variant.
VARIANTS = ("drawn", "direct")

#: Fault kinds the direct-dispatch path cannot run: a node crash needs
#: the reliability layer to re-dispatch the lost jobs, and partitions and
#: controller crashes act on the HA layer.
NEEDS_RELIABILITY = ("node_crash", "network_partition", "controller_crash")


def direct_variant(spec: Dict[str, object]) -> Dict[str, object]:
    """``spec`` on the direct-dispatch path: no reliability policy, no
    HA layer, and none of the faults that need them."""
    return {**spec, "reliability": None, "ha": None,
            "plan": [event for event in spec["plan"]
                     if event["kind"] not in NEEDS_RELIABILITY]}


# ---------------------------------------------------------------------------
# Worker side: runs inside one tree's interpreter
# ---------------------------------------------------------------------------
def _check_import(src: str) -> None:
    import repro
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([location, src]) != src:
        raise ImportError(f"repro was imported from {location}, not from"
                          f" {src}")


def outcome(result: Dict[str, object]) -> Dict[str, object]:
    """The comparable part of one ``run_trial`` result."""
    return {"fingerprint": result["fingerprint"],
            "violated": sorted({v["invariant"]
                                for v in result["violations"]})}


def _build_any_config(build):
    """``build`` (a tree's ``fuzz._build_config``) taking ``reliability:
    None`` the same way in every tree, including trees that predate it:
    the config is built with a stand-in policy that is then dropped."""
    stand_in = {"max_retries": 0, "backoff_base_s": 0.0,
                "backoff_jitter": 0.0, "invocation_timeout_s": None,
                "hedge_after_s": None}

    def build_any(spec):
        if spec["reliability"] is not None:
            return build(spec)
        return dataclasses.replace(
            build({**spec, "reliability": stand_in}), reliability=None)
    return build_any


def _spec(trial: int, seed: int, variant: str) -> Dict[str, object]:
    from repro.verify.fuzz import sample_spec
    spec = sample_spec(trial, seed)
    return direct_variant(spec) if variant == "direct" else spec


def _run_trials(trials: int, seed: int) -> None:
    from repro.verify.fuzz import run_trial
    for trial in range(trials):
        for variant in VARIANTS:
            result = run_trial(_spec(trial, seed, variant))
            row = {"trial": trial, "variant": variant, **outcome(result)}
            print(json.dumps(row, sort_keys=True), flush=True)


def _record(trial: int, seed: int, variant: str, directory: str) -> None:
    """Record one run's directory (CLI ``--out`` tracer set-up)."""
    from repro import obs
    from repro.experiments.common import run_cluster
    from repro.faults.plan import FaultPlan
    from repro.verify import fuzz
    if not hasattr(obs, "write_run"):
        raise SystemExit(3)
    spec = _spec(trial, seed, variant)
    tracer = obs.install(obs.Tracer(
        ledger=obs.EnergyLedger(), burnrate=obs.BurnRateMonitor(),
        fingerprint=obs.FingerprintRecorder()))
    try:
        run_cluster(fuzz._build_system(spec), fuzz._build_trace(spec),
                    fuzz._build_config(spec),
                    fault_plan=FaultPlan.from_json(spec["plan"]))
    finally:
        obs.uninstall()
    os.makedirs(directory, exist_ok=True)
    print(obs.write_run(tracer, directory, {"trial": trial, "seed": seed}))


def worker(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="differential.py --worker")
    parser.add_argument("--src", required=True)
    parser.add_argument("--trials", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--record", type=int, default=None)
    parser.add_argument("--spec", type=int, default=None)
    parser.add_argument("--variant", choices=VARIANTS, default="drawn")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    _check_import(os.path.abspath(args.src))
    from repro.verify import fuzz
    fuzz._build_config = _build_any_config(fuzz._build_config)
    if args.record is not None:
        _record(args.record, args.seed, args.variant, args.out)
    elif args.spec is not None:
        print(json.dumps(_spec(args.spec, args.seed, args.variant),
                         sort_keys=True))
    else:
        _run_trials(args.trials, args.seed)
    return 0


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------
def first_differing_row(rows_a: List[Dict[str, object]],
                        rows_b: List[Dict[str, object]]
                        ) -> Optional[Dict[str, object]]:
    """The base row of the first run whose outcomes differ, or None when
    all agree. A side that produced fewer rows differs at its first
    missing row."""
    for row_a, row_b in zip(rows_a, rows_b):
        if (row_a["fingerprint"] != row_b["fingerprint"]
                or row_a["violated"] != row_b["violated"]):
            return row_a
    if len(rows_a) != len(rows_b):
        return max(rows_a, rows_b, key=len)[min(len(rows_a), len(rows_b))]
    return None


def first_difference(rows_a: List[Dict[str, object]],
                     rows_b: List[Dict[str, object]]) -> Optional[int]:
    """The first trial whose outcomes differ, or None when all agree."""
    row = first_differing_row(rows_a, rows_b)
    return None if row is None else int(row["trial"])


def format_row(row_a: Dict[str, object], row_b: Dict[str, object]) -> str:
    def short(row):
        value = row["fingerprint"]
        text = value[:SHORT] if value else "(no run)".ljust(SHORT)
        if row["violated"]:
            text += " !" + ",".join(row["violated"])
        return text
    same = (row_a["fingerprint"] == row_b["fingerprint"]
            and row_a["violated"] == row_b["violated"])
    return (f"trial {int(row_a['trial']):3d}:"
            f" {row_a.get('variant', 'drawn'):6s} {short(row_a)}"
            f"  {short(row_b)}  {'same' if same else 'DIFFERS'}")


def resolve_tree(ref: str, scratch: str, label: str) -> str:
    """A directory holding ``src/``: ``ref`` itself, or ``ref`` extracted."""
    if os.path.isdir(ref):
        return os.path.abspath(ref)
    tree = os.path.join(scratch, label)
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", REPO, "archive", ref, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return tree


def _worker_cmd(tree: str, *args: str) -> List[str]:
    return [sys.executable, os.path.abspath(__file__), "--worker",
            "--src", os.path.join(tree, "src"), *args]


def _worker_env(tree: str) -> Dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}


def run_sides(trees: Sequence[str], trials: int, seed: int
              ) -> List[List[Dict[str, object]]]:
    """Run the trials in every tree at once; one row list per tree."""
    procs = [subprocess.Popen(
        _worker_cmd(tree, "--trials", str(trials), "--seed", str(seed)),
        env=_worker_env(tree), cwd=tree, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for tree in trees]
    sides = []
    for tree, proc in zip(trees, procs):
        out, err = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {tree} failed:\n{err}")
        sides.append([json.loads(line) for line in out.splitlines()
                      if line.startswith("{")])
    return sides


def record_and_diff(trees: Sequence[str], trial: int, seed: int,
                    variant: str, scratch: str) -> Optional[str]:
    """Record one run of ``trial`` in both trees and ``repro diff`` the
    pair.

    Returns the diff's output, or None when a tree cannot write a run
    directory.
    """
    dirs = [os.path.join(scratch, f"run-{side}") for side in ("a", "b")]
    procs = [subprocess.Popen(
        _worker_cmd(tree, "--record", str(trial), "--seed", str(seed),
                    "--variant", variant, "--out", directory),
        env=_worker_env(tree), cwd=tree, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
        for tree, directory in zip(trees, dirs)]
    errors = [proc.communicate()[1] for proc in procs]
    codes = [proc.returncode for proc in procs]
    if 3 in codes:
        return None
    if any(codes):
        raise RuntimeError("recording failed:\n" + "\n".join(errors))
    head = trees[-1]
    diff = subprocess.run(
        [sys.executable, "-m", "repro", "diff", *dirs],
        env=_worker_env(head), cwd=head, capture_output=True, text=True)
    return diff.stdout + diff.stderr


def main(argv: Optional[Sequence[str]] = None, echo=print) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--worker"]:
        return worker(argv[1:])
    parser = argparse.ArgumentParser(
        prog="differential.py",
        description="Run the same seeded fuzz trials in two source trees"
                    " and report the first trial whose outcome differs.")
    parser.add_argument("base", help="base tree: a directory or a git"
                                     " revision")
    parser.add_argument("head", nargs="?", default=REPO,
                        help="head tree (default: the working tree)")
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    with tempfile.TemporaryDirectory(prefix="differential-") as scratch:
        try:
            trees = [resolve_tree(ref, scratch, label) for ref, label
                     in ((args.base, "base"), (args.head, "head"))]
        except subprocess.CalledProcessError as error:
            echo(f"cannot extract a tree: {error}")
            return 2
        echo(f"base: {args.base}\nhead: {args.head}\n"
             f"{args.trials} trial(s) at seed {args.seed}, each run"
             f" {' and '.join(VARIANTS)}")
        try:
            rows_a, rows_b = run_sides(trees, args.trials, args.seed)
        except RuntimeError as error:
            echo(str(error))
            return 2
        for row_a, row_b in zip(rows_a, rows_b):
            echo(format_row(row_a, row_b))
        row = first_differing_row(rows_a, rows_b)
        if row is None:
            echo(f"all {args.trials} trial(s) agree")
            return 0
        differs, variant = int(row["trial"]), row["variant"]
        agreeing = sum(1 for a, b in zip(rows_a, rows_b) if a == b)
        echo(f"{agreeing} of {len(VARIANTS) * args.trials} run(s) agree;"
             f" first difference at trial {differs} ({variant})")
        spec = subprocess.run(
            _worker_cmd(trees[-1], "--spec", str(differs), "--seed",
                        str(args.seed), "--variant", variant),
            env=_worker_env(trees[-1]), cwd=trees[-1],
            capture_output=True, text=True)
        echo(f"spec: {spec.stdout.strip()}")
        report = record_and_diff(trees, differs, args.seed, variant,
                                 scratch)
        if report is None:
            echo("(a tree cannot write run directories:"
                 " compared by fingerprint only)")
        else:
            echo(report.rstrip())
        return 1


if __name__ == "__main__":
    sys.exit(main())
