"""Command-line entry point: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro fig15
    python -m repro fig13 --full --seed 7
    python -m repro all            # every experiment, quick mode
    python -m repro fig16 --out run1   # record a run directory
    python -m repro report run1 --format json
    python -m repro explain run1
    python -m repro bill run1 --tenant web=WebServ,eBank
    python -m repro diff run1 run2
    python -m repro diff run1 --run-a 0 --run-b 1

A run directory holds ``trace.json`` (Chrome trace-event JSON, open it
at https://ui.perfetto.dev), ``epochs.csv``, ``ledger.json``,
``audit.jsonl`` and ``fingerprints.json`` (``repro.obs.RUN_FILES``).

The end-to-end benchmark and its per-layer profiler are not
subcommands: run ``python3 bench/ecobench.py`` (``--trace 1`` for
per-layer spans; see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import sys
import time
from typing import List, Optional

from repro.experiments import EXPERIMENTS


def _chart(key: str, result) -> None:
    """Terminal graphics for the figures where shape beats digits."""
    from repro import reports
    if key == "fig15":
        shares = {f"{row['freq_ghz']:.1f}GHz": float(row["share_pct"])
                  for row in result.rows}
        print(reports.bar_chart(shares, unit="%"))
    elif key == "fig14":
        for system in ("Baseline", "EcoFaaS"):
            samples = [(float(row["time_s"]), float(row["avg_freq_ghz"]))
                       for row in result.rows
                       if row["system"] == system and row["time_s"] >= 0]
            if samples:
                print(reports.timeline(samples, label=f"{system:8s}"))
    elif key in ("fig12", "fig13", "fig16", "fig17"):
        value_columns = [c for c in result.rows[0] if c.startswith("norm_")]
        key_column = next(iter(result.rows[0]))
        print(reports.comparison_table(result.rows, key_column,
                                       value_columns))
    print()


def _run_one(key: str, quick: bool, seed: int, chart: bool = False,
             ha: bool = False, tenancy: bool = False,
             power_cap: Optional[float] = None,
             cancel: bool = False) -> float:
    module = importlib.import_module(EXPERIMENTS[key])
    parameters = inspect.signature(module.run).parameters
    kwargs = {}
    if ha:
        if "ha" in parameters:
            kwargs["ha"] = True
        else:
            print(f"[{key} does not support --ha; running without it]",
                  file=sys.stderr)
    for flag, name, value in (("--tenancy", "tenancy", tenancy or None),
                              ("--power-cap", "power_cap", power_cap),
                              ("--cancel", "cancel", cancel or None)):
        if value is None:
            continue
        if name in parameters:
            kwargs[name] = value
        else:
            print(f"[{key} does not support {flag};"
                  f" running without it]", file=sys.stderr)
    start = time.perf_counter()
    result = module.run(quick=quick, seed=seed, **kwargs)
    elapsed = time.perf_counter() - start
    print(result.format_table())
    if chart:
        _chart(key, result)
    print(f"[{key} completed in {elapsed:.1f}s]")
    print()
    return elapsed


def _print_summary(outcomes: List[tuple]) -> None:
    """The per-experiment pass/fail summary table of ``repro all``."""
    width = max(len(key) for key, _, _ in outcomes)
    print("== summary ==")
    print(f"{'experiment'.ljust(width)}  result  detail")
    print(f"{'-' * width}  ------  ------")
    for key, passed, detail in outcomes:
        print(f"{key.ljust(width)}  {'PASS' if passed else 'FAIL':6s}"
              f"  {detail}")
    n_failed = sum(1 for _, passed, _ in outcomes if not passed)
    print(f"{len(outcomes) - n_failed}/{len(outcomes)} experiments passed")


def _bad_top(top: int) -> bool:
    """Print a one-line error for a ``--top`` below 1: a zero or
    negative count would slice the rankings from the wrong end."""
    if top >= 1:
        return False
    print(f"--top must be at least 1, got {top}", file=sys.stderr)
    return True


def _load_artifact(load, path: str, kind: str):
    """``load(path)``, or ``None`` after one stderr line naming the file
    (``path``, or the one ``load`` failed to open) as an unreadable or
    malformed ``kind``."""
    try:
        return load(path)
    except OSError as error:
        print(f"cannot read {kind} {error.filename or path}:"
              f" {error.strerror or error}", file=sys.stderr)
    except (ValueError, KeyError, TypeError) as error:
        article = "an" if kind[0] in "aeiou" else "a"
        print(f"not {article} {kind}: {path} ({error})", file=sys.stderr)
    return None


def _load_run_file(load, directory: str, name: str, kind: str):
    """:func:`_load_artifact` of the file ``name`` in the run directory
    ``directory``, or ``None`` after one stderr line when ``directory``
    is not a run directory."""
    if not os.path.isdir(directory):
        print(f"not a run directory: {directory}", file=sys.stderr)
        return None
    return _load_artifact(load, os.path.join(directory, name), kind)


def _report(argv: List[str]) -> int:
    """The ``repro report <run-dir>`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ecofaas report",
        description="Analyze a recorded run's trace: top functions by"
                    " energy, queueing delay, and deadline misses.")
    parser.add_argument("run_dir", help="run directory (--out)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking (default 10)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default text)")
    args = parser.parse_args(argv)
    if _bad_top(args.top):
        return 2
    from repro import obs
    from repro.obs.export import TRACE_FILE
    text = _load_run_file(
        lambda path: obs.report(path, top_n=args.top, fmt=args.format),
        args.run_dir, TRACE_FILE, "trace-event JSON file")
    if text is None:
        return 2
    print(text, end="")
    return 0


def _bill(argv: List[str]) -> int:
    """The ``repro bill`` subcommand: price a ledger's joules by tenant."""
    parser = argparse.ArgumentParser(
        prog="ecofaas bill",
        description="Price a recorded run's energy ledger into a"
                    " per-tenant bill: joules priced per component"
                    " (run/cold_start/retry_waste/... at different $/MJ),"
                    " unattributed overhead spread pro-rata.")
    parser.add_argument("run_dir", help="run directory (--out)")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME=BENCH1,BENCH2",
                        help="map benchmarks to a tenant (repeatable);"
                             " unmapped benchmarks bill as themselves")
    parser.add_argument("--run", type=int, default=None,
                        help="bill one run index (default: every run)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="output format (default text)")
    args = parser.parse_args(argv)
    owners = {}
    for spec in args.tenant:
        name, _, benchmarks = spec.partition("=")
        if not name or not benchmarks:
            print(f"bad --tenant {spec!r}; expected NAME=BENCH1,BENCH2",
                  file=sys.stderr)
            return 2
        for benchmark in benchmarks.split(","):
            benchmark = benchmark.strip()
            if benchmark in owners and owners[benchmark] != name:
                print(f"benchmark {benchmark} mapped to both"
                      f" {owners[benchmark]} and {name}", file=sys.stderr)
                return 2
            owners[benchmark] = name

    def load_runs(path: str) -> list:
        with open(path) as handle:
            runs = json.load(handle)["runs"]
        if not isinstance(runs, list):
            raise ValueError("its runs are not a list")
        return runs

    from repro.obs.export import LEDGER_FILE
    runs = _load_run_file(load_runs, args.run_dir, LEDGER_FILE,
                          "energy-ledger JSON file")
    if runs is None:
        return 2
    if args.run is not None:
        runs = [run for run in runs if run.get("run") == args.run]
        if not runs:
            print(f"no run {args.run} in {args.run_dir}", file=sys.stderr)
            return 2
    from repro.tenancy import UNATTRIBUTED, bill_from_breakdown, format_bill

    def tenant_of(benchmark: str) -> str:
        return owners.get(benchmark, benchmark)

    bills = []
    for run in runs:
        breakdown = run.get("by_benchmark_component")
        if breakdown is None:
            # Older ledger file: fall back to the flat benchmark rollup,
            # billed entirely at the default component rate.
            breakdown = {bench: {"run": joules} for bench, joules
                         in run.get("by_benchmark", {}).items()}
            breakdown[UNATTRIBUTED] = {
                "static": run.get("ledger_j", 0.0)
                - sum(j for row in breakdown.values()
                      for j in row.values())}
        bill = bill_from_breakdown(breakdown, tenant_of)
        bills.append({"run": run.get("run"), "label": run.get("label"),
                      "bill": bill})
    if args.format == "json":
        print(json.dumps({"source": "repro.cli bill", "runs": bills},
                         indent=1, sort_keys=True))
        return 0
    for entry in bills:
        print(f"-- run {entry['run']} ({entry['label']}) --")
        print(format_bill(entry["bill"]), end="")
        print()
    return 0


def _explain(argv: List[str]) -> int:
    """The ``repro explain`` subcommand: why did a workflow miss?"""
    parser = argparse.ArgumentParser(
        prog="ecofaas explain",
        description="Walk a recorded run's trace and print ranked causes"
                    " for one missed-SLO workflow.")
    parser.add_argument("run_dir", help="run directory (--out)")
    parser.add_argument("workflow", nargs="?", type=int,
                        help="workflow uid; omitted = the worst-missed"
                             " SLO workflow in the trace")
    parser.add_argument("--run", type=int, default=None,
                        help="restrict to one run index in the trace")
    parser.add_argument("--top", type=int, default=10,
                        help="causes to print (default 10)")
    args = parser.parse_args(argv)
    if _bad_top(args.top):
        return 2
    from repro.obs.explain import (
        explain,
        format_explanation,
        load_explain_data,
        missed_workflows,
    )
    from repro.obs.export import TRACE_FILE
    data = _load_run_file(load_explain_data, args.run_dir, TRACE_FILE,
                          "trace-event JSON file")
    if data is None:
        return 2
    uid, run = args.workflow, args.run
    if uid is None:
        missed = missed_workflows(data, run=run)
        if not missed:
            print("no missed-SLO workflow in this trace;"
                  " nothing to explain")
            return 1
        uid, run = missed[0].uid, missed[0].run
    try:
        result = explain(data, uid, run=run)
    except KeyError as error:
        print(f"workflow not found in trace: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    result["causes"] = result["causes"][:args.top]
    print(format_explanation(result))
    return 0


def _diff(argv: List[str]) -> int:
    """The ``repro diff`` subcommand: first-divergence attribution."""
    parser = argparse.ArgumentParser(
        prog="ecofaas diff",
        description="Compare two recorded runs (--out directories):"
                    " bisect the per-epoch chain digests to the first"
                    " diverging epoch and subsystem, name the first"
                    " diverging decision inside it, and attribute the"
                    " downstream energy / EWT / SLO deltas. Exit 0 when"
                    " identical, 1 when diverged.")
    parser.add_argument("a", help="run directory (A side)")
    parser.add_argument("b", nargs="?", default=None,
                        help="run directory (B side); omitted = diff two"
                             " runs inside A (e.g. the arms of an A/B"
                             " experiment)")
    parser.add_argument("--run-a", type=int, default=None, metavar="I",
                        help="run index on the A side (default: align"
                             " runs pairwise)")
    parser.add_argument("--run-b", type=int, default=None, metavar="J",
                        help="run index on the B side (default: --run-a)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the structured report to PATH"
                             " ('-' prints JSON instead of text)")
    args = parser.parse_args(argv)
    from repro.obs import diff as diff_mod
    from repro.obs.export import FINGERPRINTS_FILE
    from repro.obs.fingerprint import load_document
    # Each side is read alone first, so a bad file is named as itself;
    # what is left (epoch lengths, run picks) is about the pair.
    directories = [d for d in (args.a, args.b) if d]
    for directory in directories:
        if _load_run_file(load_document, directory, FINGERPRINTS_FILE,
                          "fingerprints document") is None:
            return 2
    paths = [os.path.join(d, FINGERPRINTS_FILE) for d in directories]
    result = _load_artifact(
        lambda path: diff_mod.diff_documents(path, *paths[1:],
                                             run_a=args.run_a,
                                             run_b=args.run_b),
        paths[0], "diffable fingerprints pair")
    if result is None:
        return 2
    if args.json == "-":
        print(json.dumps(result, indent=1, sort_keys=True))
    else:
        print(diff_mod.format_diff(result), end="")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(result, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"[diff report -> {args.json}]")
    return 0 if result["identical"] else 1


def _fuzz(argv: List[str]) -> int:
    """The ``repro fuzz`` subcommand: seeded chaos fuzzing + shrinking."""
    from repro.verify import fuzz as fuzz_mod
    from repro.verify.mutate import MUTATIONS
    parser = argparse.ArgumentParser(
        prog="ecofaas fuzz",
        description="Search random fault schedules (with overload bursts"
                    " and guard/ha/tenancy config draws) for cross-layer"
                    " invariant violations; any hit is delta-debugged to"
                    " a minimal fault plan and saved as a self-contained"
                    " JSON artifact that --replay re-executes"
                    " byte-deterministically.")
    parser.add_argument("--trials", type=int, default=25,
                        help="seeded trials to run (default 25)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign root seed (default 0)")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="re-execute a saved fuzz artifact and verify"
                             " the outcome matches byte-for-byte")
    parser.add_argument("--artifact-dir", default="fuzz-artifacts",
                        metavar="DIR",
                        help="where shrunk repro artifacts are written"
                             " (default fuzz-artifacts/)")
    parser.add_argument("--max-shrink", type=int, default=64,
                        metavar="N",
                        help="shrink-phase trial budget per violation"
                             " (default 64)")
    # Hidden test hook: plant a known bug so the test suite can prove
    # the fuzzer finds and shrinks real violations.
    parser.add_argument("--mutate", choices=sorted(MUTATIONS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        outcome = _load_artifact(fuzz_mod.replay, args.replay,
                                 "fuzz artifact")
        if outcome is None:
            return 2
        names = sorted({v["invariant"] for v in outcome["violations"]})
        print(f"[replay: {args.replay} ->"
              f" {', '.join(names) if names else 'no violation'};"
              f" byte-identical: {'yes' if outcome['match'] else 'NO'}]")
        if not outcome["match"]:
            print(f"  stored:   {outcome['stored']}", file=sys.stderr)
            print(f"  replayed: {outcome['replayed']}", file=sys.stderr)
        return 0 if outcome["match"] else 1
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    summary = fuzz_mod.campaign(
        args.trials, args.seed, mutate=args.mutate,
        artifact_dir=args.artifact_dir, max_shrink=args.max_shrink)
    hits = summary["violating_trials"]
    print(f"[fuzz: {args.trials} trials, seed {args.seed}:"
          f" {len(hits)} violating trial(s)"
          f"{' ' + str(hits) if hits else ''}]")
    return 1 if hits else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "fuzz":
        return _fuzz(argv[1:])
    if argv and argv[0] == "report":
        return _report(argv[1:])
    if argv and argv[0] == "explain":
        return _explain(argv[1:])
    if argv and argv[0] == "bill":
        return _bill(argv[1:])
    if argv and argv[0] == "diff":
        return _diff(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ecofaas",
        description="EcoFaaS reproduction: regenerate the paper's tables"
                    " and figures as text tables.")
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'list', 'all', 'report',"
             " 'explain', 'bill', 'fuzz', or 'diff'")
    parser.add_argument(
        "--full", action="store_true",
        help="run at closer-to-paper scale (much slower)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root random seed (default 0)")
    parser.add_argument("--chart", action="store_true",
                        help="also render ASCII charts where applicable")
    parser.add_argument(
        "--ha", action="store_true",
        help="arm the repro.ha high-availability layer in experiments"
             " that support it (partition, chaos)")
    parser.add_argument(
        "--tenancy", action="store_true",
        help="arm the repro.tenancy energy-multi-tenancy layer (tenant"
             " budgets + billing) in experiments that support it")
    parser.add_argument(
        "--power-cap", type=float, default=None, metavar="WATTS",
        help="arm the cluster power-cap governor at WATTS in experiments"
             " that support it (implies tenant metering)")
    parser.add_argument(
        "--cancel", action="store_true",
        help="arm the repro.cancel cancellation + retry-budget layer in"
             " experiments that support it (chaos)")
    parser.add_argument(
        "--out", metavar="DIR",
        help="record the run into the new or existing directory DIR:"
             " the Chrome trace, per-epoch metrics, the energy ledger,"
             " the decision audit log and the fingerprints with a run"
             " manifest, for `report`, `explain`, `bill` and `diff`")
    parser.add_argument(
        "--epoch-s", type=float, default=2.0,
        help="epoch length of --out's epoch metrics and fingerprints in"
             " simulated seconds (default 2.0, the EcoFaaS T_refresh)")
    parser.add_argument(
        "--verify", action="store_true",
        help="arm the repro.verify invariant monitors (clock, energy"
             " conservation, exactly-once lifecycle, breaker legality,"
             " HA fencing, tenant budgets); any violation fails the run"
             " with a non-zero exit code")
    args = parser.parse_args(argv)
    if not 0 < args.epoch_s < math.inf:
        parser.error("--epoch-s must be a positive, finite number")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if args.experiment == "list":
        print("available experiments:")
        for key, module_name in EXPERIMENTS.items():
            print(f"  {key:10s} {module_name}")
        return 0

    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r};"
              f" try 'list'", file=sys.stderr)
        return 2

    tracer = audit = None
    if args.out:
        # Artifacts are written after the run: a directory that cannot
        # be made, or an artifact name in it taken by a directory, must
        # fail now, not after minutes of simulation.
        from repro import obs
        try:
            if not os.path.isdir(args.out):
                os.mkdir(args.out)
            for name in obs.RUN_FILES:
                path = os.path.join(args.out, name)
                if os.path.isdir(path):
                    raise IsADirectoryError(0, "Is a directory", path)
        except OSError as error:
            print(f"cannot write --out {error.filename}: {error.strerror}",
                  file=sys.stderr)
            return 2
        tracer = obs.install(obs.Tracer(
            ledger=obs.EnergyLedger(), burnrate=obs.BurnRateMonitor(),
            fingerprint=obs.FingerprintRecorder(epoch_s=args.epoch_s)))
        audit = obs.install_audit(obs.AuditLog())
    verifier = None
    if args.verify:
        from repro import verify
        verifier = verify.install(verify.Verifier())

    def _new_violations(since: int) -> str:
        """Summarize verifier violations recorded past index ``since``."""
        fresh = verifier.violations[since:]
        if not fresh:
            return ""
        counts: dict = {}
        for violation in fresh:
            counts[violation.invariant] = counts.get(violation.invariant,
                                                     0) + 1
        return ", ".join(f"{name} x{count}"
                         for name, count in sorted(counts.items()))

    try:
        if args.experiment == "all":
            # One failing experiment must not abort the whole sweep: run
            # every one, print the pass/fail summary table at the end,
            # exit non-zero if any failed (including any armed invariant
            # monitor reporting a violation).
            outcomes: List[tuple] = []
            for key in EXPERIMENTS:
                seen = len(verifier.violations) if verifier else 0
                try:
                    elapsed = _run_one(key, quick=not args.full,
                                       seed=args.seed, chart=args.chart,
                                       ha=args.ha, tenancy=args.tenancy,
                                       power_cap=args.power_cap,
                                       cancel=args.cancel)
                    violated = _new_violations(seen) if verifier else ""
                    if violated:
                        outcomes.append(
                            (key, False, f"invariants: {violated}"))
                        print(f"[{key} FAILED invariants: {violated}]",
                              file=sys.stderr)
                        print()
                    else:
                        outcomes.append((key, True, f"{elapsed:.1f}s"))
                except Exception as error:  # noqa: BLE001 - sweep must go on
                    outcomes.append(
                        (key, False, f"{type(error).__name__}: {error}"))
                    print(f"[{key} FAILED: {type(error).__name__}: {error}]",
                          file=sys.stderr)
                    print()
            _print_summary(outcomes)
            status = 0 if all(passed for _, passed, _ in outcomes) else 1
        else:
            try:
                _run_one(args.experiment, quick=not args.full,
                         seed=args.seed, chart=args.chart, ha=args.ha,
                         tenancy=args.tenancy, power_cap=args.power_cap,
                         cancel=args.cancel)
                status = 0
                if verifier is not None and verifier.violations:
                    print(f"[{args.experiment} FAILED invariants:"
                          f" {_new_violations(0)}]", file=sys.stderr)
                    for violation in verifier.violations:
                        print(f"  - [{violation.run}]"
                              f" {violation.invariant}"
                              f" @{violation.time_s:.3f}s:"
                              f" {violation.message}", file=sys.stderr)
                    status = 1
            except Exception as error:  # noqa: BLE001 - exit code, not trace
                print(f"[{args.experiment} FAILED:"
                      f" {type(error).__name__}: {error}]", file=sys.stderr)
                status = 1
    finally:
        if tracer is not None:
            obs.uninstall()
            obs.uninstall_audit()
        if verifier is not None:
            verify.uninstall()

    if verifier is not None:
        total = len(verifier.violations)
        print(f"[verify: {verifier.runs} run(s) monitored,"
              f" {total} violation(s)"
              f"{': ' + _new_violations(0) if total else ''}]")

    if tracer is not None:
        config = {"experiment": args.experiment, "seed": args.seed,
                  "full": bool(args.full), "ha": bool(args.ha),
                  "tenancy": bool(args.tenancy),
                  "power_cap": args.power_cap,
                  "cancel": bool(args.cancel), "epoch_s": args.epoch_s}
        print(obs.run_summary(tracer))
        print(obs.write_run(tracer, audit, args.out,
                            {**config, "config_digest": obs.digest(config)}))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
