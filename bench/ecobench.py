"""The EcoFaaS reproduction's benchmark: host cost and simulated quality.

Two ways to run it, from the root of a checkout:

* ``python3 bench/ecobench.py [--seed S] [--out DIR]`` runs the whole
  suite: K timed repeats of every workload, interleaved round-robin with
  the order reversed on alternate rounds, then one traced run per
  workload and the layer-cost matrix. It prints every metric with its
  median, quartiles and sample count and writes the samples, spans and
  collapsed stacks under ``DIR`` (default ``bench/out``).
* ``python3 bench/ecobench.py --workload W --seed S --seconds T --trace
  0|1`` measures one workload for about T seconds and prints, as its
  last line, one JSON object with the end-to-end metrics (``--trace 0``)
  or the per-layer metrics (``--trace 1``, which also writes the traced
  run's spans and collapsed stacks under ``DIR``).

Every timed repeat runs in a fresh worker process (``worker.py``) with
every in-program instrumentation layer off; one worker runs at a time.
Its host times are rescaled to a reference machine speed measured
around it (see :func:`reference_kernel_s`). Metric names, units and
regression bounds are declared in the checkout's ``BENCHMARK.json``.
The command exits non-zero when a worker fails or a correctness check
breaks.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out")

#: The seed the reference summaries are pinned for.
DEFAULT_SEED = 7
#: Timed repeats per workload in the suite.
SUITE_REPEATS = 5
#: Fewest repeats in a driver run: two runs of the same inputs are what
#: the determinism check compares.
MIN_REPEATS = 2
#: Rounds of the layer-cost matrix (every arm once per round).
MATRIX_ROUNDS = 3
WORKER_TIMEOUT_S = 170.0
#: About the host seconds the reference kernel takes on a 2-core x86 VM.
#: Host times are reported rescaled to the speed that implies, so this
#: fixes only their scale.
REFERENCE_S = 0.15

#: Summary fields that must agree bit for bit between repeats.
SIM_KEYS = ("energy_j", "p99_latency_s", "submitted", "completed",
            "met_slo", "failed", "shed", "inflight", "invocations")

#: Layers every workload runs. Only these report ``<layer>.self_s`` as a
#: metric: any other layer's self time is exactly 0.0 on the workloads
#: that bypass it, a time that never changes from run to run. Every
#: layer's self time is still in the spans file, and ``<layer>.share``
#: carries it for all of them.
TIMED_LAYERS = ("sim.dispatch", "platform.cluster", "platform.node",
                "platform.scheduler", "hardware", "workloads.sample")


class BenchError(RuntimeError):
    """A worker failed: there is no measurement to report."""


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------
def run_worker(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one fresh worker to completion; returns its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)], cwd=CHECKOUT,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker {spec} timed out after"
                         f" {WORKER_TIMEOUT_S:.0f}s") from error
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"worker {spec} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class _Event:
    __slots__ = ("time", "key", "work")

    def __init__(self, time_s: float, key: int, work: int):
        self.time = time_s
        self.key = key
        self.work = work


def reference_kernel_s(steps: int = 150_000) -> float:
    """Host seconds of a fixed event loop: how fast the machine runs now.

    A shared machine slows every process on it down, for seconds or for
    minutes at a time, by far more than the changes the benchmark has to
    resolve. The kernel does the kind of work the simulator does (heap,
    small objects, dict updates, float arithmetic) in this process, which
    never imports the program, so no change to the program alters its
    speed. Each repeat's host times are divided by the kernel's time
    around it.
    """
    start = time.perf_counter()
    state, clock = 12345, 0.0
    queue: List[tuple] = []
    table: Dict[int, float] = {}
    for step in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        event = _Event(clock + (state % 1000) * 1e-3, step, state % 7)
        heapq.heappush(queue, (event.time, step, event))
        if len(queue) > 64:
            clock, _, done = heapq.heappop(queue)
            slot = done.key % 509
            table[slot] = table.get(slot, 0.0) * 0.875 + done.work * clock
    return time.perf_counter() - start


def run_timed(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One untraced repeat, with the machine's speed measured around it."""
    before = reference_kernel_s()
    sample = run_worker(spec)
    sample["reference_s"] = (before + reference_kernel_s()) / 2.0
    return sample


def timed_repeats(workload: str, seed: int, seconds: float) -> List[Dict]:
    """Fresh untraced repeats until ``seconds`` have passed (at least two)."""
    samples: List[Dict] = []
    start = time.perf_counter()
    while (len(samples) < MIN_REPEATS
           or time.perf_counter() - start < seconds):
        samples.append(run_timed({"workload": workload, "seed": seed}))
    return samples


# ---------------------------------------------------------------------------
# Statistics and metrics
# ---------------------------------------------------------------------------
def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sample_values(sample: Dict[str, Any]) -> Dict[str, float]:
    """One repeat's end-to-end values, host times at the reference speed."""
    summary = sample["summary"]
    speed = REFERENCE_S / sample["reference_s"]
    wall = sample["wall_s"] * speed
    return {
        "wall_s": wall,
        "invocations_per_s": summary["invocations"] / wall,
        "setup_s": sample["setup_s"] * speed,
        "peak_rss_mb": sample["peak_rss_mb"],
        "energy_kj": summary["energy_j"] / 1000.0,
        "p99_latency_s": summary["p99_latency_s"],
        "slo_met_rate": summary["met_slo"] / summary["submitted"],
    }


def end_to_end(samples: List[Dict]) -> Dict[str, List[float]]:
    """Every end-to-end metric's per-repeat values."""
    rows = [sample_values(sample) for sample in samples]
    return {name: [row[name] for row in rows] for name in rows[0]}


def layer_metrics(traced: Dict[str, Any], untraced: List[Dict],
                  matrix: Dict[str, List[float]]) -> Dict[str, float]:
    """Every per-layer metric from one traced run plus the matrix."""
    layers = traced["layers"]
    total = sum(row["self_s"] for row in layers.values())
    values: Dict[str, float] = {}
    for layer in spans.LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        if layer in TIMED_LAYERS:
            values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.share"] = row["self_s"] / total
    # The kernel together with every layer it dispatches into: what
    # ``repro profile`` reports as kernel dispatch.
    values["sim.dispatch.inclusive_share"] = (
        layers["sim.dispatch"]["inclusive_s"] / total)
    solves = layers.get("core.milp", {}).get("calls", 0)
    values["core.milp.nodes_per_solve"] = (
        traced["counts"].get("core.milp.nodes", 0) / solves if solves else 0.0)
    values["setup.import_s"] = statistics.median(
        s["import_s"] for s in untraced)
    values["setup.workload_s"] = statistics.median(
        s["workload_s"] for s in untraced)
    summary = traced["summary"]
    attempts = layers.get("platform.node", {}).get("calls", 0)
    values["platform.containers.cold_ratio"] = (
        summary["cold_starts"] / summary["invocations"])
    values["platform.attempts.useful_ratio"] = (
        summary["invocations"] / attempts if attempts else 0.0)
    values["platform.queue_wait_s"] = (
        summary["queue_wait_s"] / summary["invocations"])
    values["bench.span_coverage"] = (
        1.0 - layers[spans.ROOT]["self_s"] / total)
    values["bench.trace_overhead"] = traced["wall_s"] / statistics.median(
        s["wall_s"] for s in untraced)
    values.update(matrix_metrics(matrix))
    return values


def matrix_metrics(walls: Dict[str, List[float]]) -> Dict[str, float]:
    """GPS-UP speedups of arming each layer: T_off / T_arm (base: off)."""
    base = statistics.median(walls["off"])
    values = {"arm.off.wall_s": base}
    for arm in workloads.MATRIX_ARMS:
        if arm == "off":
            continue
        ratios = [off / armed for off, armed in zip(walls["off"], walls[arm])]
        q1, _, q3 = quartiles(ratios)
        values[f"arm.{arm}.wall_ratio"] = base / statistics.median(walls[arm])
        values[f"arm.{arm}.wall_ratio_iqr"] = q3 - q1
    return values


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def sim_summary(summary: Dict[str, Any]) -> Dict[str, Any]:
    return {key: summary[key] for key in SIM_KEYS}


def run_problems(summary: Dict[str, Any],
                 first: Dict[str, Any]) -> List[str]:
    """What is wrong with one run's outcome, given the first repeat's."""
    problems = []
    if sim_summary(summary) != sim_summary(first):
        problems.append("simulated a different outcome than the first"
                        " repeat from the same inputs")
    if not summary["lifecycle_ok"]:
        problems.append("submitted workflows are not all completed,"
                        " failed, shed or in flight")
    if summary.get("ledger_conserved") is False:
        problems.append("the energy ledger does not conserve the metered"
                        " joules")
    if not (summary["energy_j"] > 0 and summary["submitted"] > 0
            and math.isfinite(summary["p99_latency_s"])):
        problems.append("empty or non-finite outcome")
    return problems


def check_runs(name: str, samples: List[Dict],
               traced: Optional[Dict] = None) -> tuple:
    """(runs checked, runs failed, problem lines) for one workload.

    Every repeat must reproduce the first bit for bit, and the traced run
    must too: wrapping the layers reads only the host clock.
    """
    runs = samples + ([traced] if traced is not None else [])
    first = samples[0]["summary"]
    lines, failed = [], 0
    for index, run in enumerate(runs):
        label = "traced run" if run is traced else f"repeat {index}"
        problems = run_problems(run["summary"], first)
        failed += bool(problems)
        lines += [f"{name}: {label} {problem}" for problem in problems]
    return len(runs), failed, lines


def load_reference() -> Dict[str, Any]:
    try:
        with open(REFERENCE_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def sim_match_line(name: str, seed: int, summary: Dict[str, Any],
                   reference: Dict[str, Any]) -> Optional[str]:
    """Compare with the pinned reference outcome when one exists."""
    pinned = reference.get("workloads", {}).get(name)
    if reference.get("seed") != seed or pinned is None:
        return None
    if sim_summary(summary) == pinned:
        return f"sim_match {name} yes"
    diffs = ", ".join(f"{key} {pinned.get(key)} -> {summary[key]}"
                      for key in SIM_KEYS if pinned.get(key) != summary[key])
    return (f"sim_match {name} NO ({diffs}); simulated behaviour changed:"
            f" trace both commits with `repro <experiment> --trace t.json"
            f" --fingerprints fp.json` and run `repro diff` to find the"
            f" first diverging decision")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def load_spec(checkout: str = CHECKOUT) -> Dict[str, Any]:
    """A checkout's ``BENCHMARK.json``."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_line(name: str, values: List[float], unit: str) -> str:
    q1, median, q3 = quartiles(values)
    return (f"{name} {median:.6g} {unit}  median={median:.6g}"
            f" q1={q1:.6g} q3={q3:.6g} n={len(values)}")


def declared(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def result_json(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], units: Dict[str, str]) -> str:
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}})


def write_traced(out_dir: str, name: str, traced: Dict[str, Any]) -> None:
    """The traced run's spans (per layer) and its collapsed stacks."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.spans.json"), "w") as handle:
        json.dump({"layers": traced["layers"], "counts": traced["counts"]},
                  handle, indent=1, sort_keys=True)
    with open(os.path.join(out_dir, f"{name}.collapsed"), "w") as handle:
        handle.write(traced["collapsed"])


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------
def run_one(args, spec: Dict[str, Any]) -> int:
    """Driver mode: one workload, one seed, one kind of metric.

    A traced run needs the untraced repeats only as the trace-overhead
    base and for the determinism check, so it takes the minimum of them
    and spends its time on the traced run and the layer-cost matrix.
    """
    samples = timed_repeats(args.workload, args.seed,
                            0.0 if args.trace else args.seconds)
    traced = None
    if args.trace:
        traced = run_worker({"workload": args.workload, "seed": args.seed,
                             "traced": True})
        matrix = run_worker({"matrix": True, "seed": args.seed,
                             "rounds": MATRIX_ROUNDS})["matrix"]
        values = layer_metrics(traced, samples, matrix)
        units = declared(spec, "per_layer")
        write_traced(args.out, args.workload, traced)
        for name, unit in units.items():
            print(f"{name} {values[name]:.6g} {unit}")
    else:
        series = end_to_end(samples)
        units = declared(spec, "end_to_end")
        values = {name: statistics.median(series[name]) for name in units}
        for name, unit in units.items():
            print(metric_line(name, series[name], unit))
        print_host_speed(samples)
    runs, failed, problems = check_runs(args.workload, samples, traced)
    report_outcome(args.workload, args.seed, samples[0]["summary"],
                   problems)
    print(result_json(not problems, runs, failed, values, units))
    return 1 if problems else 0


def print_host_speed(samples: List[Dict]) -> None:
    """The raw host wall times and the machine speed they were scaled by."""
    print(metric_line("host.raw_wall_s", [s["wall_s"] for s in samples],
                      "s"))
    print(metric_line("host.reference_kernel_s",
                      [s["reference_s"] for s in samples], "s"))


def report_outcome(name: str, seed: int, summary: Dict[str, Any],
                   problems: List[str]) -> None:
    """Workflow-level outcome, the reference comparison, failed checks."""
    print(f"ops_attempted {summary['submitted']} count")
    print(f"ops_failed {summary['failed'] + summary['shed']} count")
    match = sim_match_line(name, seed, summary, load_reference())
    if match:
        print(match)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")


def run_suite(args, spec: Dict[str, Any]) -> int:
    """Suite mode: every workload, K interleaved repeats, traces, matrix."""
    names = list(workloads.WORKLOADS)
    samples: Dict[str, List[Dict]] = {name: [] for name in names}
    for round_index in range(SUITE_REPEATS):
        order = names if round_index % 2 == 0 else names[::-1]
        for name in order:
            print(f"[round {round_index + 1}/{SUITE_REPEATS}] {name}",
                  file=sys.stderr, flush=True)
            samples[name].append(run_timed({"workload": name,
                                            "seed": args.seed}))
    traced = {}
    for name in names:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        traced[name] = run_worker({"workload": name, "seed": args.seed,
                                   "traced": True})
    print("[matrix]", file=sys.stderr, flush=True)
    matrix = run_worker({"matrix": True, "seed": args.seed,
                         "rounds": MATRIX_ROUNDS})["matrix"]
    e2e_units = declared(spec, "end_to_end")
    layer_units = declared(spec, "per_layer")
    document: Dict[str, Any] = {"kind": "ecobench-suite", "seed": args.seed,
                                "repeats": SUITE_REPEATS, "workloads": {},
                                "matrix": matrix}
    all_problems: List[str] = []
    for name in names:
        series = end_to_end(samples[name])
        per_layer = layer_metrics(traced[name], samples[name], matrix)
        summary = samples[name][0]["summary"]
        print(f"== {name} ==")
        for metric, unit in e2e_units.items():
            print(metric_line(metric, series[metric], unit))
        print_host_speed(samples[name])
        for metric, unit in layer_units.items():
            print(f"{metric} {per_layer[metric]:.6g} {unit}  n=1")
        _, _, problems = check_runs(name, samples[name], traced[name])
        report_outcome(name, args.seed, summary, problems)
        all_problems += problems
        write_traced(args.out, name, traced[name])
        document["workloads"][name] = {
            "samples": series, "per_layer": per_layer,
            "layers": traced[name]["layers"], "summary": summary}
    with open(os.path.join(args.out, "ecobench.json"), "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    if args.write_reference and not all_problems:
        with open(REFERENCE_PATH, "w") as handle:
            json.dump({"seed": args.seed, "workloads": {
                name: sim_summary(samples[name][0]["summary"])
                for name in names}}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"correctness {'FAILED' if all_problems else 'ok'};"
          f" results in {os.path.join(args.out, 'ecobench.json')}")
    return 1 if all_problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="EcoFaaS reproduction benchmark (see bench/README.md)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure one workload and print one JSON line")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="with --workload: how long to keep repeating")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for the results and traced spans")
    parser.add_argument("--write-reference", action="store_true",
                        help="suite mode: pin this seed's outcomes as the"
                             " sim_match reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(CHECKOUT, "src", "repro")):
        print(f"no program to measure: {CHECKOUT}/src/repro is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.workload:
            return run_one(args, spec)
        os.makedirs(args.out, exist_ok=True)
        return run_suite(args, spec)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
