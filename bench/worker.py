"""One fresh benchmark worker: ``python3 bench/worker.py '<json spec>'``.

Each timed repeat runs in its own worker process so that import costs,
peak memory and any caches start from zero every time and no repeat can
leak state into the next. The worker imports the program from the
checkout's ``src/`` and nowhere else, runs exactly one thing, and prints
one JSON object as its only line of output.

Spec keys: ``workload`` and ``seed``; ``traced`` (wrap the layers in
spans); or ``matrix`` with ``seed`` and ``rounds`` for the layer-cost
matrix.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from ecobench import CHECKOUT, DEFAULT_OUT  # noqa: E402

SRC_DIR = os.path.join(CHECKOUT, "src")
sys.path.insert(0, SRC_DIR)


def _import_program() -> None:
    repro = workloads.import_program()
    location = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([location, SRC_DIR]) != SRC_DIR:
        raise ImportError(f"repro was imported from {location}, not from"
                          f" this checkout's {SRC_DIR}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(spec) -> dict:
    workload = workloads.WORKLOADS[spec["workload"]]
    _import_program()
    t_imported = time.perf_counter()
    inputs = workloads.make_inputs(workload, spec["seed"])
    t_ready = time.perf_counter()
    recorder = patches = None
    if spec.get("traced"):
        recorder = spans.SpanRecorder()
        patches = spans.install(recorder)
    os.makedirs(DEFAULT_OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=DEFAULT_OUT) as artifact_dir:
        try:
            t_sim = time.perf_counter()
            if recorder is not None:
                recorder.open(spans.ROOT)
            summary = workloads.simulate(workload, inputs, artifact_dir)
            if recorder is not None:
                recorder.close()
            wall = time.perf_counter() - t_sim
        finally:
            if patches is not None:
                spans.uninstall(patches)
    result = {
        "import_s": t_imported - _T_START,
        "workload_s": t_ready - t_imported,
        "setup_s": t_ready - _T_START,
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "summary": summary,
    }
    if recorder is not None:
        result["layers"] = recorder.by_layer()
        result["counts"] = recorder.counts
        result["collapsed"] = recorder.collapsed()
    return result


def run_matrix(spec) -> dict:
    """Every arm once per round, order reversed on alternate rounds.

    An untimed all-off run first fills the lazy caches (first solver
    calls, first allocations) that would otherwise land on whichever arm
    happens to run first.
    """
    _import_program()
    seeds = workloads.instance_seeds(spec["seed"], 0)
    trace = workloads.make_trace(workloads.MATRIX_DURATION_S, seeds[0])
    workloads.matrix_run("off", trace, seeds)
    walls = {arm: [] for arm in workloads.MATRIX_ARMS}
    for round_index in range(spec["rounds"]):
        order = workloads.MATRIX_ARMS
        if round_index % 2:
            order = tuple(reversed(order))
        for arm in order:
            t0 = time.perf_counter()
            workloads.matrix_run(arm, trace, seeds)
            walls[arm].append(time.perf_counter() - t0)
    return {"matrix": walls}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: worker.py '<json spec>'", file=sys.stderr)
        return 2
    spec = json.loads(argv[1])
    result = run_matrix(spec) if spec.get("matrix") else run_workload(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
