"""Run the benchmark over many seeds, in one checkout or alternating two.

``python3 bench/sweep.py --out DIR [--seeds 1-10] [--checkout PATH ...]``
runs ``python3 bench/ecobench.py --workload W --seed S --seconds T
--trace 0`` for every seed and every workload declared in
``BENCHMARK.json``, in every given checkout (default: this one), with T
taken from each checkout's ``BENCHMARK.json``. With two checkouts, say a
parent commit and a change, every (seed, workload) runs on both back to
back and the side that runs first alternates from seed to seed: the
alternating-pairs protocol in README.md.

For each checkout it writes ``DIR/sweep-<i>.json`` (per-seed values,
aligned across checkouts, readable by ``compare.py``) and prints every
end-to-end metric's median and spread: the distance between its first
and third quartile as a share of its median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from ecobench import CHECKOUT, load_spec, quartiles

RUN_TIMEOUT_S = 600.0


def parse_seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def run_driver(checkout: str, spec: Dict[str, Any], workload: str,
               seed: int) -> Dict[str, Any]:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited"
                           f" {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default="1-10")
    parser.add_argument("--checkout", action="append", default=None,
                        help="repeat to alternate between checkouts")
    args = parser.parse_args(argv)
    checkouts = [os.path.abspath(c) for c in (args.checkout or [CHECKOUT])]
    specs = [load_spec(checkout) for checkout in checkouts]
    names = [w["name"] for w in specs[0]["workloads"]]
    documents = [{"kind": "ecobench-sweep", "seeds": args.seeds,
                  "workloads": {name: {"samples": {}, "correct": []}
                                for name in names}}
                 for _ in checkouts]
    for seed_index, seed in enumerate(args.seeds):
        for name in names:
            order = list(range(len(checkouts)))
            if seed_index % 2:
                order.reverse()
            for side in order:
                result = run_driver(checkouts[side], specs[side], name, seed)
                entry = documents[side]["workloads"][name]
                entry["correct"].append(result["correct"])
                for metric, value in result["metrics"].items():
                    entry["samples"].setdefault(metric, []).append(
                        value["value"])
                print(f"seed {seed} {name} [{side}] done", file=sys.stderr,
                      flush=True)
    os.makedirs(args.out, exist_ok=True)
    for side, document in enumerate(documents):
        with open(os.path.join(args.out, f"sweep-{side}.json"), "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
        bounds = {m["name"]: m["bound"] for m in specs[side]["end_to_end"]}
        print(f"== {checkouts[side]} ({len(args.seeds)} seeds) ==")
        print(f"{'workload':16s} {'metric':18s} {'median':>10s}"
              f" {'spread':>7s} {'bound':>6s}")
        for name, entry in document["workloads"].items():
            for metric, values in entry["samples"].items():
                s = spread(values)
                flag = ("  OVER BOUND" if s > bounds[metric] else
                        "  over 1/3 bound" if s > bounds[metric] / 3 else "")
                print(f"{name:16s} {metric:18s}"
                      f" {statistics.median(values):10.5g} {s:7.4f}"
                      f" {bounds[metric]:6.3f}{flag}")
            if not all(entry["correct"]):
                print(f"{name}: correctness check FAILED on some seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
