"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

A is the base (the parent commit), B the change. Both are files the
benchmark wrote: a suite's ``ecobench.json`` or a ``sweep-<i>.json``.
For every workload and end-to-end metric it prints both sides' median
and quartiles, the ratio B/A with its base, and a verdict.

The host metrics (times, rates, memory) vary from run to run, so they
are judged on their medians against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` when either side's spread (quartile distance over
  median) is wider than the bound, unless every run of B beats every run
  of A;
* ``worse`` when B's median is worse than A's by more than the bound;
* ``improved`` when B's median is better by more than A's own spread
  and, when both ran the same seeds, B won at least nine in ten of the
  seed-aligned pairs;
* ``unchanged`` otherwise.

The simulated metrics (energy, p99, SLO) repeat exactly for a seed, so
the spread between seeds says nothing about a change. They are compared
seed by seed against the tight bounds in ``SIM_BOUNDS``: ``worse`` when
any seed got worse by more than the bound, ``improved`` when the median
seed got better by more than it, ``unchanged`` otherwise, and
``unresolved`` when the two files did not run the same seeds. Every
line also counts the seeds whose value changed at all.

When ``wall_s`` got worse and both files hold traced spans, it names the
layer whose self time grew the most. Exits 1 when any verdict is
``worse`` and 2 when a file cannot be read.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

from ecobench import load_spec, quartiles

#: Per-seed bounds of the simulated metrics: (bound, relative). A
#: relative bound is a share of A's value for that seed, an absolute one
#: a difference in the metric's own unit.
SIM_BOUNDS: Dict[str, Tuple[float, bool]] = {
    "energy_kj": (0.005, True),
    "p99_latency_s": (0.02, True),
    "slo_met_rate": (0.005, False),
}


class Unreadable(Exception):
    """A results file is missing, not JSON, or has no workloads."""


def load(path: str) -> Dict[str, Any]:
    try:
        with open(path) as handle:
            document = json.load(handle)
        document["workloads"].items()
    except (OSError, ValueError, KeyError, AttributeError,
            TypeError) as error:
        raise Unreadable(f"compare: cannot read {path}: {error}") from None
    return document


def run_seeds(document: Dict[str, Any]) -> Optional[List[int]]:
    """The seed of each run in a sample list: a sweep's seeds, or a
    suite's one seed once per repeat."""
    if "seeds" in document:
        return document["seeds"]
    if "seed" in document and "repeats" in document:
        return [document["seed"]] * document["repeats"]
    return None


def pair_wins(a: List[float], b: List[float], better: str) -> int:
    """Seed-aligned pairs in which B reads better than A (ties: neither)."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)


def verdict(a: List[float], b: List[float], better: str, bound: float,
            paired: bool = False) -> Tuple[str, float]:
    """(verdict, how much worse B's median is, as a share of A's)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        return ("improved" if b_always_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread_a and (
            not paired or pair_wins(a, b, better) >= 0.9 * len(a)):
        return "improved", worse_by
    return "unchanged", worse_by


def seed_verdict(a: List[float], b: List[float], better: str, bound: float,
                 relative: bool) -> Tuple[str, float]:
    """(verdict, the worst seed's worsening) over seed-aligned values."""
    sign = 1.0 if better == "lower" else -1.0
    # Adding 0.0 turns the -0.0 of an unchanged "higher" metric into 0.0.
    worse = [sign * (y - x) / (x if relative else 1.0) + 0.0
             for x, y in zip(a, b)]
    if max(worse) > bound:
        return "worse", max(worse)
    if statistics.median(worse) < -bound:
        return "improved", max(worse)
    return "unchanged", max(worse)


def grown_layer(base: Dict[str, Any], change: Dict[str, Any]) -> str:
    """The layer whose traced self time grew the most from A to B."""
    layers_a, layers_b = base.get("layers"), change.get("layers")
    if not layers_a or not layers_b:
        return ("  (no traced spans in these files: run the suite on both"
                " commits to attribute the growth)")
    growth = {layer: row["self_s"] - layers_a.get(layer, {}).get("self_s",
                                                                   0.0)
              for layer, row in layers_b.items()}
    layer = max(growth, key=growth.get)
    before = layers_a.get(layer, {}).get("self_s", 0.0)
    return (f"  wall_s grew most in {layer}: self time"
            f" {before:.3f}s -> {layers_b[layer]['self_s']:.3f}s"
            f" ({growth[layer]:+.3f}s)")


def metric_line(metric: str, info: Dict[str, Any], a: List[float],
                b: List[float], paired: bool) -> Tuple[str, str]:
    """(verdict, printed line) for one metric of one workload."""
    qa, qb = quartiles(a), quartiles(b)
    line = (f"{metric:18s} A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            f"  B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            f"  B/A {qb[1] / qa[1]:.4f} (base A {qa[1]:.5g}"
            f" {info['unit']})")
    if metric in SIM_BOUNDS:
        bound, relative = SIM_BOUNDS[metric]
        if not paired:
            return "unresolved", (f"{line}  unresolved (needs the same"
                                  f" seeds on both sides)")
        result, worst = seed_verdict(a, b, info["better"], bound, relative)
        changed = sum(1 for x, y in zip(a, b) if x != y)
        scale, unit = (100, "%") if relative else (1, "")
        return result, (f"{line}  {result} (per seed: bound"
                        f" {scale * bound:.3g}{unit}, worst seed"
                        f" {scale * worst:+.3g}{unit},"
                        f" {changed}/{len(a)} seeds changed)")
    result, worse_by = verdict(a, b, info["better"], info["bound"], paired)
    line += (f"  {result} (bound {info['bound']:.3g},"
             f" worse by {100 * worse_by:+.1f}%)")
    if paired:
        line += f"  B won {pair_wins(a, b, info['better'])}/{len(a)} pairs"
    return result, line


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    try:
        base, change = load(argv[0]), load(argv[1])
    except Unreadable as error:
        print(error, file=sys.stderr)
        return 2
    metrics = {m["name"]: m for m in load_spec()["end_to_end"]}
    seeds = run_seeds(base)
    any_worse = False
    print(f"A = {argv[0]}\nB = {argv[1]}")
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        a_side, b_side = base["workloads"][name], change["workloads"][name]
        print(f"== {name} ==")
        for metric, info in metrics.items():
            a = a_side["samples"].get(metric)
            b = b_side["samples"].get(metric)
            if not a or not b:
                continue
            paired = (seeds is not None and seeds == run_seeds(change)
                      and len(a) == len(b) == len(seeds))
            result, line = metric_line(metric, info, a, b, paired)
            print(line)
            if result == "worse":
                any_worse = True
                if metric == "wall_s":
                    print(grown_layer(a_side, b_side))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
