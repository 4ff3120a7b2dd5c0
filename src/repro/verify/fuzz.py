"""Seeded chaos fuzzing with delta-debugged, replayable repros.

The fuzzer behind ``repro fuzz``: each trial draws a random — but fully
seeded — *trial spec* (cluster shape, Poisson load with an optional
overload burst, guard/HA/tenancy/cancel config draws, and a fault
schedule composing every fault kind), runs it with every invariant
monitor armed
plus the energy ledger's conservation check, and records any violation.

A violating spec is then **shrunk**: classic ddmin over the fault
events (does half the schedule still violate?), then per-event
parameter simplification, then config-section drops (burst, admission,
tenancy, cancel, hedging), then run-length truncation — each candidate
accepted
only if it still reproduces the original violation signature (the set
of violated invariant names). The result is a minimal, self-contained
JSON artifact; ``repro fuzz --replay <artifact>`` re-executes it and
compares the outcome byte-for-byte.

Everything is derived from ``SeedSequence([seed, trial, ...])``
streams: the same ``--trials/--seed`` always explores the identical
schedule space, and artifacts replay bit-identically.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs, verify
from repro.baselines import BaselineSystem
from repro.cancel.config import (
    CancelConfig,
    DeadlineConfig,
    RetryBudgetConfig,
)
from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import run_cluster
from repro.faults.plan import FaultEvent, FaultPlan
from repro.guard.config import AdmissionConfig, BreakerConfig, GuardConfig
from repro.ha.config import HAConfig
from repro.obs.fingerprint import cluster_fingerprint
from repro.obs.ledger import EnergyConservationError, EnergyLedger
from repro.obs.tracer import Tracer
from repro.platform.cluster import ClusterConfig
from repro.platform.reliability import ReliabilityPolicy
from repro.sim.rng import stable_hash
from repro.tenancy.config import PowerCapConfig, TenancyConfig, TenantSpec
from repro.traces.poisson import (
    PoissonLoadConfig,
    generate_poisson_trace,
    rate_for_utilization,
)
from repro.traces.trace import Trace, TraceEvent
from repro.verify.invariants import Verifier
from repro.workloads.registry import all_benchmarks

#: Artifact schema identifier.
ARTIFACT_FORMAT = "repro.verify.fuzz/1"

#: Controller replicas in every HA-armed trial (the HAConfig default).
N_CONTROLLERS = 3


# ---------------------------------------------------------------------------
# Trial-spec sampling
# ---------------------------------------------------------------------------
def _function_names(benchmarks: Sequence[str]) -> List[str]:
    keep = set(benchmarks)
    names = set()
    for workflow in all_benchmarks():
        if workflow.name not in keep:
            continue
        for stage in workflow.stages:
            for fn in stage.functions:
                names.add(fn.name)
    return sorted(names)


def _sample_plan(rng, duration_s: float, n_servers: int,
                 functions: Sequence[str], with_ha: bool
                 ) -> List[Dict[str, object]]:
    """A random fault schedule over every kind this trial can express.

    Crash windows are kept non-overlapping per node (an overlapping
    crash would land on an already-down node and be absorbed — noise,
    not signal, for shrinking), and partition/controller faults are
    drawn only when the HA layer is armed to absorb them.
    """
    window = (0.05 * duration_s, 0.70 * duration_s)
    events: List[FaultEvent] = []
    crash_windows: Dict[int, List[Tuple[float, float]]] = {}
    for _ in range(int(rng.integers(0, 4))):
        t = float(rng.uniform(*window))
        node = int(rng.integers(n_servers))
        down = float(rng.uniform(1.0, 4.0))
        span = (t, t + down)
        if any(span[0] < e and s < span[1]
               for s, e in crash_windows.get(node, [])):
            continue
        crash_windows.setdefault(node, []).append(span)
        events.append(FaultEvent(time_s=t, kind="node_crash", node=node,
                                 duration_s=down))
    if functions:
        for _ in range(int(rng.integers(0, 5))):
            events.append(FaultEvent(
                time_s=float(rng.uniform(*window)), kind="container_kill",
                node=int(rng.integers(n_servers)),
                function=str(rng.choice(list(functions)))))
    for _ in range(int(rng.integers(0, 4))):
        events.append(FaultEvent(
            time_s=float(rng.uniform(*window)), kind="rpc_spike",
            node=int(rng.integers(n_servers)),
            duration_s=float(rng.uniform(0.5, 2.5)),
            magnitude=float(rng.uniform(2.0, 8.0))))
    for _ in range(int(rng.integers(0, 3))):
        events.append(FaultEvent(
            time_s=float(rng.uniform(*window)), kind="dvfs_stall",
            node=int(rng.integers(n_servers)),
            duration_s=float(rng.uniform(0.5, 2.5)),
            magnitude=float(rng.uniform(50.0, 200.0))))
    if with_ha:
        for _ in range(int(rng.integers(0, 3))):
            events.append(FaultEvent(
                time_s=float(rng.uniform(*window)),
                kind="network_partition",
                node=int(rng.integers(n_servers)),
                duration_s=float(rng.uniform(0.5, 2.0)),
                direction=str(rng.choice(["both", "out", "in"]))))
        for _ in range(int(rng.integers(0, 2))):
            events.append(FaultEvent(
                time_s=float(rng.uniform(*window)),
                kind="controller_crash",
                node=int(rng.integers(N_CONTROLLERS)),
                duration_s=float(rng.uniform(0.5, 2.0))))
    plan = FaultPlan(tuple(events)).validate(
        n_servers=n_servers, functions=functions,
        n_controllers=N_CONTROLLERS if with_ha else None)
    return plan.to_json()


def sample_spec(trial: int, seed: int) -> Dict[str, object]:
    """Draw one self-contained, JSON-ready trial spec."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed, trial, stable_hash("verify/fuzz")]))
    names = sorted(wf.name for wf in all_benchmarks())
    k = int(rng.integers(4, min(9, len(names) + 1)))
    benchmarks = sorted(str(b) for b in
                        rng.choice(names, size=k, replace=False))
    duration_s = float(rng.uniform(6.0, 12.0))
    n_servers = int(rng.integers(2, 4))
    with_ha = bool(rng.random() < 0.7)
    spec: Dict[str, object] = {
        "trial": trial,
        "seed": seed,
        "system": str(rng.choice(["EcoFaaS", "Baseline"], p=[0.8, 0.2])),
        "duration_s": round(duration_s, 3),
        "drain_s": round(float(rng.uniform(4.0, 8.0)), 3),
        "n_servers": n_servers,
        "utilization": round(float(rng.uniform(0.2, 1.2)), 3),
        "trace_seed": int(rng.integers(1, 2**31)),
        "benchmarks": benchmarks,
        "reliability": {
            "max_retries": int(rng.integers(4, 9)),
            "backoff_base_s": 0.05,
            "backoff_jitter": round(float(rng.uniform(0.0, 0.2)), 3),
            "invocation_timeout_s": (
                round(float(rng.uniform(2.0, 6.0)), 3)
                if rng.random() < 0.5 else None),
            "hedge_after_s": (round(float(rng.uniform(0.5, 2.0)), 3)
                              if rng.random() < 0.3 else None),
        },
        "guard": {
            "breaker": {
                "window_s": round(float(rng.uniform(4.0, 10.0)), 3),
                "min_failures": int(rng.integers(2, 4)),
                "failure_rate": round(float(rng.uniform(0.4, 0.7)), 3),
                "open_for_s": round(float(rng.uniform(1.0, 3.0)), 3),
            },
            "admission": ({
                "rate_rps": round(float(rng.uniform(5.0, 30.0)), 3),
                "burst": round(float(rng.uniform(5.0, 15.0)), 3),
                "brownout_ewt_s": [0.5, 1.5],
            } if rng.random() < 0.4 else None),
        },
        "ha": ({
            "phi_threshold": round(float(rng.uniform(4.0, 8.0)), 3),
            "dead_after_s": 2.0,
            "lease_s": 1.0,
            "redispatch": True,
        } if with_ha else None),
        "tenancy": None,
        "burst": ({
            "utilization": round(float(rng.uniform(1.5, 3.0)), 3),
            "start_s": round(float(rng.uniform(0.1, 0.4) * duration_s), 3),
            "duration_s": round(float(rng.uniform(1.0, 3.0)), 3),
            "seed": int(rng.integers(1, 2**31)),
        } if rng.random() < 0.5 else None),
    }
    if rng.random() < 0.5 and len(benchmarks) >= 2:
        split = max(1, len(benchmarks) // 2)
        spec["tenancy"] = {
            "tenants": [
                {"name": "slo", "benchmarks": benchmarks[:split],
                 "budget_j": round(float(rng.uniform(100.0, 600.0)), 1),
                 "window_s": round(float(rng.uniform(5.0, 10.0)), 3),
                 "best_effort": False},
                {"name": "batch", "benchmarks": benchmarks[split:],
                 "budget_j": round(float(rng.uniform(50.0, 300.0)), 1),
                 "window_s": round(float(rng.uniform(5.0, 10.0)), 3),
                 "best_effort": True},
            ],
            "power_cap": ({
                "cap_w": round(float(rng.uniform(150.0, 450.0)), 1),
                "period_s": 1.0,
            } if rng.random() < 0.5 else None),
        }
    spec["plan"] = _sample_plan(
        rng, duration_s, n_servers, _function_names(benchmarks), with_ha)
    # The cancel section draws from its own stream so every pre-existing
    # draw above (and thus every pinned seed/trial outcome that does not
    # depend on cancellation) is untouched by its addition.
    crng = np.random.default_rng(np.random.SeedSequence(
        [seed, trial, stable_hash("verify/fuzz/cancel")]))
    spec["cancel"] = None
    if crng.random() < 0.6:
        deadline = ({
            "slack_s": round(float(crng.uniform(0.0, 0.5)), 3),
        } if crng.random() < 0.8 else None)
        retry_budget = ({
            "ratio": round(float(crng.uniform(0.05, 0.3)), 3),
            "window_s": round(float(crng.uniform(2.0, 6.0)), 3),
            "floor": int(crng.integers(1, 6)),
        } if crng.random() < 0.7 else None)
        if deadline is not None or retry_budget is not None:
            spec["cancel"] = {"deadline": deadline,
                              "retry_budget": retry_budget}
    return spec


# ---------------------------------------------------------------------------
# Spec -> concrete run
# ---------------------------------------------------------------------------
def _build_system(spec: Dict[str, object]):
    if spec.get("system") == "Baseline":
        return BaselineSystem()
    return EcoFaaSSystem(EcoFaaSConfig())


def _build_trace(spec: Dict[str, object]) -> Trace:
    benchmarks = list(spec["benchmarks"])
    keep = set(benchmarks)
    workflows = [wf for wf in all_benchmarks() if wf.name in keep]
    duration = float(spec["duration_s"])
    total_cores = int(spec["n_servers"]) * 20
    # rate_for_utilization() only accepts (0, 1]; the arrival rate is
    # linear in utilization, so scale the unit rate for overload draws.
    unit_rate = rate_for_utilization(workflows, 1.0,
                                     total_cores=total_cores)
    base = generate_poisson_trace(PoissonLoadConfig(
        benchmarks, rate_rps=unit_rate * float(spec["utilization"]),
        duration_s=duration, seed=int(spec["trace_seed"])))
    burst = spec.get("burst")
    if burst is None:
        return base
    burst_rate = unit_rate * float(burst["utilization"])
    start = float(burst["start_s"])
    burst_len = min(float(burst["duration_s"]),
                    max(0.5, duration - start - 0.1))
    extra = generate_poisson_trace(PoissonLoadConfig(
        benchmarks, rate_rps=burst_rate, duration_s=burst_len,
        seed=int(burst["seed"])))
    shifted = [TraceEvent(round(e.time_s + start, 9), e.benchmark)
               for e in extra.events
               if e.time_s + start < duration]
    return Trace(list(base.events) + shifted, duration)


def _build_config(spec: Dict[str, object]) -> ClusterConfig:
    rel = spec["reliability"]
    reliability = ReliabilityPolicy(
        max_retries=int(rel["max_retries"]),
        backoff_base_s=float(rel["backoff_base_s"]),
        backoff_jitter=float(rel["backoff_jitter"]),
        invocation_timeout_s=rel["invocation_timeout_s"],
        hedge_after_s=rel["hedge_after_s"])
    guard = None
    if spec.get("guard") is not None:
        g = spec["guard"]
        admission = None
        if g.get("admission") is not None:
            a = g["admission"]
            admission = AdmissionConfig(
                rate_rps=float(a["rate_rps"]), burst=float(a["burst"]),
                brownout_ewt_s=tuple(a["brownout_ewt_s"]))
        b = g["breaker"]
        guard = GuardConfig(
            admission=admission,
            breaker=BreakerConfig(
                window_s=float(b["window_s"]),
                min_failures=int(b["min_failures"]),
                failure_rate=float(b["failure_rate"]),
                open_for_s=float(b["open_for_s"])))
    ha = None
    if spec.get("ha") is not None:
        h = spec["ha"]
        ha = HAConfig(phi_threshold=float(h["phi_threshold"]),
                      dead_after_s=float(h["dead_after_s"]),
                      lease_s=float(h["lease_s"]),
                      n_controllers=N_CONTROLLERS,
                      redispatch=bool(h["redispatch"]))
    tenancy = None
    if spec.get("tenancy") is not None:
        t = spec["tenancy"]
        tenants = tuple(TenantSpec(
            name=row["name"], benchmarks=tuple(row["benchmarks"]),
            budget_j=row["budget_j"], window_s=float(row["window_s"]),
            best_effort=bool(row["best_effort"]))
            for row in t["tenants"])
        power_cap = None
        if t.get("power_cap") is not None:
            p = t["power_cap"]
            power_cap = PowerCapConfig(cap_w=float(p["cap_w"]),
                                       period_s=float(p["period_s"]))
        tenancy = TenancyConfig(tenants=tenants, power_cap=power_cap)
    cancel = None
    if spec.get("cancel") is not None:
        c = spec["cancel"]
        deadline = None
        if c.get("deadline") is not None:
            deadline = DeadlineConfig(
                slack_s=float(c["deadline"]["slack_s"]))
        retry_budget = None
        if c.get("retry_budget") is not None:
            rb = c["retry_budget"]
            retry_budget = RetryBudgetConfig(
                ratio=float(rb["ratio"]),
                window_s=float(rb["window_s"]),
                floor=int(rb["floor"]))
        cancel = CancelConfig(deadline=deadline,
                              retry_budget=retry_budget)
    return ClusterConfig(
        n_servers=int(spec["n_servers"]),
        drain_s=float(spec["drain_s"]),
        reliability=reliability, guard=guard, ha=ha, tenancy=tenancy,
        cancel=cancel)


def run_trial(spec: Dict[str, object],
              mutate: Optional[str] = None) -> Dict[str, object]:
    """Execute one spec with all monitors armed; returns the outcome.

    The outcome — violation list plus the run's metrics fingerprint —
    is exactly what replays compare byte-for-byte.
    """
    from repro.verify.mutate import planted  # local: test-hook only
    plan = FaultPlan.from_json(spec["plan"])
    trace = _build_trace(spec)
    config = _build_config(spec)
    verifier = Verifier()
    tracer = Tracer(ledger=EnergyLedger())
    obs.install(tracer)
    verify.install(verifier)
    violations: List[Dict[str, object]] = []
    fingerprint = None
    context = planted(mutate) if mutate else contextlib.nullcontext()
    try:
        with context:
            cluster = run_cluster(_build_system(spec), trace, config,
                                  fault_plan=plan)
            fingerprint = cluster_fingerprint(cluster)
    except EnergyConservationError as exc:
        violations.append({
            "invariant": "energy-conservation", "time_s": -1.0,
            "run": str(spec.get("system", "")),
            "message": str(exc), "details": {}})
    except Exception as exc:  # a crash is itself an invariant breach
        violations.append({
            "invariant": "trial-exception", "time_s": -1.0,
            "run": str(spec.get("system", "")),
            "message": f"{type(exc).__name__}: {exc}", "details": {}})
    finally:
        obs.uninstall()
        verify.uninstall()
    violations = [v.to_json() for v in verifier.violations] + violations
    return {"violations": violations, "fingerprint": fingerprint}


def _signature(result: Dict[str, object]) -> frozenset:
    return frozenset(v["invariant"] for v in result["violations"])


# ---------------------------------------------------------------------------
# Shrinking (ddmin + param/config simplification)
# ---------------------------------------------------------------------------
class _ShrinkBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _reproduces(spec, mutate, target: frozenset,
                budget: _ShrinkBudget) -> bool:
    if not budget.take():
        return False
    return bool(target & _signature(run_trial(spec, mutate=mutate)))


def _with_plan(spec: Dict[str, object],
               events: List[Dict[str, object]]) -> Dict[str, object]:
    out = dict(spec)
    out["plan"] = list(events)
    return out


def _ddmin_events(spec, mutate, target, budget) -> Dict[str, object]:
    """Classic ddmin over the fault-event list."""
    events = list(spec["plan"])
    granularity = 2
    while len(events) >= 2 and granularity <= len(events):
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            trial_spec = _with_plan(spec, candidate)
            if _reproduces(trial_spec, mutate, target, budget):
                events = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    if len(events) == 1:
        empty = _with_plan(spec, [])
        if _reproduces(empty, mutate, target, budget):
            events = []
    return _with_plan(spec, events)


def _shrink_params(spec, mutate, target, budget) -> Dict[str, object]:
    """Simplify surviving events: shorter windows, milder magnitudes."""
    events = list(spec["plan"])
    for index, event in enumerate(events):
        for patch in ({"duration_s": 1.0}, {"magnitude": 2.0},
                      {"duration_s": 1.0, "magnitude": 2.0}):
            if all(event.get(k) == v for k, v in patch.items()):
                continue
            candidate = dict(event)
            candidate.update(patch)
            try:
                FaultEvent(**candidate)
            except (ValueError, TypeError):
                continue
            trial_events = list(events)
            trial_events[index] = candidate
            if _reproduces(_with_plan(spec, trial_events), mutate, target,
                           budget):
                events = trial_events
                break
    return _with_plan(spec, events)


def _shrink_config(spec, mutate, target, budget) -> Dict[str, object]:
    """Drop whole optional sections that are not needed to reproduce."""
    current = dict(spec)
    for section in ("burst", "tenancy", "cancel"):
        if current.get(section) is None:
            continue
        candidate = dict(current)
        candidate[section] = None
        if _reproduces(candidate, mutate, target, budget):
            current = candidate
    cancel = current.get("cancel")
    if cancel is not None:
        for sub in ("deadline", "retry_budget"):
            if cancel.get(sub) is None:
                continue
            other = "retry_budget" if sub == "deadline" else "deadline"
            if cancel.get(other) is None:
                continue  # dropping both == the section drop above
            candidate = dict(current)
            candidate["cancel"] = dict(cancel)
            candidate["cancel"][sub] = None
            if _reproduces(candidate, mutate, target, budget):
                current = candidate
                cancel = current["cancel"]
    if (current.get("guard") is not None
            and current["guard"].get("admission") is not None):
        candidate = dict(current)
        candidate["guard"] = dict(current["guard"])
        candidate["guard"]["admission"] = None
        if _reproduces(candidate, mutate, target, budget):
            current = candidate
    rel = current["reliability"]
    if rel.get("hedge_after_s") is not None:
        candidate = dict(current)
        candidate["reliability"] = dict(rel)
        candidate["reliability"]["hedge_after_s"] = None
        if _reproduces(candidate, mutate, target, budget):
            current = candidate
    if current["plan"]:
        last = max(float(e["time_s"]) + float(e["duration_s"])
                   for e in current["plan"])
        short = round(last + 2.0, 3)
        if short < float(current["duration_s"]):
            candidate = dict(current)
            candidate["duration_s"] = short
            if _reproduces(candidate, mutate, target, budget):
                current = candidate
    return current


def shrink(spec: Dict[str, object], result: Dict[str, object],
           mutate: Optional[str] = None,
           max_tests: int = 64) -> Dict[str, object]:
    """Delta-debug a violating spec to a minimal reproducing one."""
    target = _signature(result)
    budget = _ShrinkBudget(max_tests)
    shrunk = _ddmin_events(spec, mutate, target, budget)
    shrunk = _shrink_params(shrunk, mutate, target, budget)
    shrunk = _shrink_config(shrunk, mutate, target, budget)
    return {
        "spec": shrunk,
        "tests": budget.spent,
        "events_before": len(spec["plan"]),
        "events_after": len(shrunk["plan"]),
    }


# ---------------------------------------------------------------------------
# Artifacts + replay
# ---------------------------------------------------------------------------
def make_artifact(spec, result, shrunk, mutate: Optional[str]
                  ) -> Dict[str, object]:
    final = run_trial(shrunk["spec"], mutate=mutate)
    return {
        "format": ARTIFACT_FORMAT,
        "seed": spec["seed"],
        "trial": spec["trial"],
        "mutate": mutate,
        "spec": shrunk["spec"],
        "violations": final["violations"],
        "fingerprint": final["fingerprint"],
        "shrink": {
            "tests": shrunk["tests"],
            "events_before": shrunk["events_before"],
            "events_after": shrunk["events_after"],
            "original_violations": result["violations"],
        },
    }


def write_artifact(artifact: Dict[str, object], directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    suffix = f"-{artifact['mutate']}" if artifact["mutate"] else ""
    path = os.path.join(
        directory,
        f"fuzz-s{artifact['seed']}-t{artifact['trial']}{suffix}.json")
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def replay(path: str) -> Dict[str, object]:
    """Re-execute an artifact; byte-compares the outcome to the stored one.

    Returns ``{"match": bool, "stored": ..., "replayed": ...}`` where the
    compared documents are the canonical JSON of (violations,
    fingerprint).
    """
    with open(path) as handle:
        artifact = json.load(handle)
    fmt = artifact.get("format") if isinstance(artifact, dict) else None
    if fmt != ARTIFACT_FORMAT:
        raise ValueError(f"format={fmt!r}, expected {ARTIFACT_FORMAT!r}")
    result = run_trial(artifact["spec"], mutate=artifact.get("mutate"))
    stored = json.dumps({"violations": artifact["violations"],
                         "fingerprint": artifact["fingerprint"]},
                        sort_keys=True)
    replayed = json.dumps(result, sort_keys=True)
    return {"match": stored == replayed,
            "stored": stored, "replayed": replayed,
            "violations": result["violations"]}


# ---------------------------------------------------------------------------
# The campaign driver (repro fuzz)
# ---------------------------------------------------------------------------
def campaign(trials: int, seed: int, mutate: Optional[str] = None,
             artifact_dir: Optional[str] = None, max_shrink: int = 64,
             echo=print) -> Dict[str, object]:
    """Run ``trials`` seeded trials; shrink and save every violation."""
    found: List[Dict[str, object]] = []
    for trial in range(trials):
        spec = sample_spec(trial, seed)
        result = run_trial(spec, mutate=mutate)
        names = sorted(_signature(result))
        echo(f"trial {trial:3d}: {len(spec['plan'])} faults,"
             f" {spec['n_servers']} servers,"
             f" util {spec['utilization']:.2f}"
             f"{', ha' if spec['ha'] else ''}"
             f"{', tenancy' if spec['tenancy'] else ''}"
             f" -> {'VIOLATION ' + ','.join(names) if names else 'ok'}")
        if not names:
            continue
        shrunk = shrink(spec, result, mutate=mutate, max_tests=max_shrink)
        artifact = make_artifact(spec, result, shrunk, mutate)
        echo(f"  shrunk {shrunk['events_before']} ->"
             f" {shrunk['events_after']} fault(s) in"
             f" {shrunk['tests']} test runs")
        entry = {"trial": trial, "violations": result["violations"],
                 "artifact": artifact}
        if artifact_dir is not None:
            entry["path"] = write_artifact(artifact, artifact_dir)
            echo(f"  artifact: {entry['path']}")
        found.append(entry)
    return {"trials": trials, "seed": seed, "mutate": mutate,
            "violating_trials": [f["trial"] for f in found],
            "found": found}
