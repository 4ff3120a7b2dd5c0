"""Outside-in spans around the simulator's layer boundaries.

The benchmark never edits the program to trace it. Instead, for a traced
run it replaces a layer's public functions (class attributes or module
attributes) with thin wrappers that open a span on entry and close it on
exit, and puts the originals back afterwards. Spans are aggregated in
memory by their path (the chain of enclosing layers, which names each
span's parent); nothing is written until the run is over.

A layer's *self time* is its spans' duration minus the part of that
interval its child spans cover, so self times partition the traced
window: they sum to the root span's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The root span every traced simulation call runs under. Its self time
#: is the part of the run no layer span claimed.
ROOT = "bench.run"

#: Select every public plain function a class defines itself.
PUBLIC = None

#: (layer, module, class or None for module functions, attributes or
#: PUBLIC). Functions imported by name are patched where they are
#: *used*: ``split_deadlines`` in the workflow controller and
#: ``solve_milp`` in the DPT module.
LAYER_TARGETS: Tuple[Tuple[str, str, Optional[str], Any], ...] = (
    ("sim.dispatch", "repro.sim.engine", "Environment", ("step",)),
    ("core.predictor.predict", "repro.core.predictor", "FrequencyProfile",
     ("predict_t_run", "predict_t_block", "predict_energy")),
    ("core.predictor.observe", "repro.core.predictor", "FrequencyProfile",
     ("observe",)),
    ("core.dpt", "repro.core.workflow_controller", None,
     ("split_deadlines",)),
    ("core.milp", "repro.core.dpt", None, ("solve_milp",)),
    ("core.dispatcher", "repro.core.dispatcher", "EnergyAwareDispatcher",
     ("register", "record_completion")),
    ("core.node.refresh", "repro.core.node", "EcoFaaSNode", ("refresh",)),
    ("platform.cluster", "repro.platform.cluster", "Cluster",
     ("submit_workflow", "pick_node")),
    ("platform.node", "repro.core.node", "EcoFaaSNode", ("submit",)),
    ("platform.node", "repro.baselines.partitioned", "PartitionedNode",
     ("submit",)),
    ("platform.scheduler", "repro.platform.scheduler", "CorePoolScheduler",
     PUBLIC),
    ("hardware", "repro.hardware.core", "Core",
     ("start", "preempt", "set_frequency")),
    ("hardware", "repro.hardware.server", "Server", ("power_snapshot_w",)),
    ("workloads.sample", "repro.workloads.model", "FunctionModel",
     ("sample_invocation", "sample_cold_start_work")),
    ("guard", "repro.guard.runtime", "GuardRuntime", PUBLIC),
    ("cancel", "repro.cancel.runtime", "CancelRuntime", PUBLIC),
    ("ha", "repro.ha.runtime", "HARuntime", PUBLIC),
    ("obs.trace", "repro.obs.tracer", "Tracer", PUBLIC),
    ("obs.ledger", "repro.obs.ledger", "EnergyLedger", PUBLIC),
    ("obs.audit", "repro.obs.audit", "AuditLog", PUBLIC),
    ("obs.fingerprint", "repro.obs.fingerprint", "FingerprintRecorder",
     PUBLIC),
    ("obs.export", "repro.obs.export", None,
     ("write_chrome_trace", "write_epoch_metrics")),
)

#: Every layer name, in presentation order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))


class SpanRecorder:
    """Exclusive-time span aggregation over a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: List[Tuple[str, ...]] = []
        self._mark = 0.0
        #: Exclusive seconds per span path (root first).
        self.self_s: Dict[Tuple[str, ...], float] = {}
        #: Span count per path.
        self.calls: Dict[Tuple[str, ...], int] = {}
        #: Free-form totals recorded at span boundaries.
        self.counts: Dict[str, float] = {}

    def open(self, name: str) -> None:
        now = self._clock()
        if self._stack:
            top = self._stack[-1]
            self.self_s[top] = self.self_s.get(top, 0.0) + (now - self._mark)
            path = top + (name,)
        else:
            path = (name,)
        self._stack.append(path)
        self.calls[path] = self.calls.get(path, 0) + 1
        self._mark = now

    def close(self) -> None:
        now = self._clock()
        path = self._stack.pop()
        self.self_s[path] = self.self_s.get(path, 0.0) + (now - self._mark)
        self._mark = now

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Calls, self seconds and inclusive seconds per layer, wherever
        it was entered. A layer's inclusive time is the self time of
        every path through it, each path counted once."""
        rows: Dict[str, Dict[str, float]] = {}
        for path, calls in self.calls.items():
            row = rows.setdefault(path[-1], {"calls": 0, "self_s": 0.0,
                                             "inclusive_s": 0.0})
            row["calls"] += calls
        for path, seconds in self.self_s.items():
            rows[path[-1]]["self_s"] += seconds
            for layer in set(path):
                rows[layer]["inclusive_s"] += seconds
        return rows

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def collapsed(self) -> str:
        """Collapsed stacks, one ``a;b;c <microseconds>`` line per path."""
        lines = [f"{';'.join(path)} {round(seconds * 1e6)}"
                 for path, seconds in sorted(self.self_s.items())
                 if round(seconds * 1e6) > 0]
        return "".join(line + "\n" for line in lines)


def _span_wrapper(recorder: SpanRecorder, layer: str,
                  fn: Callable) -> Callable:
    @functools.wraps(fn)
    def span(*args, **kwargs):
        recorder.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close()
    return span


def _milp_wrapper(recorder: SpanRecorder, layer: str,
                  fn: Callable) -> Callable:
    @functools.wraps(fn)
    def span(*args, **kwargs):
        recorder.open(layer)
        try:
            solution = fn(*args, **kwargs)
        finally:
            recorder.close()
        recorder.count("core.milp.nodes", solution.nodes_explored)
        return solution
    return span


def resolve_targets() -> List[Tuple[str, Any, str]]:
    """(layer, owner, attribute) for every function the tracer wraps."""
    resolved = []
    for layer, module_name, class_name, attrs in LAYER_TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if attrs is PUBLIC:
            attrs = sorted(name for name, value in vars(owner).items()
                           if inspect.isfunction(value)
                           and not name.startswith("_"))
        for attr in attrs:
            if not inspect.isfunction(vars(owner).get(attr)):
                raise TypeError(f"{module_name}.{class_name or ''}"
                                f" has no plain function {attr!r} to wrap")
            resolved.append((layer, owner, attr))
    return resolved


def install(recorder: SpanRecorder) -> List[Tuple[Any, str, Callable]]:
    """Wrap every layer target; returns the patches :func:`uninstall` undoes."""
    patches = []
    try:
        for layer, owner, attr in resolve_targets():
            original = vars(owner)[attr]
            make = _milp_wrapper if layer == "core.milp" else _span_wrapper
            setattr(owner, attr, make(recorder, layer, original))
            patches.append((owner, attr, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Tuple[Any, str, Callable]]) -> None:
    """Put back every original function, in reverse order of patching."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
