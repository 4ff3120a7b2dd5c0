"""``repro profile``: the pinned self-profiling scaling scenario.

:func:`run_profile` runs one pinned EcoFaaS workload at a ladder of
trace-duration multipliers with the kernel self-profiler
(``repro.obs.prof``) armed, and returns per-scale hotspot tables,
component trees, collapsed stacks and the wall-conservation ratio. The
repository's end-to-end benchmark is ``bench/ecobench.py``; this module
only serves the profiler.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import EcoFaaSSystem
from repro.core.config import EcoFaaSConfig
from repro.experiments.common import make_load_trace, run_cluster
from repro.obs import prof as prof_mod
from repro.platform.cluster import ClusterConfig


def _measure(cluster) -> Dict[str, Any]:
    summary = dict(cluster.metrics.bench_summary())
    summary["energy_j"] = round(cluster.total_energy_j, 6)
    return summary


def _profile_scenario(scale: float, quick: bool):
    """One pinned profiling run at ``scale``× the base trace duration.

    EcoFaaS under medium load — the configuration that exercises every
    instrumented component (predictor, DPT/MILP splits, energy
    integration, pool retunes) without the fault machinery's extra
    variance. Seeds pinned so the simulated metrics double as a
    determinism check against an unprofiled run.
    """
    duration = (8.0 if quick else 20.0) * scale
    n_servers = 2 if quick else 3
    trace = make_load_trace("medium", n_servers, duration, seed=7)
    return run_cluster(EcoFaaSSystem(EcoFaaSConfig()), trace,
                       ClusterConfig(n_servers=n_servers, seed=7))


def run_profile(scales: Tuple[float, ...] = (1, 3, 10),
                quick: bool = True,
                progress: Optional[Callable[[str], None]] = None
                ) -> Dict[str, Any]:
    """Profile the pinned scenario at each trace-duration multiplier.

    Returns the PROFILE document: one entry per scale with the hotspot
    rows, component tree, collapsed-stack text, kernel counters, and the
    wall-conservation ratio (self-times over externally measured wall).
    """
    entries: List[Dict[str, Any]] = []
    for scale in scales:
        if progress is not None:
            progress(f"profile: running scale {scale:g}x ...")
        profiler = prof_mod.install(prof_mod.Profiler())
        try:
            t0 = time.perf_counter()
            profiler.start()
            cluster = _profile_scenario(scale, quick)
            profiler.stop()
            wall = time.perf_counter() - t0
        finally:
            prof_mod.uninstall()
        entries.append({
            "scale": scale,
            "wall_s": round(wall, 4),
            "profiled_s": round(profiler.profiled_s(), 4),
            "wall_conservation": round(
                profiler.profiled_s() / wall, 4) if wall else 0.0,
            "events_per_s": round(profiler.pops / wall, 1) if wall else 0.0,
            "sim_metrics": _measure(cluster),
            "counters": profiler.counters(),
            "components": profiler.by_component(),
            "tree": profiler.tree(),
            "collapsed": profiler.collapsed(),
        })
    return {
        "source": "repro profile (EcoFaaS reproduction)",
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "scales": entries,
    }


def default_profile_collapsed_path(document: Dict[str, Any],
                                   scale: float) -> str:
    return f"PROFILE_{document['date']}.scale{scale:g}.collapsed"
