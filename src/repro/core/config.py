"""EcoFaaS tunables (defaults are the paper's chosen operating points)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EcoFaaSConfig:
    """Configuration of the EcoFaaS framework.

    Defaults follow Section VII: the Delay-Power Table refreshes every
    5 s, Core Pools every 2 s. The operating points the paper fixes are
    module constants where they are read:
    :data:`repro.core.profiles.HISTORY_CAPACITY` (History Tables keep
    the last 100 invocations) and
    :data:`~repro.core.profiles.MIN_PROFILE_OBSERVATIONS`;
    :data:`repro.core.node.KERNEL_SWITCH_COST_S` (MSR frequency changes
    cost a few tens of µs), :data:`~repro.core.node.MAX_POOLS` and
    :data:`~repro.core.node.BOOST_PROMOTE_FRACTION`;
    :data:`repro.core.dispatcher.DEADLINE_MARGIN`.
    """

    #: Workflow Controller deadline-recomputation period (Fig. 20 knob).
    t_update_s: float = 5.0
    #: Core-pool resize/retune period (Fig. 20 knob).
    t_refresh_s: float = 2.0
    #: Process context-switch cost inside a pool.
    context_switch_s: float = 5e-6
    #: Use the input-aware MLP predictor (else EWMA only).
    use_input_model: bool = True
    #: Prewarm cold containers off the critical path (Section VI-E1).
    prewarm: bool = True
    #: Bounded execution-time overprediction injected into the predictor
    #: (the Fig. 19 sensitivity knob); 0.2 means +20 %.
    overprediction_error: float = 0.0
    #: Ablation: freeze pool assignment (no elastic refresh).
    elastic: bool = True
    #: Ablation: run-to-completion inside pools instead of
    #: context-switch-on-idle.
    run_to_completion: bool = False
    #: Ablation: disable the MILP split (fall back to proportional).
    use_milp: bool = True

    def __post_init__(self) -> None:
        if self.t_update_s <= 0 or self.t_refresh_s <= 0:
            raise ValueError("update/refresh periods must be positive")
        if self.context_switch_s < 0:
            raise ValueError("context switch cost must be non-negative")
        if self.overprediction_error < 0:
            raise ValueError("overprediction error must be non-negative")
