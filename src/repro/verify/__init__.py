"""repro.verify — cross-layer invariant monitors and chaos fuzzing.

Two halves:

* :mod:`repro.verify.invariants` — online monitors (clock monotonicity,
  energy conservation/monotonicity, exactly-once workflow lifecycle,
  breaker state-machine legality, HA epoch fencing, tenant budget and
  power-cap bounds) hooked through ``Environment.verify``. NULL by
  default: verification-off runs are bit-identical to the stored seed
  fingerprints.
* :mod:`repro.verify.fuzz` — the seeded chaos fuzzer behind
  ``repro fuzz``: samples random fault schedules + config draws, runs
  each trial with every invariant armed, and delta-debugs any violating
  schedule down to a minimal replayable JSON artifact.

Like the tracer in :mod:`repro.obs`, an active verifier is
installed globally so experiment modules can pick it up without
plumbing it through every ``run()`` signature.

NB: ``repro.verify.fuzz`` and ``repro.verify.mutate`` are deliberately
NOT imported here — they import the experiment harness, which imports
the sim kernel, which imports this package. The CLI imports them
lazily.
"""

from typing import Optional

from repro.verify.invariants import (
    BREAKER_STATES,
    LEGAL_BREAKER_TRANSITIONS,
    NULL_VERIFIER,
    NullVerifier,
    Verifier,
    Violation,
)

_ACTIVE: Optional[Verifier] = None


def install(verifier: Verifier) -> Verifier:
    """Make ``verifier`` the process-wide active verifier."""
    global _ACTIVE
    _ACTIVE = verifier
    return verifier


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[Verifier]:
    """The installed verifier, or None when verification is off."""
    return _ACTIVE


__all__ = [
    "BREAKER_STATES",
    "LEGAL_BREAKER_TRANSITIONS",
    "NULL_VERIFIER",
    "NullVerifier",
    "Verifier",
    "Violation",
    "install",
    "uninstall",
    "active",
]
