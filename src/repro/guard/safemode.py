"""Safe-mode control fallbacks: prediction screening and staleness.

The control plane's predictions can go pathological in exactly the
regimes where they matter most — NaNs out of a degenerate fit, negative
values from a barely-trained MLP, or explosive extrapolations under load
patterns the profile has never seen. :class:`PredictionGuard` screens
every prediction against sanity bounds and substitutes the last
known-good value when one fails, and tracks per-function observation
recency so dispatch can pin to a safe frequency when the Delay-Power
Table has gone stale.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

#: Relative sanity bound against the last known-good prediction.
PREDICTION_REL_MAX = 20.0
#: Absolute sanity bound (seconds or joules, matching the quantity).
PREDICTION_ABS_MAX_S = 600.0
#: Profile staleness bound before frequency pinning, seconds.
DPT_STALENESS_S = 30.0


class PredictionGuard:
    """Screens predictions; tracks profile staleness per function."""

    def __init__(self) -> None:
        #: Last known-good prediction per (function, kind).
        self._known_good: Dict[Tuple[str, str], float] = {}
        #: Last observation time per function (profile freshness).
        self._last_observation_s: Dict[str, float] = {}
        #: Mispredictions caught, per (function, kind).
        self.mispredict_counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Prediction screening
    # ------------------------------------------------------------------
    def _violation(self, value: float, last_good: Optional[float]
                   ) -> Optional[str]:
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        if value < 0:
            return "negative"
        if value > PREDICTION_ABS_MAX_S:
            return "abs_bound"
        if (last_good is not None and last_good > 0
                and value > PREDICTION_REL_MAX * last_good):
            return "rel_bound"
        return None

    def sanitize(self, function_name: str, kind: str,
                 value: float) -> Tuple[float, Optional[str]]:
        """Screen one prediction.

        Returns ``(usable_value, violation)``: a sane ``value`` is
        remembered as the new known-good and passed through
        (``violation`` is None); a pathological one is replaced by the
        last known-good prediction — or 0.0 when the very first
        prediction is already bad, which downstream treats as "no
        estimate" and handles at the top frequency.
        """
        key = (function_name, kind)
        last_good = self._known_good.get(key)
        violation = self._violation(value, last_good)
        if violation is None:
            self._known_good[key] = value
            return value, None
        self.mispredict_counts[key] = self.mispredict_counts.get(key, 0) + 1
        return (last_good if last_good is not None else 0.0), violation

    @property
    def mispredictions(self) -> int:
        return sum(self.mispredict_counts.values())

    # ------------------------------------------------------------------
    # DPT staleness
    # ------------------------------------------------------------------
    def note_observation(self, function_name: str, now: float) -> None:
        """A fresh measurement of ``function_name`` just landed."""
        self._last_observation_s[function_name] = now

    def dpt_stale(self, function_name: str, now: float) -> bool:
        """True when the function's profile is too old to trust.

        A function never observed at all is *not* stale — the dispatcher
        already runs unprofiled functions at the top frequency, so
        pinning would be redundant there.
        """
        seen = self._last_observation_s.get(function_name)
        return seen is not None and now - seen > DPT_STALENESS_S
