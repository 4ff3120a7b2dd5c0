"""repro.guard mechanism unit tests: buckets, brownouts, breakers,
prediction screening, checkpoints, and config validation.

Everything here exercises the pure mechanism classes directly — no
simulation. The cluster-level wiring (and the determinism contract) is
covered by ``test_guard_integration.py`` / ``test_guard_determinism.py``.
"""

import pytest

from repro.guard import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    SHED_BROWNOUT,
    SHED_OVERLOAD,
    SHED_RATE_LIMIT,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    CheckpointStore,
    CircuitBreaker,
    GuardConfig,
    PredictionGuard,
    TokenBucket,
)
from repro.guard import checkpoint as checkpoint_module
from repro.guard import safemode as safemode_module


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        bucket = TokenBucket(rate_rps=10.0, burst=3.0)
        assert bucket.peek(0.0) == pytest.approx(3.0)
        # A long idle stretch cannot overfill the bucket.
        assert bucket.peek(100.0) == pytest.approx(3.0)

    def test_take_consumes_and_refills_with_time(self):
        bucket = TokenBucket(rate_rps=2.0, burst=1.0)
        assert bucket.take(0.0)
        assert not bucket.take(0.0)      # empty, same instant
        assert not bucket.take(0.4)      # 0.8 tokens: still short of one
        assert bucket.take(0.5)          # exactly refilled
        assert not bucket.take(0.5)

    def test_sustained_rate_is_enforced(self):
        bucket = TokenBucket(rate_rps=5.0, burst=1.0)
        admitted = sum(1 for i in range(100) if bucket.take(i * 0.01))
        # 1 s at 100 arrivals/s through a 5 rps bucket: burst + refill.
        assert admitted <= 1 + 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=1.0, burst=0.5)


class TestAdmissionController:
    def controller(self, **overrides):
        config = dict(rate_rps=100.0, burst=100.0,
                      brownout_ewt_s=(1.0, 3.0), best_effort=("BE",))
        config.update(overrides)
        return AdmissionController(AdmissionConfig(**config))

    def test_brownout_levels(self):
        ctrl = self.controller()
        assert ctrl.brownout_level(0.0) == 0
        assert ctrl.brownout_level(0.99) == 0
        assert ctrl.brownout_level(1.0) == 1
        assert ctrl.brownout_level(2.9) == 1
        assert ctrl.brownout_level(3.0) == 2

    def test_slo_work_is_never_shed_below_level_2(self):
        ctrl = self.controller(rate_rps=1.0, burst=1.0)
        # Even with an empty bucket, SLO-bearing work sails through at
        # levels 0 and 1 — the structural zero-shed-sub-saturation rule.
        for i in range(50):
            assert ctrl.admit("SLO", now=0.0, ewt_per_core_s=2.0) is None
        assert ctrl.shed_counts == {}

    def test_best_effort_is_shed_first(self):
        ctrl = self.controller()
        assert ctrl.admit("BE", now=0.0, ewt_per_core_s=0.0) is None
        assert ctrl.admit("BE", now=0.0, ewt_per_core_s=1.5) == SHED_BROWNOUT
        assert ctrl.admit("SLO", now=0.0, ewt_per_core_s=1.5) is None
        assert ctrl.shed_counts == {("BE", SHED_BROWNOUT): 1}

    def test_best_effort_is_bucket_limited_even_at_level_0(self):
        ctrl = self.controller(rate_rps=1.0, burst=1.0)
        assert ctrl.admit("BE", now=0.0, ewt_per_core_s=0.0) is None
        assert (ctrl.admit("BE", now=0.0, ewt_per_core_s=0.0)
                == SHED_RATE_LIMIT)

    def test_slo_work_is_rate_limited_at_level_2(self):
        ctrl = self.controller(rate_rps=1.0, burst=1.0)
        assert ctrl.admit("SLO", now=0.0, ewt_per_core_s=5.0) is None
        assert (ctrl.admit("SLO", now=0.0, ewt_per_core_s=5.0)
                == SHED_OVERLOAD)
        # The brownout clearing restores unconditional admission.
        assert ctrl.admit("SLO", now=0.0, ewt_per_core_s=0.0) is None
        assert ctrl.level == 0

    def test_buckets_are_per_benchmark(self):
        ctrl = self.controller(rate_rps=1.0, burst=1.0)
        assert ctrl.admit("A", now=0.0, ewt_per_core_s=5.0) is None
        # B has its own untouched bucket.
        assert ctrl.admit("B", now=0.0, ewt_per_core_s=5.0) is None
        assert ctrl.admit("A", now=0.0, ewt_per_core_s=5.0) == SHED_OVERLOAD


class TestCircuitBreaker:
    def breaker(self, **overrides):
        config = dict(window_s=10.0, min_failures=3, failure_rate=0.5,
                      open_for_s=5.0)
        config.update(overrides)
        return CircuitBreaker(BreakerConfig(**config))

    def test_stays_closed_below_min_failures(self):
        breaker = self.breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        assert breaker.state == CLOSED
        assert breaker.allow(0.2)

    def test_trips_on_failure_threshold(self):
        breaker = self.breaker()
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.state == OPEN
        assert breaker.open_count == 1
        assert not breaker.allow(0.3)

    def test_failure_rate_guards_against_busy_functions(self):
        # 3 failures among 20 attempts is a 15% failure rate: below the
        # 50% bar, the breaker must not trip.
        breaker = self.breaker()
        for i in range(17):
            breaker.record_success(i * 0.1)
        for t in (1.8, 1.9, 2.0):
            breaker.record_failure(t)
        assert breaker.state == CLOSED

    def test_window_prunes_old_failures(self):
        breaker = self.breaker(window_s=1.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.1)
        # The first two have aged out by t=2: only one failure in window.
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = self.breaker(open_for_s=5.0)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert not breaker.allow(4.9)            # still cooling down
        assert breaker.allow(5.3)                # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(5.4)            # only one probe in flight
        breaker.record_success(5.5)
        assert breaker.state == CLOSED
        assert breaker.allow(5.6)

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker = self.breaker(open_for_s=5.0)
        for t in (0.0, 0.1, 0.2):
            breaker.record_failure(t)
        assert breaker.allow(5.3)
        breaker.record_failure(5.5)              # the probe failed
        assert breaker.state == OPEN
        assert breaker.open_count == 2
        assert not breaker.allow(10.0)           # cooldown restarted at 5.5
        assert breaker.allow(10.6)


class TestPredictionGuard:
    @pytest.fixture(autouse=True)
    def tight_bounds(self, monkeypatch):
        monkeypatch.setattr(safemode_module, "PREDICTION_REL_MAX", 10.0)
        monkeypatch.setattr(safemode_module, "PREDICTION_ABS_MAX_S", 100.0)

    def guard(self):
        return PredictionGuard()

    @pytest.mark.parametrize("bad, violation", [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (-0.5, "negative"),
        (101.0, "abs_bound"),
    ], ids=["nan", "inf", "negative", "abs"])
    def test_pathological_values_fall_back_to_known_good(self, bad,
                                                         violation):
        guard = self.guard()
        assert guard.sanitize("f", "t_run", 2.0) == (2.0, None)
        assert guard.sanitize("f", "t_run", bad) == (2.0, violation)
        assert guard.mispredictions == 1

    def test_relative_bound_catches_explosions(self):
        guard = self.guard()
        guard.sanitize("f", "t_run", 2.0)
        value, violation = guard.sanitize("f", "t_run", 25.0)  # > 10x
        assert (value, violation) == (2.0, "rel_bound")
        # 19.0 is within 10x of known-good 2.0 and becomes the new anchor.
        assert guard.sanitize("f", "t_run", 19.0) == (19.0, None)

    def test_first_ever_bad_prediction_degrades_to_zero(self):
        guard = self.guard()
        value, violation = guard.sanitize("f", "t_run", float("nan"))
        assert value == 0.0 and violation == "nan"

    def test_known_good_is_per_function_and_kind(self):
        guard = self.guard()
        guard.sanitize("f", "t_run", 2.0)
        guard.sanitize("g", "t_run", 5.0)
        assert guard.sanitize("g", "t_run", -1.0)[0] == 5.0
        assert guard.sanitize("f", "energy", -1.0)[0] == 0.0  # distinct kind

    def test_dpt_staleness(self, monkeypatch):
        monkeypatch.setattr(safemode_module, "DPT_STALENESS_S", 5.0)
        guard = self.guard()
        assert not guard.dpt_stale("f", now=100.0)  # never seen: not stale
        guard.note_observation("f", now=100.0)
        assert not guard.dpt_stale("f", now=104.0)
        assert guard.dpt_stale("f", now=106.0)
        guard.note_observation("f", now=106.0)      # fresh data unpins
        assert not guard.dpt_stale("f", now=107.0)


class TestCheckpointStore:
    def store(self):
        return CheckpointStore()

    def test_take_and_fresh(self):
        store = self.store()
        assert store.take(0, 5.0, {"targets": {3.0: 4}})
        checkpoint = store.fresh(0, 6.0)
        assert checkpoint is not None
        assert checkpoint.taken_at_s == 5.0
        assert checkpoint.state == {"targets": {3.0: 4}}
        assert store.taken == 1

    def test_none_state_is_a_no_op(self):
        store = self.store()
        assert not store.take(0, 5.0, None)
        assert store.fresh(0, 5.0) is None
        assert store.taken == 0

    def test_stale_checkpoint_is_withheld(self, monkeypatch):
        monkeypatch.setattr(checkpoint_module, "MAX_STALENESS_S", 2.0)
        store = self.store()
        store.take(0, 5.0, {"x": 1})
        assert store.fresh(0, 7.0) is not None
        assert store.fresh(0, 7.1) is None       # older than the bound
        assert store.latest(0) is not None       # but still inspectable

    def test_latest_wins(self):
        store = self.store()
        store.take(0, 1.0, {"v": 1})
        store.take(0, 2.0, {"v": 2})
        assert store.fresh(0, 2.5).state == {"v": 2}
        assert store.taken == 2

    def test_checkpoints_are_per_node(self):
        store = self.store()
        store.take(0, 1.0, {"v": 1})
        assert store.fresh(1, 1.5) is None


class TestGuardConfigValidation:
    def test_admission_rejections(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate_rps=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(rate_rps=float("nan"))
        with pytest.raises(ValueError):
            AdmissionConfig(burst=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(brownout_ewt_s=(3.0, 1.0))   # low > high
        with pytest.raises(ValueError):
            AdmissionConfig(brownout_ewt_s=(0.0, 1.0))   # low must be > 0
        with pytest.raises(ValueError):
            AdmissionConfig(brownout_ewt_s=(1.0,))

    def test_breaker_rejections(self):
        with pytest.raises(ValueError):
            BreakerConfig(window_s=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(window_s=float("inf"))
        with pytest.raises(ValueError):
            BreakerConfig(min_failures=0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_rate=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_rate=1.5)
        with pytest.raises(ValueError):
            BreakerConfig(open_for_s=-1.0)

    def test_full_enables_every_section(self):
        config = GuardConfig.full()
        assert config.admission is not None
        assert config.breaker is not None
        assert config.safe_mode is True
        assert config.checkpoint is True
        # Overrides replace exactly one section.
        partial = GuardConfig.full(breaker=None)
        assert partial.breaker is None
        assert partial.admission is not None

    def test_default_is_all_off(self):
        config = GuardConfig()
        assert (config.admission, config.breaker, config.safe_mode,
                config.checkpoint) == (None, None, False, False)
