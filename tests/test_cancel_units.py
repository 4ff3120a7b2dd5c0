"""repro.cancel units: config validation and retry-budget accounting.

The load-bearing property is token conservation — every token of a
:class:`RetryTokenPool` is in exactly one of {available, spent,
refunded} and the partition sums back to capacity at every instant —
checked both directly and under seeded-random operation sequences
(stdlib ``random``; the property-based satellite of ISSUE 9).
"""

import math
import random

import pytest

from repro.cancel import (
    CancelConfig,
    DeadlineConfig,
    RetryBudget,
    RetryBudgetConfig,
    RetryTokenPool,
)
from repro.cancel.runtime import CancelRuntime
from repro.platform.cluster import ClusterConfig
from repro.platform.metrics import MetricsCollector
from repro.sim import Environment


class TestConfig:
    def test_defaults_arm_every_cancel_point(self):
        deadline = DeadlineConfig()
        assert deadline.slack_s == 0.0
        env = Environment()
        armed = CancelRuntime(env, MetricsCollector(), ClusterConfig(
            cancel=CancelConfig(deadline=deadline)))
        inert = CancelRuntime(env, MetricsCollector(), ClusterConfig())
        assert armed.cancels_attempts and not inert.cancels_attempts
        env.run(until=2.0)
        assert armed.doom_passed(armed.doom_deadline(0.0, 1.0))
        assert not armed.doom_passed(armed.doom_deadline(0.0, 5.0))
        assert not inert.doom_passed(1.0)

    def test_full_arms_both_sections(self):
        config = CancelConfig.full()
        assert config.deadline is not None
        assert config.retry_budget is not None
        partial = CancelConfig.full(retry_budget=None)
        assert partial.deadline is not None
        assert partial.retry_budget is None

    def test_empty_config_arms_nothing(self):
        config = CancelConfig()
        assert config.deadline is None and config.retry_budget is None

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_slack_rejected(self, bad):
        with pytest.raises(ValueError):
            DeadlineConfig(slack_s=bad)

    @pytest.mark.parametrize("kwargs", [
        {"ratio": 0.0}, {"ratio": -0.5}, {"ratio": float("nan")},
        {"window_s": 0.0}, {"window_s": -1.0}, {"floor": -1},
    ])
    def test_bad_budget_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryBudgetConfig(**kwargs)

    def test_configs_are_frozen(self):
        with pytest.raises(AttributeError):
            DeadlineConfig().slack_s = 1.0


class TestRetryTokenPool:
    def test_starts_full_and_conserving(self):
        pool = RetryTokenPool(3)
        assert pool.available == 3 and pool.spent == 0
        assert pool.conserves()

    def test_grant_moves_available_to_spent(self):
        pool = RetryTokenPool(2)
        assert pool.grant() and pool.grant()
        assert not pool.grant()  # exhausted
        assert (pool.available, pool.spent, pool.refunded) == (0, 2, 0)
        assert pool.conserves()

    def test_refund_retires_rather_than_reuses(self):
        pool = RetryTokenPool(1)
        assert pool.grant()
        pool.refund()
        assert (pool.available, pool.spent, pool.refunded) == (0, 0, 1)
        assert not pool.grant()  # the refunded token is NOT reusable
        assert pool.conserves()

    def test_refund_without_grant_raises(self):
        with pytest.raises(RuntimeError):
            RetryTokenPool(1).refund()

    def test_zero_capacity_never_grants(self):
        pool = RetryTokenPool(0)
        assert not pool.grant()
        assert pool.conserves()

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RetryTokenPool(-1)


class TestRetryBudget:
    CFG = RetryBudgetConfig(ratio=0.1, window_s=10.0, floor=2)

    def test_first_window_capacity_is_the_floor(self):
        budget = RetryBudget(self.CFG, now=0.0)
        assert budget.pool.capacity == 2
        assert budget.try_grant(1.0) and budget.try_grant(2.0)
        assert not budget.try_grant(3.0)
        assert budget.denied_total == 1 and budget.granted_total == 2

    def test_window_roll_sizes_capacity_to_first_attempts(self):
        budget = RetryBudget(self.CFG, now=0.0)
        for _ in range(50):
            budget.note_first_attempt(1.0)
        budget.note_first_attempt(10.0)  # crosses the boundary: rolls
        assert budget.rolls == 1
        assert budget.pool.capacity == math.ceil(0.1 * 50)

    def test_floor_applies_to_quiet_windows(self):
        budget = RetryBudget(self.CFG, now=0.0)
        budget.note_first_attempt(1.0)  # 1 first attempt -> ceil(0.1)=1
        assert budget.try_grant(10.5)   # rolled: capacity max(2, 1) == 2
        assert budget.pool.capacity == 2

    def test_idle_gap_rolls_every_crossed_window(self):
        budget = RetryBudget(self.CFG, now=0.0)
        budget.try_grant(35.0)  # 3 boundaries crossed at 10, 20, 30
        assert budget.rolls == 3

    def test_refund_after_roll_only_advances_the_cumulative(self):
        budget = RetryBudget(self.CFG, now=0.0)
        assert budget.try_grant(1.0)
        budget.refund(15.0)  # the granted token's window already rolled
        assert budget.refunded_total == 1
        assert budget.pool.refunded == 0  # fresh pool: nothing to move
        assert budget.pool.conserves()


class TestBudgetProperties:
    """Seeded stdlib-random sequences of note/grant/refund: the pool
    partition must conserve after every operation, and the cumulative
    counters must equal the op-by-op tallies."""

    @pytest.mark.parametrize("seed", range(10))
    def test_conservation_under_random_sequences(self, seed):
        rng = random.Random(seed)
        config = RetryBudgetConfig(
            ratio=rng.choice([0.05, 0.1, 0.25, 0.5]),
            window_s=rng.uniform(0.5, 4.0),
            floor=rng.randint(0, 4))
        now = rng.uniform(0.0, 5.0)
        budget = RetryBudget(config, now=now)
        grants = denies = refunds = firsts = 0
        for _ in range(500):
            now += rng.random() * config.window_s * 0.7
            op = rng.random()
            if op < 0.45:
                budget.note_first_attempt(now)
                firsts += 1
            elif op < 0.85:
                if budget.try_grant(now):
                    grants += 1
                else:
                    denies += 1
            elif grants > refunds:
                budget.refund(now)
                refunds += 1
            pool = budget.pool
            assert pool.conserves(), (seed, pool.__dict__)
            assert (pool.available + pool.spent + pool.refunded
                    == pool.capacity)
        assert budget.granted_total == grants
        assert budget.denied_total == denies
        assert budget.refunded_total == refunds
        # The current window can never hold more spent tokens than were
        # ever granted.
        assert budget.pool.spent <= budget.granted_total

    @pytest.mark.parametrize("seed", range(5))
    def test_grants_bounded_by_window_capacities(self, seed):
        """Total grants can never exceed the sum of every window's
        capacity, each of which is max(floor, ceil(ratio * firsts))."""
        rng = random.Random(1000 + seed)
        config = RetryBudgetConfig(ratio=0.1, window_s=1.0,
                                   floor=rng.randint(1, 3))
        budget = RetryBudget(config, now=0.0)
        now, total_firsts = 0.0, 0
        for _ in range(300):
            now += rng.random() * 0.4
            if rng.random() < 0.5:
                budget.note_first_attempt(now)
                total_firsts += 1
            else:
                budget.try_grant(now)
        # Loose but sound: every window's capacity is at most
        # max(floor, ceil(ratio * all first attempts ever)).
        per_window_max = max(config.floor,
                             math.ceil(config.ratio * total_firsts))
        assert budget.granted_total <= (budget.rolls + 1) * per_window_max
