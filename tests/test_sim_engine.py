"""Unit tests for the discrete-event kernel: clock, ordering, run/step."""

import pytest

from repro.sim import Environment
from repro.sim.engine import EmptySchedule


def test_initial_time_defaults_to_zero():
    assert Environment().now == 0.0


def test_initial_time_can_be_set():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(2.5)
    env.run()
    assert env.now == 2.5


def test_run_until_stops_clock_exactly_at_until():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_processes_events_at_until():
    env = Environment()
    fired = []
    env.timeout(4.0).callbacks.append(lambda ev: fired.append(env.now))
    env.run(until=4.0)
    assert fired == [4.0]


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_events_at_same_time_fire_in_scheduling_order():
    env = Environment()
    order = []
    for i in range(5):
        env.timeout(1.0).callbacks.append(
            lambda ev, i=i: order.append(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_peek_returns_next_event_time():
    env = Environment()
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0


def test_peek_on_empty_heap_is_inf():
    assert Environment().peek() == float("inf")


def test_interleaved_timeouts_process_in_time_order():
    env = Environment()
    times = []
    for delay in [5.0, 1.0, 3.0, 2.0, 4.0]:
        env.timeout(delay).callbacks.append(
            lambda ev: times.append(env.now))
    env.run()
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_event_value_accessible_after_trigger():
    env = Environment()
    ev = env.event()
    ev.succeed("payload")
    assert ev.triggered
    assert ev.ok
    assert ev.value == "payload"


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_failure_surfaces_from_run():
    env = Environment()
    env.event().fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_timeout_carries_value():
    env = Environment()
    got = []
    t = env.timeout(1.0, value=42)
    t.callbacks.append(lambda ev: got.append(ev.value))
    env.run()
    assert got == [42]


def test_call_later_and_events_at_one_time_fire_in_sequence_order():
    env = Environment()
    order = []
    env.timeout(1.0).callbacks.append(lambda ev: order.append("event-1"))
    env.call_later(1.0, order.append, "timer-2")
    env.call_at(1.0, order.append, "timer-3")
    env.timeout(1.0).callbacks.append(lambda ev: order.append("event-4"))
    env.call_later(0.5, order.append, "timer-0")
    env.run()
    assert order == ["timer-0", "event-1", "timer-2", "timer-3", "event-4"]
    assert env.now == 1.0


def test_call_at_keeps_the_callers_absolute_time():
    # A work start 0.2 s after t=0.1 plus a 0.3 s duration: the sum made
    # in that order is not the clock plus the summed delay.
    env = Environment(initial_time=0.1)
    when = (0.1 + 0.2) + 0.3
    assert when != 0.1 + (0.2 + 0.3)
    fired = []
    env.call_at(when, lambda arg: fired.append(env.now))
    env.run()
    assert fired == [when]


def test_call_later_rejects_a_negative_delay():
    env = Environment()
    with pytest.raises(ValueError, match=r"^negative delay -1\.0$"):
        env.call_later(-1.0, print)
    assert env.peek() == float("inf")


def test_call_at_rejects_a_past_time():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError) as info:
        env.call_at(4.0, print)
    assert str(info.value) == "time 4.0 lies in the past (now=5.0)"
    assert "\n" not in str(info.value)
    assert env.peek() == float("inf")


def test_exception_in_a_timer_callback_propagates_out_of_run():
    env = Environment()

    def explode(arg):
        raise KeyError(arg)

    env.call_later(1.0, explode, "lost")
    env.call_later(2.0, explode, "never reached")
    with pytest.raises(KeyError, match="lost"):
        env.run()
    assert env.now == 1.0
    assert env.peek() == 2.0


def test_peek_sees_timer_entries():
    env = Environment()
    env.timeout(3.0)
    env.call_later(2.0, print)
    env.call_at(1.5, print)
    assert env.peek() == 1.5
