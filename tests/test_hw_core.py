"""Tests for the simulated core: execution, preemption, DVFS, energy."""

import pytest

from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.sim import Environment


def make_core(freq=3.0):
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    core = Core(env, core_id=0, power=power, meter=meter, frequency_ghz=freq)
    return env, meter, power, core


class Sink:
    """Collects the per-run accounting the core reports."""

    def __init__(self):
        self.run_seconds = 0.0
        self.energy_j = 0.0

    def record_run(self, dt, joules):
        self.run_seconds += dt
        self.energy_j += joules


def test_run_to_completion_takes_expected_time():
    env, _, _, core = make_core(freq=3.0)
    done = []
    work = WorkUnit(gcycles=3.0, mem_seconds=0.5)  # 1.5 s at 3 GHz
    core.start(work, consumer="f", on_complete=lambda c: done.append(env.now))
    env.run()
    assert done == [pytest.approx(1.5)]
    assert not core.busy
    assert core.completed_runs == 1


def test_busy_core_rejects_second_start():
    env, _, _, core = make_core()
    core.start(WorkUnit(3.0), "f", lambda c: None)
    with pytest.raises(RuntimeError):
        core.start(WorkUnit(1.0), "g", lambda c: None)


def test_pre_overhead_delays_completion():
    env, meter, power, core = make_core(freq=3.0)
    done = []
    core.start(WorkUnit(gcycles=3.0), "f",
               on_complete=lambda c: done.append(env.now),
               pre_overhead_s=0.5)
    env.run()
    assert done == [pytest.approx(1.5)]  # 0.5 overhead + 1.0 work
    # Overhead energy lands in the dvfs_overhead component.
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(3.0) * 0.5)


def test_active_energy_attributed_to_consumer():
    env, meter, power, core = make_core(freq=3.0)
    sink = Sink()
    core.start(WorkUnit(gcycles=3.0), "funcA",
               on_complete=lambda c: None, sink=sink)
    env.run()
    expected = (power.core_active_power(3.0) + power.dram_active_power(1)) * 1.0
    assert meter.consumer_j("funcA") == pytest.approx(expected)
    assert sink.energy_j == pytest.approx(expected)
    assert sink.run_seconds == pytest.approx(1.0)


def test_idle_energy_accrues_between_runs():
    env, meter, power, core = make_core()
    env.run(until=2.0)
    core.finalize()
    assert meter.component_j("core_idle") == pytest.approx(
        power.core_idle_power() * 2.0)


def test_preempt_returns_partially_consumed_work():
    env, _, _, core = make_core(freq=3.0)
    work = WorkUnit(gcycles=6.0)  # 2 s at 3 GHz
    core.start(work, "f", on_complete=lambda c: pytest.fail("must not finish"))
    env.run(until=0.5)
    remaining = core.preempt()
    assert remaining is work
    assert remaining.duration(3.0) == pytest.approx(1.5)
    assert not core.busy
    env.run()  # stale completion timeout must not fire
    assert core.completed_runs == 0


def test_preempt_idle_core_raises():
    _, _, _, core = make_core()
    with pytest.raises(RuntimeError):
        core.preempt()


def test_preempted_work_resumes_and_finishes_elsewhere():
    env, _, _, core = make_core(freq=3.0)
    finished = []
    work = WorkUnit(gcycles=6.0)
    core.start(work, "f", on_complete=lambda c: None)
    env.run(until=1.0)
    remaining = core.preempt()
    core.start(remaining, "f", on_complete=lambda c: finished.append(env.now))
    env.run()
    assert finished == [pytest.approx(2.0)]


def test_preempt_during_pre_overhead_returns_untouched_work():
    env, meter, power, core = make_core(freq=3.0)
    work = WorkUnit(gcycles=3.0)
    core.start(work, "f", on_complete=lambda c: None, pre_overhead_s=1.0)
    env.run(until=0.4)
    remaining = core.preempt()
    assert remaining.gcycles == pytest.approx(3.0)
    env.run(until=1.0)
    core.finalize()
    # Only the overhead that ran is charged; the core idles after it.
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(3.0) * 0.4)
    assert meter.component_j("core_active") == 0.0
    assert meter.component_j("core_idle") == pytest.approx(
        power.core_idle_power() * 0.6)
    env.run()
    assert core.completed_runs == 0


def test_set_frequency_while_idle_is_immediate():
    env, meter, power, core = make_core(freq=3.0)
    core.set_frequency(1.2, cost_s=50e-6)
    assert core.frequency == 1.2
    assert core.frequency_switches == 1
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(1.2) * 50e-6)


def test_set_frequency_noop_when_equal():
    _, _, _, core = make_core(freq=3.0)
    core.set_frequency(3.0, cost_s=1.0)
    assert core.frequency_switches == 0


def test_set_frequency_while_busy_rescales_completion():
    env, _, _, core = make_core(freq=3.0)
    finished = []
    core.start(WorkUnit(gcycles=6.0), "f",
               on_complete=lambda c: finished.append(env.now))
    env.run(until=1.0)        # 3 gcycles consumed, 3 remain
    core.set_frequency(1.5)   # remaining 3 gcycles now take 2 s
    env.run()
    assert finished == [pytest.approx(3.0)]


def test_set_frequency_while_busy_with_cost_stalls_job():
    env, meter, power, core = make_core(freq=3.0)
    finished = []
    core.start(WorkUnit(gcycles=6.0), "f",
               on_complete=lambda c: finished.append(env.now))
    env.run(until=1.0)
    core.set_frequency(1.5, cost_s=0.25)
    env.run()
    assert finished == [pytest.approx(1.0 + 0.25 + 2.0)]
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(1.5) * 0.25)


def test_remaining_time_reflects_progress_and_frequency():
    env, _, _, core = make_core(freq=3.0)
    core.start(WorkUnit(gcycles=6.0), "f", on_complete=lambda c: None)
    assert core.remaining_time() == pytest.approx(2.0)
    env.run(until=0.5)
    assert core.remaining_time() == pytest.approx(1.5)


def test_remaining_time_zero_when_idle():
    _, _, _, core = make_core()
    assert core.remaining_time() == 0.0


def test_energy_conservation_across_preemption():
    """Total active energy must match power x total active time whether or
    not the run was preempted in the middle."""
    env, meter, power, core = make_core(freq=3.0)
    work = WorkUnit(gcycles=6.0)
    core.start(work, "f", on_complete=lambda c: None)
    env.run(until=0.7)
    remaining = core.preempt()
    env.run(until=1.0)  # idle gap
    core.start(remaining, "f", on_complete=lambda c: None)
    env.run()
    core.finalize()
    assert meter.component_j("core_active") == pytest.approx(
        power.core_active_power(3.0) * 2.0)
    assert meter.component_j("core_idle") == pytest.approx(
        power.core_idle_power() * 0.3)


def test_invalid_arguments():
    env, meter, power, _ = make_core()
    with pytest.raises(ValueError):
        Core(env, 0, power, meter, frequency_ghz=0.0)
    _, _, _, core = make_core()
    with pytest.raises(ValueError):
        core.start(WorkUnit(1.0), "f", lambda c: None, pre_overhead_s=-1.0)
    with pytest.raises(ValueError):
        core.set_frequency(-1.0)
    with pytest.raises(ValueError):
        core.set_frequency(2.0, cost_s=-0.1)


def test_overhead_and_work_split_into_dvfs_overhead_and_core_active():
    env, meter, power, core = make_core(freq=3.0)
    sink = Sink()
    core.start(WorkUnit(gcycles=3.0), "f", on_complete=lambda c: None,
               sink=sink, pre_overhead_s=0.5)
    env.run(until=0.2)
    core.finalize()  # an accrual inside the overhead closes part of it
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(3.0) * 0.2)
    assert meter.component_j("core_active") == 0.0
    env.run()
    core.finalize()
    assert env.now == pytest.approx(1.5)
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(3.0) * 0.5)
    assert meter.component_j("core_active") == pytest.approx(
        power.core_active_power(3.0) * 1.0)
    assert meter.component_j("dram") == pytest.approx(
        power.dram_active_power(1) * 1.0)
    # Only the work itself is the consumer's run time and energy.
    assert sink.run_seconds == pytest.approx(1.0)
    assert meter.consumer_j("f") == pytest.approx(
        (power.core_active_power(3.0) + power.dram_active_power(1)) * 1.0)


def test_remaining_time_across_the_end_of_the_overhead():
    env, _, _, core = make_core(freq=3.0)
    core.start(WorkUnit(gcycles=3.0), "f", on_complete=lambda c: None,
               pre_overhead_s=0.5)
    expected = {0.0: 1.5, 0.2: 1.3, 0.5: 1.0, 0.75: 0.75, 1.5: 0.0}
    for t, remaining in expected.items():
        env.run(until=t)
        assert core.remaining_time() == pytest.approx(remaining), t


def test_stale_completion_after_in_overhead_preemption_is_ignored():
    env, _, _, core = make_core(freq=3.0)
    first, second = [], []
    core.start(WorkUnit(gcycles=3.0), "f",
               on_complete=lambda c: first.append(env.now),
               pre_overhead_s=1.0)  # its completion timer is set for t=2
    env.run(until=0.4)
    core.preempt()
    # A longer job takes the core at once and runs past t=2.
    core.start(WorkUnit(gcycles=6.0), "g",
               on_complete=lambda c: second.append(env.now))
    env.run()
    assert first == []
    assert second == [pytest.approx(2.4)]
    assert core.completed_runs == 1


@pytest.mark.parametrize("cost_s", [0.25, 0.0])
def test_set_frequency_during_pre_overhead_replaces_it(cost_s):
    env, meter, power, core = make_core(freq=3.0)
    finished = []
    core.start(WorkUnit(gcycles=6.0), "f",
               on_complete=lambda c: finished.append(env.now),
               pre_overhead_s=1.0)
    env.run(until=0.4)
    core.set_frequency(1.5, cost_s=cost_s)
    assert core.remaining_time() == pytest.approx(cost_s + 4.0)
    env.run()
    core.finalize()
    # No work retired before the switch: all 6 gcycles run at 1.5 GHz
    # after the stall; the rest of the old overhead is dropped.
    assert finished == [pytest.approx(0.4 + cost_s + 4.0)]
    assert meter.component_j("dvfs_overhead") == pytest.approx(
        power.core_active_power(3.0) * 0.4
        + power.core_active_power(1.5) * cost_s)
    assert meter.component_j("core_active") == pytest.approx(
        power.core_active_power(1.5) * 4.0)
