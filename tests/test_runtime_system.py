"""Unit tests for the simulated concurrent system and the real-thread tracer."""

from __future__ import annotations

import pytest

from repro.exceptions import RuntimeSystemError
from repro.runtime import (
    ConcurrentSystem,
    TracingSession,
    acquire,
    counter_workload,
    increment,
    read,
    release,
    write,
)


class TestSteps:
    def test_step_constructors(self):
        r = read("x")
        assert not r.is_write and r.function is None
        w = write("x", lambda value: 5)
        assert w.is_write and w.function(None) == 5
        inc = increment("x", 3)
        assert inc.function(4) == 7
        assert inc.function(None) == 3
        assert acquire("lock").is_sync and release("lock").is_sync


class TestConcurrentSystem:
    def test_counter_workload_final_value(self):
        system = counter_workload(num_threads=3, increments=10)
        result = system.run(seed=1)
        assert result.final_values["counter"] == 30
        assert result.sync_objects == {"counter-lock"}
        assert result.num_events == 3 * 10 * 3  # acquire, increment, release

    def test_schedule_respects_program_order(self):
        system = ConcurrentSystem()
        system.add_thread("A", [increment("x"), increment("y"), increment("x")])
        system.add_thread("B", [increment("y")])
        result = system.run(seed=5)
        a_events = result.computation.thread_events("A")
        assert [e.obj for e in a_events] == ["x", "y", "x"]

    def test_every_step_becomes_one_event(self):
        system = ConcurrentSystem()
        system.add_thread("A", [increment("x")] * 4)
        system.add_thread("B", [read("x")] * 3)
        result = system.run(seed=2)
        assert result.num_events == 7
        assert len(result.schedule) == 7
        assert set(result.schedule) == {"A", "B"}

    def test_round_robin_policy_is_deterministic(self):
        def build():
            system = ConcurrentSystem()
            system.add_thread("A", [increment("x")] * 3)
            system.add_thread("B", [increment("x")] * 3)
            return system

        first = build().run(policy="round-robin")
        second = build().run(policy="round-robin")
        assert first.schedule == second.schedule
        assert first.final_values == second.final_values

    def test_random_policy_is_deterministic_given_seed(self):
        system = counter_workload(num_threads=2, increments=5)
        a = system.run(seed=11)
        b = system.run(seed=11)
        assert a.schedule == b.schedule
        assert a.computation == b.computation

    def test_read_steps_do_not_change_values(self):
        system = ConcurrentSystem()
        system.add_object("x", 10)
        system.add_thread("A", [read("x"), increment("x"), read("x")])
        result = system.run(seed=1)
        assert result.final_values["x"] == 11

    def test_errors(self):
        system = ConcurrentSystem()
        with pytest.raises(RuntimeSystemError):
            system.run()
        system.add_thread("A", [increment("x")])
        with pytest.raises(RuntimeSystemError):
            system.add_thread("A", [increment("x")])
        with pytest.raises(RuntimeSystemError):
            system.add_object("A", 0)
        system.add_object("obj", 0)
        with pytest.raises(RuntimeSystemError):
            system.add_thread("obj", [])
        with pytest.raises(RuntimeSystemError):
            system.run(policy="fifo")

    def test_object_names_include_step_targets(self):
        system = ConcurrentSystem()
        system.add_object("declared", 1)
        system.add_thread("A", [increment("implicit")])
        assert set(system.object_names) == {"declared", "implicit"}
        assert system.thread_names == ("A",)


class TestTracingSession:
    def test_single_thread_tracing(self):
        session = TracingSession()
        cell = session.traced_object("cell", 0)
        cell.write(1)
        assert cell.read() == 1
        cell.update(lambda value: value + 5)
        trace = session.finish()
        assert trace.num_events == 3
        assert [e.is_write for e in trace] == [True, False, True]

    def test_traced_object_is_reused_by_name(self):
        session = TracingSession()
        assert session.traced_object("x") is session.traced_object("x")

    def test_recording_after_finish_rejected(self):
        session = TracingSession()
        cell = session.traced_object("cell", 0)
        session.finish()
        with pytest.raises(RuntimeSystemError):
            cell.write(1)

    def test_multithreaded_counter(self):
        session = TracingSession()
        counter = session.traced_object("counter", 0)

        def worker():
            for _ in range(50):
                counter.update(lambda value: value + 1)

        session.run_threads({f"worker-{i}": worker for i in range(4)})
        trace = session.finish()
        assert counter._value == 200  # updates are atomic, so the count is exact
        assert trace.num_events == 200
        assert set(trace.threads) == {f"worker-{i}" for i in range(4)}
        assert trace.objects == ("counter",)
        assert session.events_recorded == 200
