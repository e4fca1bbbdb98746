"""Unit tests for the happens-before race detector."""

from __future__ import annotations

from repro.computation import ComputationBuilder
from repro.runtime import ConcurrentSystem, RaceDetector, acquire, detect_races, increment, release


def build_trace(steps):
    """steps: list of (thread, obj, is_write) triples in interleaving order."""
    builder = ComputationBuilder()
    for thread, obj, is_write in steps:
        builder.append(thread, obj, is_write=is_write)
    return builder.build()


class TestBasicVerdicts:
    def test_unsynchronised_writes_race(self):
        trace = build_trace([("A", "x", True), ("B", "x", True)])
        report = detect_races(trace, sync_objects=[])
        assert report.race_count == 1
        race = report.races[0]
        assert race.obj == "x"
        assert {race.first.thread, race.second.thread} == {"A", "B"}
        assert "race on" in race.describe()

    def test_read_read_is_not_a_race(self):
        trace = build_trace([("A", "x", False), ("B", "x", False)])
        report = detect_races(trace, sync_objects=[])
        assert report.race_count == 0

    def test_same_thread_accesses_never_race(self):
        trace = build_trace([("A", "x", True), ("A", "x", True)])
        report = detect_races(trace, sync_objects=[])
        assert report.race_count == 0
        assert report.checked_pairs == 0

    def test_write_read_conflict_detected(self):
        trace = build_trace([("A", "x", True), ("B", "x", False)])
        report = detect_races(trace, sync_objects=[])
        assert report.race_count == 1

    def test_lock_protected_accesses_do_not_race(self):
        # A: acquire L, write x, release L;  B: acquire L, write x, release L.
        trace = build_trace(
            [
                ("A", "L", True),
                ("A", "x", True),
                ("A", "L", True),
                ("B", "L", True),
                ("B", "x", True),
                ("B", "L", True),
            ]
        )
        report = detect_races(trace, sync_objects=["L"])
        assert report.race_count == 0
        assert report.checked_pairs == 1

    def test_unrelated_lock_does_not_order_accesses(self):
        # Both threads lock *different* locks around their write: still a race.
        trace = build_trace(
            [
                ("A", "L1", True),
                ("A", "x", True),
                ("A", "L1", True),
                ("B", "L2", True),
                ("B", "x", True),
                ("B", "L2", True),
            ]
        )
        report = detect_races(trace, sync_objects=["L1", "L2"])
        assert report.race_count == 1

    def test_release_before_write_does_not_order(self):
        # A releases the lock *before* writing x; B acquires it afterwards.
        # The write is therefore concurrent with B's access: a race, even
        # though both threads used the same lock object.
        trace = build_trace(
            [
                ("A", "L", True),   # A acquire/release (single sync op)
                ("A", "x", True),   # A writes x after its last sync op
                ("B", "L", True),   # B syncs on L (ordered after A's L op)
                ("B", "x", True),   # B writes x
            ]
        )
        report = detect_races(trace, sync_objects=["L"])
        assert report.race_count == 1


class TestReport:
    def test_report_summary_and_object_partition(self):
        trace = build_trace(
            [
                ("A", "L", True),
                ("A", "x", True),
                ("B", "y", True),
                ("B", "L", True),
            ]
        )
        report = detect_races(trace, sync_objects=["L"])
        assert report.sync_objects == {"L"}
        assert report.data_objects == {"x", "y"}
        summary = report.summary()
        assert summary["thread_clock_size"] == 2
        assert summary["races"] == report.race_count
        assert report.racy_objects == frozenset(r.obj for r in report.races)

    def test_mixed_clock_report_for_sync_skeleton(self):
        # 4 threads all synchronising through one lock: the mixed clock over
        # the sync skeleton needs a single component (the lock), while a
        # thread-based clock needs 4.
        steps = []
        for thread in ("A", "B", "C", "D"):
            steps.append((thread, "L", True))
            steps.append((thread, f"private-{thread}", True))
        trace = build_trace(steps)
        report = detect_races(trace, sync_objects=["L"])
        assert report.thread_clock_size == 4
        assert report.mixed_clock_size == 1

    def test_clock_report_skipped_when_no_sync(self):
        trace = build_trace([("A", "x", True), ("B", "x", True)])
        report = RaceDetector(sync_objects=[]).analyse(trace)
        assert report.mixed_clock is None
        assert report.mixed_clock_size is None

    def test_clock_report_can_be_disabled(self):
        trace = build_trace([("A", "L", True), ("B", "L", True)])
        report = RaceDetector(sync_objects=["L"]).analyse(trace, with_clock_report=False)
        assert report.mixed_clock is None


class TestOnRuntimeTraces:
    def test_locked_counter_has_no_races(self):
        system = ConcurrentSystem()
        system.add_object("counter", 0)
        for name in ("A", "B", "C"):
            steps = []
            for _ in range(5):
                steps.extend([acquire("lock"), increment("counter"), release("lock")])
            system.add_thread(name, steps)
        result = system.run(seed=3)
        report = detect_races(result.computation, sync_objects=result.sync_objects)
        assert report.race_count == 0

    def test_unlocked_counter_races(self):
        system = ConcurrentSystem()
        system.add_object("counter", 0)
        for name in ("A", "B"):
            system.add_thread(name, [increment("counter") for _ in range(3)])
        result = system.run(seed=4)
        report = detect_races(result.computation, sync_objects=[])
        assert report.race_count > 0
        assert report.racy_objects == {"counter"}

    def test_partially_locked_program_flags_only_unprotected_object(self):
        system = ConcurrentSystem()
        system.add_object("safe", 0)
        system.add_object("unsafe", 0)
        for name in ("A", "B"):
            steps = [acquire("lock"), increment("safe"), release("lock"), increment("unsafe")]
            system.add_thread(name, steps)
        result = system.run(seed=9)
        report = detect_races(result.computation, sync_objects=result.sync_objects)
        assert "unsafe" in report.racy_objects
        assert "safe" not in report.racy_objects
