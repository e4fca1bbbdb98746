"""Happens-before data race detection - the debugging application.

The paper motivates causality tracking with debugging; the canonical
debugging use of happened-before in multithreaded systems is data race
detection.  :class:`RaceDetector` implements offline happens-before race
detection over a recorded :class:`~repro.computation.trace.Computation`:

* *synchronisation objects* (locks, queues, ...) induce cross-thread
  ordering: the happened-before relation used for race checking is
  generated by each thread's program order plus the serialisation order of
  every sync object;
* *data objects* do not induce ordering (their serialisation in the trace
  is incidental); two accesses to the same data object by different
  threads, at least one of which is a write, that are **concurrent** under
  that relation constitute a data race.

The detector also reports how the paper's offline algorithm would
timestamp the synchronisation skeleton: the optimal mixed clock over the
thread / sync-object bipartite graph, versus the classical thread-based
clock a conventional detector would use.  (For the race *verdicts*
themselves an exact reachability oracle over the sync-only happened-before
DAG is used: per-access epoch tricks need every thread to own a clock
component, which is precisely the overhead the mixed clock avoids - see
the discussion in EXPERIMENTS.md.)
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.computation.event import Event
from repro.computation.trace import Computation
from repro.graph.bipartite import BipartiteGraph
from repro.offline.algorithm import OfflineResult, optimal_components_for_graph


@dataclass(frozen=True)
class Race:
    """One detected data race: two concurrent conflicting accesses."""

    obj: object
    first: Event
    second: Event

    def describe(self) -> str:
        return (
            f"race on {self.obj!r}: {self.first.describe()}  ||  {self.second.describe()}"
        )


@dataclass(frozen=True)
class RaceReport:
    """The detector's full output for one trace."""

    races: Tuple[Race, ...]
    sync_objects: FrozenSet[object]
    data_objects: FrozenSet[object]
    checked_pairs: int
    mixed_clock: Optional[OfflineResult]
    thread_clock_size: int

    @property
    def race_count(self) -> int:
        return len(self.races)

    @property
    def racy_objects(self) -> FrozenSet[object]:
        return frozenset(race.obj for race in self.races)

    @property
    def mixed_clock_size(self) -> Optional[int]:
        """Size of the optimal mixed clock over the sync skeleton, if computed."""
        return self.mixed_clock.clock_size if self.mixed_clock else None

    def summary(self) -> dict:
        return {
            "races": self.race_count,
            "racy_objects": len(self.racy_objects),
            "checked_pairs": self.checked_pairs,
            "sync_objects": len(self.sync_objects),
            "data_objects": len(self.data_objects),
            "thread_clock_size": self.thread_clock_size,
            "mixed_clock_size": self.mixed_clock_size,
        }


class RaceDetector:
    """Offline happens-before race detector for thread-object traces.

    Parameters
    ----------
    sync_objects:
        The objects whose accesses create cross-thread ordering.  Objects
        not listed are treated as data.  Passing an object that never
        appears in the analysed trace is allowed (it simply has no effect).
    """

    def __init__(self, sync_objects: Iterable[object]) -> None:
        self._sync_objects = frozenset(sync_objects)

    @property
    def sync_objects(self) -> FrozenSet[object]:
        return self._sync_objects

    # ------------------------------------------------------------------
    def analyse(self, computation: Computation, with_clock_report: bool = True) -> RaceReport:
        """Detect all races in ``computation``."""
        descendants = self._sync_closure(computation)
        data_objects = frozenset(computation.objects) - self._sync_objects

        races: List[Race] = []
        checked_pairs = 0
        accesses_by_object: Dict[object, List[Event]] = defaultdict(list)
        for event in computation:
            if event.obj in data_objects:
                accesses_by_object[event.obj].append(event)

        for obj, accesses in accesses_by_object.items():
            for i, first in enumerate(accesses):
                for second in accesses[i + 1 :]:
                    if first.thread == second.thread:
                        continue
                    if not (first.is_write or second.is_write):
                        continue
                    checked_pairs += 1
                    if not self._ordered(descendants, first, second):
                        races.append(Race(obj=obj, first=first, second=second))

        mixed_clock = None
        thread_clock_size = computation.num_threads
        if with_clock_report:
            skeleton = self._sync_skeleton_graph(computation)
            if skeleton.num_edges:
                mixed_clock = optimal_components_for_graph(skeleton)

        return RaceReport(
            races=tuple(races),
            sync_objects=self._sync_objects & set(computation.objects),
            data_objects=data_objects,
            checked_pairs=checked_pairs,
            mixed_clock=mixed_clock,
            thread_clock_size=thread_clock_size,
        )

    # ------------------------------------------------------------------
    def _sync_skeleton_graph(self, computation: Computation) -> BipartiteGraph:
        """The thread / sync-object bipartite graph of the trace."""
        graph = BipartiteGraph(threads=computation.threads)
        for event in computation:
            if event.obj in self._sync_objects:
                graph.add_edge(event.thread, event.obj)
        return graph

    def _sync_closure(self, computation: Computation) -> List[int]:
        """Transitive closure (bitmasks) of the sync-only happened-before DAG.

        Edges: consecutive events of the same thread, and consecutive
        events on the same *sync* object.  The interleaving order is a
        linear extension, so one reverse pass computes the closure.
        """
        events = computation.events
        descendants = [0] * len(events)
        for event in reversed(events):
            mask = 1 << event.index
            for successor in computation.immediate_successors(event):
                if successor.thread == event.thread or (
                    successor.obj == event.obj and event.obj in self._sync_objects
                ):
                    mask |= descendants[successor.index]
            descendants[event.index] = mask
        return descendants

    @staticmethod
    def _ordered(descendants: List[int], first: Event, second: Event) -> bool:
        """``True`` iff the two events are causally related under the sync DAG."""
        return bool(
            (descendants[first.index] >> second.index) & 1
            or (descendants[second.index] >> first.index) & 1
        )


def detect_races(
    computation: Computation, sync_objects: Iterable[object]
) -> RaceReport:
    """One-shot convenience wrapper around :class:`RaceDetector`."""
    return RaceDetector(sync_objects).analyse(computation)
