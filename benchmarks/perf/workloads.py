"""The five perf workloads: seeded inputs, one closed-loop job, its checks.

Each workload drives the library only through public entry points -
:func:`repro.engine.run_engine`, :class:`repro.online.adaptive.LifecycleClockDriver`
and :func:`repro.offline.algorithm.timestamp_offline` - and looks them up
on their module at call time, so the tracer's wrappers (installed for a
traced job only) are the ones called.  ``repro`` is imported inside the
methods: a setup probe must pay for its own workload's imports and no
other's.

A workload's interface, as :mod:`run` uses it:

* ``prepare(seed, scale, work_dir)`` builds the inputs, untimed;
* ``job(inputs, clock)`` runs one job, timing each *tick* (one call the
  job's client makes into the library) with ``clock.tick`` and adding the
  events it processed to ``clock.events``;
* ``record(inputs, output)`` distils a job's output to a small JSON-safe
  record - equal across jobs of one seed, and committed in
  ``golden.json`` for the seeds listed there;
* ``check_output(inputs, output, checks)`` checks the warm-up job's
  output against an independent oracle;
* ``check_reference(inputs, record, checks)`` re-runs the library on a
  reference path after the timed loop and compares;
* ``probe()`` is the set-up a user pays before the first event: import
  the entry modules and build the top-level object.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

#: Seed-path label of every benchmark-side random choice.
SEED_LABEL = "perf-benchmark"


def scaled(value: int, scale: float, floor: int) -> int:
    """``value`` at ``scale`` (the smoke run uses about 1%), at least ``floor``."""
    return max(floor, int(round(value * scale)))


def digest(values) -> str:
    """SHA-256 over the reprs of ``values``, one per line."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(repr(value).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


class Checks:
    """Counts checks attempted and keeps a message per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# Engine workloads
# ---------------------------------------------------------------------------
def _engine_run(config):
    """One engine run and its fingerprint (what ``repro engine run`` prints)."""
    from repro import engine

    result = engine.run_engine(config)
    return result, result.fingerprint()


class StampChurn:
    """The stamping hot path: batched observe_batch and numpy advance_batch
    over a churning stream; no optimum, so graph layers stay idle.
    """

    name = "stamp-churn"

    def config(self, seed: int, scale: float):
        from repro.engine import EngineConfig

        inserts = scaled(60_000, scale, 1_000)
        return EngineConfig(
            scenario="thread-churn",
            num_threads=200,
            num_objects=200,
            density=0.1,
            num_events=inserts,
            seed=seed,
            num_shards=1,
            chunk_size=max(1, inserts // 4),
            mechanisms=("naive", "popularity", "hybrid"),
            include_offline=False,
            timestamps=True,
            backend="numpy",
        )

    def probe(self) -> None:
        from repro.core.kernel import resolve_backend

        self.config(0, 1.0).validate()
        resolve_backend("numpy")

    def prepare(self, seed: int, scale: float, work_dir: Path):
        return self.config(seed, scale)

    def job(self, config, clock):
        result, fingerprint = clock.tick(_engine_run, config)
        clock.events += result.inserts + result.expires
        return result, fingerprint

    def record(self, config, output) -> dict:
        return {"fingerprint": output[1]}

    def check_output(self, config, output, checks: Checks) -> None:
        result, _ = output
        checks.expect(result.inserts == config.num_events, "insert count")
        fragments = list(result.partial.series.values())
        checks.expect(
            bool(fragments) and all(f.stamp_digest is not None for f in fragments),
            "every series carries a stamp digest",
        )

    def check_reference(self, config, record: dict, checks: Checks) -> None:
        # The per-event loop on the python backend is the reference the
        # batched numpy path must reproduce bit for bit; a short prefix
        # keeps the reference run cheap.
        from repro import engine

        small = replace(config, num_events=min(config.num_events, 3_000),
                        chunk_size=1_000)
        fast = engine.run_engine(small).fingerprint()
        slow = engine.run_engine(
            replace(small, pipeline="per-event", backend="python")
        ).fingerprint()
        checks.expect(fast == slow, "batched numpy equals per-event python")


class WindowOptimum:
    """A sparse, unsaturated live graph under an imposed window: the
    per-event loop and DynamicMatching's augmenting searches dominate.
    """

    name = "window-optimum"

    #: Independent streams per job.  One stream's per-event cost moves by
    #: about 10% with its seed; a job pays for three, so a run's median
    #: follows the code rather than the draw.
    STREAMS = 3

    def config(self, seed: int, scale: float):
        from repro.engine import EngineConfig

        inserts = scaled(6_000, scale, 60)
        return EngineConfig(
            scenario="hot-object-drift",
            num_threads=1000,
            num_objects=1000,
            density=0.01,
            num_events=inserts,
            seed=seed,
            num_shards=1,
            chunk_size=inserts,
            window=inserts // 2,
            mechanisms=("naive", "popularity", "hybrid"),
            include_offline=True,
        )

    def probe(self) -> None:
        self.config(0, 1.0).validate()

    def prepare(self, seed: int, scale: float, work_dir: Path):
        from repro.seeds import derive_seed

        return [
            self.config(derive_seed(seed, SEED_LABEL, self.name, index), scale)
            for index in range(self.STREAMS)
        ]

    def job(self, configs, clock):
        outputs = []
        for config in configs:
            result, fingerprint = clock.tick(_engine_run, config)
            clock.events += result.inserts + result.expires
            outputs.append((result, fingerprint))
        return outputs

    def record(self, configs, outputs) -> dict:
        return {"fingerprints": [fingerprint for _, fingerprint in outputs]}

    def check_output(self, configs, outputs, checks: Checks) -> None:
        from repro.computation.registry import REGISTRY
        from repro.engine import OFFLINE_LABEL
        from repro.graph.generators import graph_from_edges
        from repro.graph.matching import hopcroft_karp_matching
        from repro.seeds import derive_seed

        for config, (result, _) in zip(configs, outputs):
            checks.expect(result.inserts == config.num_events, "insert count")
            checks.expect(
                result.expires == config.num_events - config.window, "expire count"
            )
            for label in config.mechanisms:
                # Append-only clocks cover every edge ever revealed, a
                # superset of the live graph, so no mechanism may undercut
                # the optimum.
                checks.expect(
                    result.pooled_ratios(label).minimum >= 1.0,
                    f"{label} never undercuts the live optimum",
                )
            # From-scratch Hopcroft-Karp on the final window, independent
            # of the incremental repair the engine maintains.
            stream = REGISTRY.get(config.scenario).build(
                config.num_threads, config.num_objects, config.density,
                config.num_events,
                seed=derive_seed(config.seed, config.scenario, "stream"),
            )
            pairs = [(event.thread, event.obj) for event in stream]
            live = graph_from_edges(sorted(set(pairs[-config.window:])))
            checks.expect(
                result.final_sizes(OFFLINE_LABEL) == {0: len(hopcroft_karp_matching(live))},
                "final live optimum equals Hopcroft-Karp on the last window",
            )

    def check_reference(self, configs, record: dict, checks: Checks) -> None:
        pass


@dataclass
class ShardedInputs:
    config: object
    work_dir: Path


class ShardedResume:
    """The only workload where the spawn pool, checkpoint writes and reads,
    8-way routing, the merge and epoch-hybrid cover repair all run.
    """

    name = "sharded-resume"

    def config(self, seed: int, scale: float):
        from repro.engine import EngineConfig

        inserts = scaled(50_000, scale, 1_000)
        return EngineConfig(
            scenario="thread-churn",
            num_threads=200,
            num_objects=200,
            density=0.1,
            num_events=inserts,
            seed=seed,
            num_shards=8,
            chunk_size=max(1, inserts // 20),
            epoch_every=max(1, inserts // 50),
            mechanisms=("popularity", "adaptive-popularity", "epoch-hybrid"),
            include_offline=True,
            workers=2,
        )

    def probe(self) -> None:
        from repro.engine import WorkerPool

        self.config(0, 1.0).validate()
        WorkerPool(2)

    def prepare(self, seed: int, scale: float, work_dir: Path) -> ShardedInputs:
        return ShardedInputs(self.config(seed, scale), work_dir)

    @staticmethod
    def _interrupt_and_resume(config):
        from repro import engine

        try:
            engine.run_engine(replace(config, max_chunks_per_shard=2))
        except engine.EngineInterrupted:
            interrupted = True
        else:
            interrupted = False
        result, fingerprint = _engine_run(config)
        return result, fingerprint, interrupted

    def job(self, inputs: ShardedInputs, clock):
        checkpoint_dir = tempfile.mkdtemp(prefix="checkpoint-", dir=inputs.work_dir)
        try:
            config = replace(inputs.config, checkpoint_dir=checkpoint_dir)
            output = clock.tick(self._interrupt_and_resume, config)
        finally:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        clock.events += output[0].inserts + output[0].expires
        return output

    def record(self, inputs, output) -> dict:
        return {"fingerprint": output[1]}

    def check_output(self, inputs, output, checks: Checks) -> None:
        result, _, interrupted = output
        checks.expect(interrupted, "the first invocation stops at the interrupt hook")
        checks.expect(result.inserts == inputs.config.num_events, "insert count")

    def check_reference(self, inputs, record: dict, checks: Checks) -> None:
        # An uninterrupted, checkpoint-free, single-process run of the same
        # configuration: resumption and the pool must not change a number.
        from repro import engine

        reference = engine.run_engine(replace(inputs.config, workers=1))
        checks.expect(
            reference.fingerprint() == record["fingerprint"],
            "interrupted+resumed pool run equals an uninterrupted in-process run",
        )


# ---------------------------------------------------------------------------
# Lifecycle driver
# ---------------------------------------------------------------------------
@dataclass
class LifecycleInputs:
    pairs: List[Tuple[str, str]]
    window: int
    events: List[Tuple[bool, str, str]]
    seed: int


class LifecycleRotation:
    """The adaptive monitor tick by tick: EpochClock delta rotation and
    retirement at nearly every expiry; the only workload that rotates.
    """

    name = "lifecycle-rotation"

    #: Sampled live-pair verdicts per job (the record's digest input).
    VERDICTS = 200

    def probe(self) -> None:
        from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism

        LifecycleClockDriver(WindowedPopularityMechanism())

    def prepare(self, seed: int, scale: float, work_dir: Path) -> LifecycleInputs:
        from repro.computation.streams import sliding_window
        from repro.seeds import derive_seed

        ids = scaled(4_000, scale, 40)
        count = scaled(1_000, scale, 60)
        window = scaled(300, scale, 20)
        rng = random.Random(derive_seed(seed, SEED_LABEL, self.name, "pairs"))
        pairs = [
            (f"t{rng.randrange(ids)}", f"o{rng.randrange(ids)}") for _ in range(count)
        ]
        events = [
            (event.is_insert, event.thread, event.obj)
            for event in sliding_window(pairs, window)
        ]
        return LifecycleInputs(pairs, window, events, seed)

    def job(self, inputs: LifecycleInputs, clock):
        from repro.online import adaptive

        driver = adaptive.LifecycleClockDriver(adaptive.WindowedPopularityMechanism())
        observe, expire = driver.observe, driver.expire
        tick = clock.tick
        for is_insert, thread, obj in inputs.events:
            tick(observe if is_insert else expire, thread, obj)
        clock.events += len(inputs.events)
        return driver

    def _sample(self, inputs: LifecycleInputs, driver) -> List[Tuple[int, int]]:
        from repro.seeds import derive_seed

        alive = list(driver.live_tokens())
        rng = random.Random(derive_seed(inputs.seed, SEED_LABEL, self.name, "verdicts"))
        return [tuple(sorted(rng.sample(alive, 2))) for _ in range(self.VERDICTS)]

    def record(self, inputs: LifecycleInputs, driver) -> dict:
        verdicts = [driver.relation(a, b) for a, b in self._sample(inputs, driver)]
        return {
            "clock_size": driver.clock_size,
            "epoch": driver.clock.epoch,
            "retired": driver.clock.retired_total,
            "verdicts": digest(verdicts),
        }

    def check_output(self, inputs: LifecycleInputs, driver, checks: Checks) -> None:
        # With a FIFO window every happened-before chain between two live
        # events runs through live events only, so the poset of the last
        # ``window`` pairs is the oracle for every live verdict.
        from repro.computation.poset import HappenedBefore
        from repro.computation.trace import Computation

        live = driver.live_tokens()
        checks.expect(len(live) == inputs.window, "live window size")
        computation = Computation.from_pairs(inputs.pairs[-inputs.window:])
        oracle = HappenedBefore(computation)
        events = computation.events
        position = {token: index for index, token in enumerate(live)}
        for a, b in self._sample(inputs, driver):
            earlier, later = events[position[a]], events[position[b]]
            expected = "before" if oracle.happened_before(earlier, later) else "concurrent"
            checks.expect(
                driver.relation(a, b) == expected,
                f"verdict of live tokens {a}, {b}",
            )

    def check_reference(self, inputs, record: dict, checks: Checks) -> None:
        pass


# ---------------------------------------------------------------------------
# Offline algorithm
# ---------------------------------------------------------------------------
@dataclass
class OfflineInputs:
    traces: list
    samples: List[List[Tuple[int, int]]]


class OfflineStamp:
    """The paper's offline algorithm as repro analyze runs it: Hopcroft-Karp,
    the Konig cover, then minting every stamp of wide clocks.
    """

    name = "offline-stamp"

    #: Sampled event pairs per trace whose verdicts are checked and digested.
    PAIRS = 1_000

    def probe(self) -> None:
        from repro.core.components import ClockComponents
        from repro.core.timestamping import VectorClockProtocol
        from repro.offline.algorithm import timestamp_offline  # noqa: F401

        VectorClockProtocol(ClockComponents())

    def prepare(self, seed: int, scale: float, work_dir: Path) -> OfflineInputs:
        from repro.computation.trace import Computation
        from repro.graph.generators import nonuniform_bipartite, uniform_bipartite
        from repro.seeds import derive_seed

        nodes = scaled(600, scale, 30)
        density = 3.0 / nodes
        traces, samples = [], []
        for family, generate in (("uniform", uniform_bipartite),
                                 ("nonuniform", nonuniform_bipartite)):
            for index in range(4):
                path = (SEED_LABEL, self.name, family, index)
                graph = generate(nodes, nodes, density, seed=derive_seed(seed, *path, "graph"))
                # trace_from_graph's expansion, from the edges in sorted
                # order: BipartiteGraph.edges() follows set order, which
                # changes with PYTHONHASHSEED.
                pairs = [edge for edge in sorted(graph.edges()) for _ in range(4)]
                random.Random(derive_seed(seed, *path, "trace")).shuffle(pairs)
                trace = Computation.from_pairs(pairs)
                rng = random.Random(derive_seed(seed, *path, "pairs"))
                traces.append(trace)
                samples.append([
                    tuple(sorted(rng.sample(range(len(trace)), 2)))
                    for _ in range(self.PAIRS)
                ])
        return OfflineInputs(traces, samples)

    def job(self, inputs: OfflineInputs, clock):
        from repro.offline import algorithm

        summaries = []
        for trace, pairs in zip(inputs.traces, inputs.samples):
            stamped = clock.tick(algorithm.timestamp_offline, trace)
            clock.events += len(trace)
            events = trace.events
            summaries.append((
                stamped.clock_size,
                [stamped.relation(events[i], events[j]) for i, j in pairs],
            ))
            del stamped
        return summaries

    def record(self, inputs, summaries) -> dict:
        return {
            "clock_sizes": [size for size, _ in summaries],
            "verdicts": digest(verdict for _, verdicts in summaries for verdict in verdicts),
        }

    def check_output(self, inputs: OfflineInputs, summaries, checks: Checks) -> None:
        from repro.computation.poset import HappenedBefore
        from repro.exceptions import VertexCoverError
        from repro.offline.algorithm import optimal_components_for_graph
        from repro.graph.vertex_cover import validate_vertex_cover

        for index, (trace, pairs) in enumerate(zip(inputs.traces, inputs.samples)):
            size, verdicts = summaries[index]
            graph = trace.bipartite_graph()
            result = optimal_components_for_graph(graph)
            checks.expect(
                len(result.matching) == result.clock_size == size,
                f"trace {index}: cover size equals matching size",
            )
            try:
                validate_vertex_cover(graph, result.cover)
                valid = True
            except VertexCoverError:
                valid = False
            checks.expect(valid, f"trace {index}: the cover covers every edge")
            oracle = HappenedBefore(trace)
            events = trace.events
            for (i, j), verdict in zip(pairs, verdicts):
                expected = (
                    "before" if oracle.happened_before(events[i], events[j])
                    else "concurrent"
                )
                checks.expect(verdict == expected, f"trace {index}: verdict of events {i}, {j}")

    def check_reference(self, inputs, record: dict, checks: Checks) -> None:
        pass


WORKLOADS: Dict[str, object] = {
    workload.name: workload
    for workload in (
        StampChurn(), WindowOptimum(), LifecycleRotation(), ShardedResume(),
        OfflineStamp(),
    )
}
