#!/usr/bin/env python3
"""Online monitoring: growing a mixed vector clock while events stream in.

A monitoring agent attached to a running program does not know the
thread-object interaction in advance, so it cannot run the offline
algorithm.  This example streams a producer/consumer workload event by
event through the three online mechanisms of Section IV (plus the Hybrid
recommended at the end of Section V), compares the clock sizes they end up
with against the offline optimum computed in hindsight, and uses the
Popularity-grown clock to answer live causality queries.

The second half switches to the *sliding-window* regime: events keep
arriving indefinitely, only recent history matters, and the offline
optimum (maintained incrementally by the dynamic matching engine) can
shrink again as hot objects drift out of the window - the gap an online
clock can never reclaim.

Run with:  python examples/online_monitoring.py
"""

from __future__ import annotations

from repro.computation import hot_object_drift_stream, producer_consumer_trace
from repro.engine import EngineConfig, run_engine
from repro.offline import optimal_clock_size
from repro.online import (
    OFFLINE_LABEL,
    HybridMechanism,
    NaiveMechanism,
    OnlineClockProtocol,
    PopularityMechanism,
    RandomMechanism,
    compare_mechanisms_on_stream,
    run_mechanism_on_computation,
)


def main() -> None:
    trace = producer_consumer_trace(
        num_producers=6, num_consumers=6, num_queues=2, items_per_producer=30, seed=7
    )
    print("Workload: producer/consumer,",
          f"{trace.num_threads} threads, {trace.num_objects} objects,",
          f"{trace.num_events} operations")

    # ------------------------------------------------------------------
    # Clock sizes: online mechanisms vs the offline optimum.
    # ------------------------------------------------------------------
    mechanisms = {
        "naive (always thread)": NaiveMechanism(),
        "random": RandomMechanism(seed=11),
        "popularity": PopularityMechanism(),
        "hybrid (popularity then naive)": HybridMechanism(),
    }
    print("\nFinal vector clock sizes after streaming all events online:")
    for label, mechanism in mechanisms.items():
        result = run_mechanism_on_computation(mechanism, trace)
        print(f"  {label:32s} {result.final_size:3d} components "
              f"({result.thread_components} threads + {result.object_components} objects)")
    optimum = optimal_clock_size(trace.bipartite_graph())
    print(f"  {'offline optimum (hindsight)':32s} {optimum:3d} components")
    print(f"  {'classical thread-based clock':32s} {trace.num_threads:3d} components")
    print(f"  {'classical object-based clock':32s} {trace.num_objects:3d} components")

    # ------------------------------------------------------------------
    # Live causality queries with the growing clock.
    # ------------------------------------------------------------------
    protocol = OnlineClockProtocol(PopularityMechanism())
    protocol.timestamp_computation(trace)

    enqueues = [e for e in trace if e.label.startswith("enqueue")]
    dequeues = [e for e in trace if e.label.startswith("dequeue")]
    first_enqueue, last_dequeue = enqueues[0], dequeues[-1]
    print("\nLive queries from the Popularity-grown clock "
          f"({protocol.clock_size} components):")
    print(f"  {first_enqueue.describe()}")
    print(f"  {last_dequeue.describe()}")
    if protocol.happened_before(first_enqueue, last_dequeue):
        relation = "happened before"
    elif protocol.concurrent(first_enqueue, last_dequeue):
        relation = "is concurrent with"
    else:
        relation = "happened after"
    print(f"  -> the first enqueue {relation} the last dequeue")

    concurrent_pairs = sum(
        1
        for i, a in enumerate(enqueues[:20])
        for b in enqueues[i + 1 : 20]
        if protocol.concurrent(a, b)
    )
    print(f"  concurrent pairs among the first 20 enqueues: {concurrent_pairs}")

    # ------------------------------------------------------------------
    # Sliding-window monitoring: a drifting hot set, a window of recent
    # events, and the dynamic offline optimum that can shrink again.
    # ------------------------------------------------------------------
    window, num_events = 60, 600
    stream = hot_object_drift_stream(16, 40, 0.1, num_events, seed=7)
    results = compare_mechanisms_on_stream(
        stream,
        {
            "naive": NaiveMechanism,
            "popularity": PopularityMechanism,
            "hybrid": HybridMechanism,
        },
        include_offline=True,
        window=window,
    )
    offline = results[OFFLINE_LABEL].size_trajectory
    print(f"\nSliding-window monitoring (hot-object drift, window {window}, "
          f"{num_events} events):")
    checkpoints = [window - 1, num_events // 2, num_events - 1]
    header = "".join(f"  @event {i + 1:4d}" for i in checkpoints)
    print(f"  {'series':14s}{header}")
    for label in ("naive", "popularity", "hybrid", OFFLINE_LABEL):
        sizes = results[label].size_trajectory
        cells = "".join(f"  {sizes[i]:11d}" for i in checkpoints)
        print(f"  {label:14s}{cells}")
    print(f"  windowed optimum over the run: min {min(offline)}, "
          f"max {max(offline)} - it shrinks after each drift, while the "
          "online clocks can only grow.")

    # ------------------------------------------------------------------
    # Scale-out: the same monitoring question answered by the sharded
    # execution engine.  Each shard owns a thread-affine sub-stream and
    # its own mechanisms + windowed optimum; worker count never changes
    # the merged numbers (the fingerprint is the proof - try workers=4).
    # ------------------------------------------------------------------
    config = EngineConfig(
        scenario="hot-object-drift",
        num_threads=16,
        num_objects=40,
        density=0.1,
        num_events=num_events,
        seed=7,
        num_shards=4,
        chunk_size=200,
        window=window,
    )
    sharded = run_engine(config)
    print(f"\nSharded engine ({config.num_shards} shards, window {window}):")
    for label in ("naive", "popularity", OFFLINE_LABEL):
        finals = sharded.final_sizes(label)
        per_shard = ", ".join(f"s{s}={size}" for s, size in sorted(finals.items()))
        print(f"  {label:14s} final per shard: {per_shard}")
    print(f"  fingerprint (identical for any --workers): "
          f"{sharded.fingerprint()[:16]}...")


if __name__ == "__main__":
    main()
