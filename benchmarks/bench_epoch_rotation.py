"""Extra experiment E10: incremental epoch rotation vs the replay baseline.

The lifecycle clock's boundary cost, measured head-to-head.  Three legs:

* **rotation latency** - one rotation-heavy churn stream (ID space far
  above the sliding window, so nearly every expiry retires its dead
  endpoints and triggers a pure-subset rotation) driven through
  :class:`LifecycleClockDriver` twice: once with the ``"delta"``
  strategy (the retired slots are marked dead and live stamps drop
  them when next read) and once
  with the ``"replay"`` baseline (the whole live window re-observed).
  ``driver.rotation_s`` p50/p95/p99 and stream events/sec are recorded
  per strategy; the full run asserts delta p99 at least
  :data:`ROTATION_P99_BAR` times lower and throughput no worse.
* **cover boundary pause** - a persistent :class:`DynamicMatching`'s
  incrementally repaired König cover vs a fresh matching rebuilt from
  every live edge at every boundary, on one interleaved add/expire
  churn stream.  The leg measures :class:`DynamicMatching` alone: no
  mechanism keeps one (``epoch-hybrid`` runs one Hopcroft-Karp on its
  live graph at each boundary, the from-scratch side of this trade).
  The full run asserts the repaired boundary *median* at least
  :data:`COVER_P50_BAR` times lower (the tail percentiles are recorded
  as data - a few hundred boundary samples make the p99 a noisy
  near-max).
* **layout-change scaling** - the delta arm alone at the
  lifecycle-rotation workload's window (300) and at ten times it, IDs
  scaled with the window.  The clock extension (``EpochClock.extend``)
  and the rotation latencies are recorded at p50/p99; since a layout
  change costs what changed, not ``O(k)``, the full run asserts each
  p50 within :data:`SCALING_P50_BAR` times across the two scales.

The strategy is a per-clock parameter (``LifecycleClockDriver(rotation=)``):
the engine's timestamping kernels are append-only, so no engine run
ever rotates and no engine knob selects a strategy.

The timed legs install a metrics registry on purpose - the rotation
histogram *is* the measurement - but both strategies run under
identical instrumentation, so the head-to-head stays fair, and the
cyclic GC is disabled around each measured stream (standard latency
isolation; both arms get the same treatment).

Footprint: a live stamp of the delta arm holds its raw slot vector
(live and not yet compacted dead slots, so at most twice the clock
dimension) and a handle on the slot space it was minted in; no stamp
keeps a component set of its own.  The delta arm alone, python
backend, 2-vCPU box, Python 3.11: at half scale (16k IDs, 2k window,
2.4k inserts) ~0.1 s and ~65 MB peak RSS; at full scale ~0.4 s and
~168 MB, nearly all of it the live stamps' vectors (``O(window * k)``).
Under ``--smoke`` the perf bars are skipped (the scales are too small
for stable tail percentiles - the precedent bench_engine_scaling set)
and each leg instead asserts the structural facts: every rotation took
the expected path, both arms agree on rotations, retirements, final
clock size and a sampled causality surface, and both scaling runs
extend and rotate.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.computation.streams import as_stream_event, sliding_window
from repro.graph.incremental import DynamicMatching
from repro.graph.vertex_cover import validate_vertex_cover
from repro.obs.exporters import metrics_document
from repro.obs.registry import MetricsRegistry, install as obs_install
from repro.online.adaptive import LifecycleClockDriver, WindowedPopularityMechanism

from _common import (
    ROTATION_COVER_BOUNDARY,
    ROTATION_COVER_EVENTS,
    ROTATION_COVER_IDS,
    ROTATION_COVER_WINDOW,
    ROTATION_EVENTS,
    ROTATION_IDS,
    ROTATION_SCALING_ID_RATIO,
    ROTATION_SCALING_WINDOWS,
    ROTATION_WINDOW,
    SMOKE,
)

#: The acceptance bar on the full-scale run: delta rotation's p99 must be
#: at least this many times below the replay baseline's.  The gap grows
#: with the window, because replay pays O(window * k) per rotation while
#: the delta rotation marks the retired slots dead, O(#retired).
ROTATION_P99_BAR = 5.0

#: The bar on the scaling leg: extension and rotation p50 at ten times
#: the window may be at most this many times the p50 at the base window.
SCALING_P50_BAR = 2.0

#: The bar on the cover leg: the repaired boundary *median* pause vs
#: the fresh from-scratch rebuild's.  Measured ~5x at the full scale
#: (repair p50 ~1.0ms - one alternating-reachability sweep at worst -
#: vs rebuild ~5.1ms re-matching 2k live edges; p99 ratio ~3.5x, but
#: over ~440 boundary samples the p99 is a near-max and too noisy to
#: gate on).  The rotation leg above carries the issue's >=5x p99 bar.
COVER_P50_BAR = 3.0

#: Stream seed (shared by both strategies - same events, same order).
STREAM_SEED = 20_190_707

#: Relation samples drawn from the final live window per strategy; the
#: sampled verdict surface must match across strategies exactly.
VERDICT_SAMPLES = 200


def _churn_events(ids, count, tag):
    rng = random.Random(STREAM_SEED + tag)
    return [
        (f"t{rng.randrange(ids)}", f"o{rng.randrange(ids)}")
        for _ in range(count)
    ]


def _percentile(samples, pct):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def _run_rotation_leg(strategy):
    """One instrumented pass of the churn stream under one strategy."""
    events = _churn_events(ROTATION_IDS, ROTATION_EVENTS, tag=0)
    registry = MetricsRegistry(origin=f"bench-epoch-rotation-{strategy}")
    previous = obs_install(registry)
    gc.collect()
    gc.disable()
    try:
        driver = LifecycleClockDriver(
            WindowedPopularityMechanism(), rotation=strategy
        )
        start = time.perf_counter()
        for item in sliding_window(events, ROTATION_WINDOW):
            event = as_stream_event(item)
            if event.is_insert:
                driver.observe(event.thread, event.obj)
            else:
                driver.expire(event.thread, event.obj)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
        obs_install(previous)
    # The verdict surface is sampled *after* the timed region (reading a
    # relation lifts the delta arm's stamps to the current layout).
    alive = driver.live_tokens()
    rng = random.Random(STREAM_SEED)
    verdicts = tuple(
        driver.relation(*sorted(rng.sample(alive, 2)))
        for _ in range(VERDICT_SAMPLES)
    )
    histogram = dict(registry.histograms())["driver.rotation_s"]
    counters = dict(registry.counters())
    total_events = 2 * ROTATION_EVENTS - ROTATION_WINDOW
    return {
        "strategy": strategy,
        "elapsed_s": elapsed,
        "events_per_second": total_events / elapsed,
        "rotations": counters.get("driver.rotations", 0),
        "retirements": counters.get("driver.retirements", 0),
        "delta_rotations": counters.get("clock.rotation.delta", 0),
        "replay_rotations": counters.get("clock.rotation.replay", 0),
        "rotation_p50_s": histogram.percentile(50),
        "rotation_p95_s": histogram.percentile(95),
        "rotation_p99_s": histogram.percentile(99),
        "clock_size": driver.clock_size,
        "verdicts": verdicts,
        "registry": registry,
    }


@pytest.mark.benchmark(group="epoch-rotation")
def test_rotation_latency_delta_vs_replay(benchmark, record_table, record_json):
    legs = benchmark.pedantic(
        lambda: [_run_rotation_leg("replay"), _run_rotation_leg("delta")],
        rounds=1,
        iterations=1,
    )
    replay, delta = legs

    # Determinism across strategies: same rotations, same retirements,
    # same final clock, same sampled causality verdicts.
    for key in ("rotations", "retirements", "clock_size", "verdicts"):
        assert delta[key] == replay[key], key
    # Every rotation of each arm took its arm's path.
    assert delta["delta_rotations"] == delta["rotations"] > 0
    assert delta["replay_rotations"] == 0
    assert replay["replay_rotations"] == replay["rotations"] > 0
    assert replay["delta_rotations"] == 0

    lines = [
        f"churn stream: ids={ROTATION_IDS:,}  window={ROTATION_WINDOW:,}  "
        f"inserts={ROTATION_EVENTS:,}  rotations={delta['rotations']}  "
        f"final clock k={delta['clock_size']}",
        f"{'strategy':>8}  {'p50':>9}  {'p95':>9}  {'p99':>9}  "
        f"{'events/s':>9}",
    ]
    for leg in (replay, delta):
        lines.append(
            f"{leg['strategy']:>8}  "
            f"{leg['rotation_p50_s'] * 1e3:>7.3f}ms  "
            f"{leg['rotation_p95_s'] * 1e3:>7.3f}ms  "
            f"{leg['rotation_p99_s'] * 1e3:>7.3f}ms  "
            f"{leg['events_per_second']:>9,.0f}"
        )
    p99_ratio = replay["rotation_p99_s"] / delta["rotation_p99_s"]
    lines.append(f"p99 ratio (replay / delta): {p99_ratio:.1f}x")
    record_table("epoch_rotation", "\n".join(lines))
    record_json(
        "epoch_rotation",
        {
            "ids": ROTATION_IDS,
            "window": ROTATION_WINDOW,
            "inserts": ROTATION_EVENTS,
            "rotations": delta["rotations"],
            "clock_size": delta["clock_size"],
            "p99_ratio": p99_ratio,
            "strategies": {
                leg["strategy"]: {
                    key: leg[key]
                    for key in (
                        "elapsed_s",
                        "events_per_second",
                        "rotation_p50_s",
                        "rotation_p95_s",
                        "rotation_p99_s",
                        "delta_rotations",
                        "replay_rotations",
                    )
                }
                for leg in legs
            },
        },
        metrics=metrics_document(delta["registry"]),
    )
    if not SMOKE:
        assert p99_ratio >= ROTATION_P99_BAR, (
            f"delta rotation p99 ({delta['rotation_p99_s'] * 1e3:.1f}ms) is "
            f"only {p99_ratio:.1f}x below the replay baseline "
            f"({replay['rotation_p99_s'] * 1e3:.1f}ms); the incremental "
            f"path must clear {ROTATION_P99_BAR}x"
        )
        assert delta["events_per_second"] >= replay["events_per_second"], (
            "the delta strategy must not cost stream throughput"
        )


def _run_cover_leg(mode):
    """One pass of the edge-churn stream; boundary cover pauses in seconds.

    ``"repair"`` queries the persistent matching (per-event add/remove
    upkeep, incremental König reachability repair at the boundary);
    ``"scratch"`` rebuilds a fresh :class:`DynamicMatching` from every
    live edge, then takes the cover.  Cover sizes must agree - both are
    minimum covers of the same live graph - and every cover is validated
    outside the timed region.
    """
    rng = random.Random(STREAM_SEED)
    live = []
    persistent = DynamicMatching()
    registry = MetricsRegistry(origin=f"bench-cover-{mode}")
    previous = obs_install(registry)
    samples = []
    sizes = []
    checked = []
    gc.collect()
    gc.disable()
    try:
        for step in range(ROTATION_COVER_EVENTS):
            pair = (
                f"t{rng.randrange(ROTATION_COVER_IDS)}",
                f"o{rng.randrange(ROTATION_COVER_IDS)}",
            )
            live.append(pair)
            persistent.add_edge(*pair)
            if len(live) > ROTATION_COVER_WINDOW:
                persistent.remove_edge(*live.pop(0))
            if (
                step >= ROTATION_COVER_WINDOW
                and step % ROTATION_COVER_BOUNDARY == 0
            ):
                start = time.perf_counter()
                if mode == "repair":
                    cover = persistent.vertex_cover()
                else:
                    fresh = DynamicMatching()
                    fresh.add_edges(live)
                    cover = fresh.vertex_cover()
                samples.append(time.perf_counter() - start)
                sizes.append(len(cover))
                # Validated between boundaries (outside the timed pause;
                # the live graph mutates, so it cannot wait for the end).
                validate_vertex_cover(persistent.graph, cover)
    finally:
        gc.enable()
        obs_install(previous)
    counters = dict(registry.counters())
    return {
        "mode": mode,
        "boundaries": len(samples),
        "cover_sizes": sizes,
        "pause_p50_s": _percentile(samples, 50),
        "pause_p95_s": _percentile(samples, 95),
        "pause_p99_s": _percentile(samples, 99),
        "repairs": counters.get("matching.cover.repairs", 0),
        "rebuilds": counters.get("matching.cover.rebuilds", 0),
    }


@pytest.mark.benchmark(group="epoch-rotation")
def test_cover_repair_vs_from_scratch(benchmark, record_table, record_json):
    legs = benchmark.pedantic(
        lambda: [_run_cover_leg("scratch"), _run_cover_leg("repair")],
        rounds=1,
        iterations=1,
    )
    scratch, repair = legs
    assert repair["boundaries"] == scratch["boundaries"] > 0
    # Both are minimum covers of the same live graph at every boundary.
    assert repair["cover_sizes"] == scratch["cover_sizes"]
    # Every boundary query went through the incremental structure (one
    # counter tick per cover query).  The repairs/rebuilds split
    # is recorded as data, not asserted: at this churn intensity nearly
    # every inter-boundary gap moves a matched edge, which (by the
    # documented invariant) dirties the reachability sets, so the
    # boundary query is one alternating-reachability sweep - still far
    # cheaper than the from-scratch re-matching, which is the point.
    # The exact-repair path itself is pinned deterministically by
    # tests/test_epoch_rotation_properties.py.
    assert repair["repairs"] + repair["rebuilds"] == repair["boundaries"]

    p50_ratio = scratch["pause_p50_s"] / repair["pause_p50_s"]
    p99_ratio = scratch["pause_p99_s"] / repair["pause_p99_s"]
    lines = [
        f"edge churn: ids={ROTATION_COVER_IDS:,}  "
        f"window={ROTATION_COVER_WINDOW:,}  "
        f"boundary every {ROTATION_COVER_BOUNDARY} events  "
        f"boundaries={repair['boundaries']}",
        f"{'mode':>8}  {'p50':>9}  {'p95':>9}  {'p99':>9}",
    ]
    for leg in (scratch, repair):
        lines.append(
            f"{leg['mode']:>8}  "
            f"{leg['pause_p50_s'] * 1e3:>7.2f}ms  "
            f"{leg['pause_p95_s'] * 1e3:>7.2f}ms  "
            f"{leg['pause_p99_s'] * 1e3:>7.2f}ms"
        )
    lines.append(
        f"ratio (scratch / repair): p50 {p50_ratio:.1f}x  "
        f"p99 {p99_ratio:.1f}x"
    )
    record_table("epoch_rotation_cover", "\n".join(lines))
    record_json(
        "epoch_rotation_cover",
        {
            "ids": ROTATION_COVER_IDS,
            "window": ROTATION_COVER_WINDOW,
            "boundary_every": ROTATION_COVER_BOUNDARY,
            "boundaries": repair["boundaries"],
            "p50_ratio": p50_ratio,
            "p99_ratio": p99_ratio,
            "modes": {
                leg["mode"]: {
                    key: leg[key]
                    for key in (
                        "pause_p50_s",
                        "pause_p95_s",
                        "pause_p99_s",
                        "repairs",
                        "rebuilds",
                    )
                }
                for leg in legs
            },
        },
    )
    if not SMOKE:
        assert p50_ratio >= COVER_P50_BAR, (
            f"repaired cover boundary median "
            f"({repair['pause_p50_s'] * 1e3:.2f}ms) is only "
            f"{p50_ratio:.1f}x below the from-scratch rebuild "
            f"({scratch['pause_p50_s'] * 1e3:.2f}ms); persistent repair "
            f"must clear {COVER_P50_BAR}x"
        )



def _run_scaling_leg(window):
    """The delta arm at one window: extension and rotation latencies.

    IDs scale with the window, so the share of expiries that retire a
    component - and the live clock dimension relative to the window -
    stays the same at every scale.  Extensions are timed around the
    driver's one ``EpochClock.extend`` call each, rotations by the
    driver's ``driver.rotation_s`` histogram.
    """
    ids = ROTATION_SCALING_ID_RATIO * window
    events = _churn_events(ids, 2 * window, tag=window)
    registry = MetricsRegistry(origin=f"bench-epoch-scaling-{window}")
    driver = LifecycleClockDriver(WindowedPopularityMechanism())
    extend = driver.clock.extend
    extensions = []

    def timed_extend(*args, **kwargs):
        began = time.perf_counter()
        extend(*args, **kwargs)
        extensions.append(time.perf_counter() - began)

    driver.clock.extend = timed_extend
    previous = obs_install(registry)
    gc.collect()
    gc.disable()
    try:
        for item in sliding_window(events, window):
            event = as_stream_event(item)
            if event.is_insert:
                driver.observe(event.thread, event.obj)
            else:
                driver.expire(event.thread, event.obj)
    finally:
        gc.enable()
        obs_install(previous)
    rotation = dict(registry.histograms())["driver.rotation_s"]
    counters = dict(registry.counters())
    return {
        "window": window,
        "ids": ids,
        "clock_size": driver.clock_size,
        "extensions": len(extensions),
        "extension_p50_s": _percentile(extensions, 50),
        "extension_p99_s": _percentile(extensions, 99),
        "rotations": counters.get("driver.rotations", 0),
        "delta_rotations": counters.get("clock.rotation.delta", 0),
        "rotation_p50_s": rotation.percentile(50),
        "rotation_p99_s": rotation.percentile(99),
    }


@pytest.mark.benchmark(group="epoch-rotation")
def test_layout_change_cost_across_scales(benchmark, record_table, record_json):
    legs = benchmark.pedantic(
        lambda: [_run_scaling_leg(window) for window in ROTATION_SCALING_WINDOWS],
        rounds=1,
        iterations=1,
    )
    for leg in legs:
        assert leg["extensions"] > 0, leg["window"]
        assert leg["delta_rotations"] == leg["rotations"] > 0, leg["window"]
    base, large = legs
    assert large["clock_size"] > base["clock_size"]

    ratios = {
        key: large[f"{key}_p50_s"] / base[f"{key}_p50_s"]
        for key in ("extension", "rotation")
    }
    lines = [
        f"delta arm, IDs = {ROTATION_SCALING_ID_RATIO} x window, "
        f"inserts = 2 x window",
        f"{'window':>7}  {'k':>6}  {'ext p50':>9}  {'ext p99':>9}  "
        f"{'rot p50':>9}  {'rot p99':>9}",
    ]
    for leg in legs:
        lines.append(
            f"{leg['window']:>7,}  {leg['clock_size']:>6,}  "
            f"{leg['extension_p50_s'] * 1e6:>7.1f}us  "
            f"{leg['extension_p99_s'] * 1e6:>7.1f}us  "
            f"{leg['rotation_p50_s'] * 1e6:>7.1f}us  "
            f"{leg['rotation_p99_s'] * 1e6:>7.1f}us"
        )
    lines.append(
        f"p50 ratio (large / base): extension {ratios['extension']:.2f}x  "
        f"rotation {ratios['rotation']:.2f}x"
    )
    record_table("epoch_rotation_scaling", "\n".join(lines))
    record_json(
        "epoch_rotation_scaling",
        {"id_ratio": ROTATION_SCALING_ID_RATIO, "p50_ratios": ratios, "legs": legs},
    )
    if not SMOKE:
        for key, ratio in ratios.items():
            assert ratio <= SCALING_P50_BAR, (
                f"{key} p50 grew {ratio:.2f}x from window {base['window']:,} "
                f"to {large['window']:,}; a layout change must cost what "
                f"changed (bar {SCALING_P50_BAR}x)"
            )
