"""The mutants ``run.py`` applies: each must make its selected tests fail.

An entry names a file under ``src/``, a text that must occur in it
exactly once, the text that replaces it, and the pytest selectors (run
from the repository root) that must catch the change.  A mutant whose
tests still pass marks a gap in the suite: either a test is missing or
the code it changes is dead.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    path: str
    original: str
    mutant: str
    selectors: Tuple[str, ...]


_KERNEL = "src/repro/core/kernel.py"
_INCREMENTAL = "src/repro/graph/incremental.py"
_MECHANISM = "src/repro/online/base.py"
_CHECKPOINT = "src/repro/engine/checkpoint.py"
_METRICS = "src/repro/analysis/metrics.py"
_BIPARTITE = "src/repro/graph/bipartite.py"
_ADAPTIVE = "src/repro/online/adaptive.py"
_TIMESTAMPING = "src/repro/core/timestamping.py"
_SIMULATOR = "src/repro/online/simulator.py"
_SHARDING = "src/repro/engine/sharding.py"

_COMPACTION_TESTS = (
    "tests/test_epoch_rotation_properties.py::test_compacting_driver_survives_resume",
    "tests/test_epoch_rotation_properties.py::test_retire_rejoin_and_compaction_keep_verdicts",
)
_BATCH_TESTS = ("tests/test_batched_pipeline.py::TestObserveBatchBitIdentity",)
_GENERATION_TESTS = ("tests/test_engine.py::TestCheckpointGenerations",)
_WINDOW_ORACLES = (
    "tests/test_simulator_oracle.py::test_windowed_runs_match_per_event_loop",
    "tests/test_simulator_oracle.py::test_engine_window_matches_per_event_loop",
)
_WINDOW_TESTS = _WINDOW_ORACLES + (
    "tests/test_simulator_oracle.py::test_router_runs_match_single_insert_runs",
    "tests/test_batched_pipeline.py::TestEnginePipelines::test_batched_with_window_and_epochs_matches_per_event",
)
_EXPIRE_RUN_TESTS = (
    "tests/test_simulator_oracle.py::test_expire_runs_match_per_event_loop",
    "tests/test_simulator_oracle.py::test_engine_expire_runs_match_per_event_loop",
    "tests/test_engine_workers.py::TestSplitRunsGroup",
)
_FOREST_TESTS = (
    "tests/test_dynamic_matching.py::test_every_call_reports_the_from_scratch_change_on_sliding_windows",
    "tests/test_dynamic_matching.py::test_every_call_reports_the_from_scratch_change_on_interleaved_scripts",
)

MUTANTS = (
    # Slot compaction (clock kernel): a stamp of an old slot space is
    # gathered across every compaction since it was minted.
    Mutant(
        "kernel-no-compaction-remap",
        _KERNEL,
        "        old.moved = (self._slots, moved)\n",
        "        old.moved = (self._slots, list(range(len(moved))))\n",
        _COMPACTION_TESTS,
    ),
    Mutant(
        "kernel-reversed-compaction-remap",
        _KERNEL,
        "        old.moved = (self._slots, moved)\n",
        "        old.moved = (self._slots, moved[::-1])\n",
        _COMPACTION_TESTS,
    ),
    Mutant(
        "kernel-dead-slots-in-public-view",
        _KERNEL,
        "            live = [s for s in range(self.width) if slots.died.get(s, version + 1) > version]\n",
        "            live = list(range(self.width))\n",
        ("tests/test_epoch_kernel.py::TestLayoutChain",),
    ),
    # The stamp digest folds only each event's incremented slots, which
    # equal per-component event counts whatever the merge did: only a
    # comparison of the final clock state catches advance_batch merging
    # nothing but the object's slot.
    Mutant(
        "kernel-advance-merges-only-the-object-slot",
        _KERNEL,
        "                values = maximum(thread_values, object_values)\n",
        "                values = maximum(thread_values, object_values)\n"
        "                if append_stamp is None:\n"
        "                    values = copy(thread_values)\n"
        "                    if object_slot is not None:\n"
        "                        values[object_slot] = object_values[object_slot]\n",
        ("tests/test_batched_pipeline.py::TestKernelBatchBitIdentity::test_advance_batch_matches_fold_event",),
    ),
    # A stored array narrower than its batch's width is widened before
    # anything increments it (STAMP_WIDTHS): a slot stored as int16
    # keeps counting past 32,767, and each batch mints at its width.
    Mutant(
        "kernel-reads-a-narrow-stamp-without-widening",
        _KERNEL,
        "    if raw.dtype.itemsize < dtype.itemsize:\n        raw = raw.astype(dtype)\n",
        "",
        ("tests/test_kernel_cache.py::TestWidthTiers",),
    ),
    Mutant(
        "kernel-extension-reads-the-layout",
        _KERNEL,
        "        slots = self._slots\n        for names, own, other, is_thread in (\n",
        "        slots = self._slots\n        self._current().public()\n"
        "        for names, own, other, is_thread in (\n",
        ("tests/test_epoch_kernel.py::TestLayoutChangeCost",),
    ),
    # DynamicMatching's alternating forests (module docstring of
    # repro.graph.incremental): local repair after a flip or a cut.
    Mutant(
        "forest-keeps-the-source-tree",
        _INCREMENTAL,
        "        dropped_z = z.drop_tree(source) if z is not None else []\n",
        "        dropped_z = []\n",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-skips-the-reclose",
        _INCREMENTAL,
        "        for vertex in dropped:\n",
        "        for vertex in ():\n",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-ignores-mirror-tree-edge-deletes",
        _INCREMENTAL,
        "                if zo is not None and zo.far.get(thread) == obj:\n",
        "                if False:\n",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-matched-delete-ignores-the-mirror-path",
        _INCREMENTAL,
        "        if zo is not None and thread in zo.far:\n",
        "        if False:\n",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-shrink-leaves-the-freed-object-out",
        _INCREMENTAL,
        "        if self._zo is not None:\n            self._zo.absorb(obj, thread)\n        return True\n",
        "        return True\n",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-keeps-a-pruned-root",
        _INCREMENTAL,
        "                if self._z is not None:\n                    self._z.near.pop(thread, None)\n",
        "",
        _FOREST_TESTS,
    ),
    Mutant(
        "forest-restored-clean-after-unpickling",
        _INCREMENTAL,
        "        self._z = None\n        self._zo = None\n",
        "        self._z = _Forest({}, {}, {}, {})\n        self._zo = _Forest({}, {}, {}, {})\n",
        ("tests/test_dynamic_matching.py::test_pickle_round_trip_mid_stream_keeps_later_verdicts",),
    ),
    # Shard checkpoint generations (module docstring of
    # repro.engine.checkpoint): load reads the newest, and a save never
    # leaves a shard without a complete checkpoint.
    Mutant(
        "checkpoint-load-reads-the-oldest-generation",
        _CHECKPOINT,
        "            shard_id: paths[-1] for shard_id, paths in self._generations().items()\n",
        "            shard_id: paths[0] for shard_id, paths in self._generations().items()\n",
        _GENERATION_TESTS,
    ),
    Mutant(
        "checkpoint-unlinks-before-the-rename",
        _CHECKPOINT,
        "        self._atomic_write(\n"
        "            path,\n",
        "        for older in self._generations().get(checkpoint.shard_id, []):\n"
        "            if older != path:\n"
        "                _unlink_quietly(older)\n"
        "        self._atomic_write(\n"
        "            path,\n",
        _GENERATION_TESTS,
    ),
    # The one mechanism batch loop (OnlineMechanism.observe_batch) must
    # equal observe() per pair, hooks and counter write-back included.
    Mutant(
        "batch-loop-skips-on-observe",
        _MECHANISM,
        "            if hooked:\n                self._on_observe(thread, obj)\n",
        "",
        _BATCH_TESTS,
    ),
    Mutant(
        "batch-loop-writes-events-seen-after-the-hooks",
        _MECHANISM,
        "            self._events_seen = event_index + 1\n"
        "            if hooked:\n"
        "                self._on_observe(thread, obj)\n"
        "            if thread not in thread_components and obj not in object_components:\n"
        "                self._adopt(event_index, thread, obj)\n",
        "            if hooked:\n"
        "                self._on_observe(thread, obj)\n"
        "            if thread not in thread_components and obj not in object_components:\n"
        "                self._adopt(event_index, thread, obj)\n"
        "            self._events_seen = event_index + 1\n",
        _BATCH_TESTS,
    ),
    # The ratio sketch (QuantileSketch): a run fed through update_many
    # must flush at the same values as update per value, or the
    # sketch-derived percentiles in the engine fingerprint move.
    Mutant(
        "sketch-flush-point-off-by-one",
        _METRICS,
        "            if len(buffer) >= compression:\n",
        "            if len(buffer) > compression:\n",
        ("tests/test_quantile_sketch.py::TestUpdateMany",),
    ),
    # A cluster break reuses k at the prefix before the new cluster,
    # which the previous item's test computed.
    Mutant(
        "sketch-limit-from-the-wrong-prefix",
        _METRICS,
        "                limit = previous + 1.0\n",
        "                limit = k + 1.0\n",
        ("tests/test_quantile_sketch.py::TestUpdateMany::test_compress_equals_the_asin_per_break_loop",),
    ),
    # BipartiteGraph.add_edge looks each endpoint up once; a new endpoint
    # still goes through add_thread / add_object and their cross-side check.
    Mutant(
        "add-edge-skips-the-cross-side-check",
        _BIPARTITE,
        "            self.add_thread(thread)\n            objects = self._thread_adj[thread]\n",
        "            objects = self._thread_adj[thread] = set()\n",
        ("tests/test_bipartite_graph.py::TestConstruction",),
    ),
    # A pickled graph lists each neighbour set in canonical order: set
    # order follows PYTHONHASHSEED, and checkpoint bytes must not.
    Mutant(
        "graph-pickles-sets-in-hash-order",
        _BIPARTITE,
        "            {t: sorted(adj, key=key) for t, adj in self._thread_adj.items()},\n",
        "            {t: list(adj) for t, adj in self._thread_adj.items()},\n",
        ("tests/test_engine.py::TestCheckpointBytes",),
    ),
    # Eager retirement reclaims a component on the expire that kills its
    # last live event; no epoch sweep is left to clean up after it.
    Mutant(
        "eager-expire-skips-object-retirement",
        _ADAPTIVE,
        "            if obj not in self._live_by_object and obj in self._object_components:\n"
        "                self._retire_component(obj)\n",
        "",
        ("tests/test_adaptive_mechanisms.py::TestWindowedPopularity::test_eager_components_always_have_a_live_event",),
    ),
    # Epoch-hybrid's live graph drops the endpoints an expiry isolates,
    # as DynamicMatching's does: the node threshold counts live vertices.
    Mutant(
        "epoch-hybrid-keeps-isolated-vertices",
        _ADAPTIVE,
        "        if live.degree(thread) == 0:\n"
        "            live.remove_isolated_vertex(thread)\n"
        "        if live.degree(obj) == 0:\n"
        "            live.remove_isolated_vertex(obj)\n",
        "",
        ("tests/test_adaptive_mechanisms.py::TestEpochRotatingHybrid::test_live_graph_and_rebuild_match_dynamic_matching",),
    ),
    # Epoch-hybrid runs HybridMechanism's policy on the live graph: the
    # _policy_graph hook is the whole difference between the two.
    Mutant(
        "epoch-hybrid-policy-reads-revealed-graph",
        _ADAPTIVE,
        "    def _policy_graph(self) -> BipartiteGraph:\n"
        "        return self._live\n",
        "    def _policy_graph(self) -> BipartiteGraph:\n"
        "        return self.revealed_graph\n",
        ("tests/test_adaptive_mechanisms.py::TestEpochRotatingHybrid::test_thresholds_read_the_live_graph",),
    ),
    # EpochClock.rotate takes the delta path only when no retired
    # component is an endpoint of a live event.
    Mutant(
        "epoch-clock-delta-ignores-live-endpoints",
        _TIMESTAMPING,
        "            and not any(\n"
        "                c in self._live_threads or c in self._live_objects for c in retired\n"
        "            )\n",
        "",
        (
            "tests/test_epoch_kernel.py::TestEpochClock::test_retiring_a_live_endpoint_replays",
            "tests/test_adaptive_mechanisms.py::TestVerdictPreservation",
        ),
    ),
    # An imposed window expires inside insert runs
    # (StreamConsumer.insert_run): only a mechanism whose expiry just
    # counts may take a run's expiries ahead of its inserts.
    Mutant(
        "window-batch-ignores-expire-hook",
        _SIMULATOR,
        "            if expired and _expire_hooked(mechanism):\n",
        "            if False:\n",
        _WINDOW_TESTS,
    ),
    # The optimum's size after an expiring insert is that of the live
    # window: the expired pair goes first.  (Swapping the two calls
    # alone is equivalent, since the optimum counts edge multiplicity
    # and is sampled after both; this mutant samples in between.  Only
    # the independent per-event oracle sees it: one-insert runs share
    # the mutated loop.)
    Mutant(
        "window-optimum-adds-before-expiring",
        _SIMULATOR,
        "                remove_edge(gone_thread, gone_obj)\n"
        "                add_edge(thread, obj)\n"
        "                append(optimum.size)\n",
        "                add_edge(thread, obj)\n"
        "                append(optimum.size)\n"
        "                remove_edge(gone_thread, gone_obj)\n",
        _WINDOW_ORACLES,
    ),
    # The router (split_runs_group) is the simulator's too: an insert
    # run cut past its cap overshoots a counter epoch, so the per-event
    # oracles see it on the simulator alone.
    Mutant(
        "router-insert-run-overshoots-its-cap",
        _SHARDING,
        "                    if len(run) >= rooms[shard]:\n",
        "                    if len(run) > rooms[shard]:\n",
        (
            "tests/test_simulator_oracle.py::test_simulator_matches_per_event_loop",
            "tests/test_simulator_oracle.py::test_windowed_runs_match_per_event_loop",
            "tests/test_simulator_oracle.py::test_expire_runs_match_per_event_loop",
        ),
    ),
    # A stream's own expiries travel as runs (split_runs_group,
    # StreamConsumer.expire_run): a run reaches its shard before the
    # shard's next epoch marker, it reports the count through its own
    # last expire, and only a mechanism whose expiry just counts may
    # take a run as one count.
    Mutant(
        "expire-run-not-flushed-before-epoch-marker",
        _SHARDING,
        "                        elif expiring[shard_id]:\n"
        "                            yield shard_id, expired_at[shard_id], expiring[shard_id]\n"
        "                            expiring[shard_id] = ExpireRun()\n",
        "",
        _EXPIRE_RUN_TESTS,
    ),
    Mutant(
        "expire-run-reports-the-count-at-its-flush",
        _SHARDING,
        "                        if expiring[shard]:\n"
        "                            yield shard, expired_at[shard], expiring[shard]\n",
        "                        if expiring[shard]:\n"
        "                            yield shard, consumed - 1, expiring[shard]\n",
        _EXPIRE_RUN_TESTS,
    ),
    Mutant(
        "expire-run-counts-hooked-mechanisms-in-bulk",
        _SIMULATOR,
        "            if _expire_hooked(mechanism):\n"
        "                expire = mechanism.expire\n",
        "            if False:\n"
        "                expire = mechanism.expire\n",
        _EXPIRE_RUN_TESTS,
    ),
)
