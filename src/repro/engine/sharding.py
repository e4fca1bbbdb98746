"""Stream sharding: split one event stream into affinity-preserving shards.

The execution engine parallelises a streaming run by partitioning its
event stream into ``num_shards`` sub-streams and running the mechanisms
and the dynamic offline optimum independently per shard (see
:mod:`repro.engine.runner` for why per-shard independence is the unit of
parallelism).  The partitioning must satisfy two contracts:

**Affinity.**  Every event is routed by its *thread* vertex, so all
inserts and expires of one thread land on the same shard, in stream
order.  Because stream generators never emit more expires for an edge
than inserts (the multiset contract of
:mod:`repro.computation.streams`), each shard's sub-stream inherits that
consistency: a shard-local :class:`~repro.graph.incremental.DynamicMatching`
never sees an expire-before-insert.  Routing by thread also keeps each
shard's revealed graph a genuine thread-object bipartite graph - threads
are partitioned, objects may appear on several shards (they are the
monitoring analogue of broadcast state).

**Determinism.**  Shard assignment depends only on ``(num_shards,
strategy, the stream itself)`` - never on Python's randomised ``hash()``,
process identity, worker count, or timing.  Concretely:

* ``hash`` strategy: the shard of thread ``t`` is an FNV-1a hash of the
  ``(type name, repr)`` canonical form of ``t`` (the same
  canonicalisation :func:`repro.online.simulator.reveal_order` uses for
  its sort keys), reduced modulo ``num_shards``.  This is stateless: two
  workers in different processes agree on every assignment without
  communicating, which is what lets each worker re-derive its own shard
  by filtering a regenerated stream.
* ``round-robin`` strategy: threads are assigned to shards cyclically in
  order of *first appearance* in the stream.  This balances shards
  perfectly when thread populations are skewed, at the cost of being
  stateful: an assignment is only reproducible by replaying the stream
  prefix that precedes it.  Workers do exactly that (they scan the full
  stream and keep their shard), so the fallback stays deterministic.

Both strategies therefore guarantee: for a fixed generated stream, the
multiset of (shard, event) pairs - and the order of events within each
shard - is a pure function of the sharder configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.computation.streams import (
    EPOCH,
    INSERT,
    MAX_BATCH_EVENTS,
    EventLike,
    StreamEvent,
    as_stream_event,
)
from repro.exceptions import EngineError
from repro.graph.bipartite import Vertex
from repro.obs.registry import active as _metrics_active
from repro.seeds import stable_hash

#: The two partitioning strategies (see module docstring).
HASH = "hash"
ROUND_ROBIN = "round-robin"

STRATEGIES = (HASH, ROUND_ROBIN)

Pair = Tuple[Vertex, Vertex]


class ExpireRun(list):
    """A run of one shard's consecutive expire pairs.

    What :meth:`StreamSharder.split_runs_group` yields for expiries: a
    list of its own type, so a consumer tells it from an insert run by
    ``type``.
    """

    __slots__ = ()


@dataclass(frozen=True)
class ShardGroup:
    """A contiguous block of shard ids owned by one worker.

    The engine's scheduling unit: a worker that owns a group generates
    the base stream *once* and routes events to every owned shard in a
    single pass (see :meth:`StreamSharder.split_runs_group`).  Groups are
    purely physical - which shards share a pass never changes any
    shard's event sequence, so the merged result is bit-identical across
    group plans.
    """

    group_id: int
    shard_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.shard_ids:
            raise EngineError("a shard group must own at least one shard")
        if list(self.shard_ids) != sorted(set(self.shard_ids)):
            raise EngineError(
                f"group shard ids must be strictly increasing, "
                f"got {self.shard_ids!r}"
            )


def plan_shard_groups(num_shards: int, workers: int) -> Tuple[ShardGroup, ...]:
    """Partition ``num_shards`` shard ids into ``workers`` contiguous groups.

    Deterministic balanced round-robin: group sizes differ by at most
    one, the ``num_shards % workers`` oversized groups are dealt to the
    lowest group ids in order, and shard ids stay contiguous and
    ascending within (and across) groups - so flattening the plan's
    groups in group-id order recovers ``0 .. num_shards - 1`` exactly,
    which is what keeps the engine's shard-id-sorted merge tree intact.
    ``workers`` above ``num_shards`` clamps (a worker with no shards
    would idle); the plan is a pure function of ``(num_shards,
    workers)``.
    """
    if num_shards < 1:
        raise EngineError(f"num_shards must be >= 1, got {num_shards}")
    if workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    workers = min(workers, num_shards)
    base, extra = divmod(num_shards, workers)
    groups: List[ShardGroup] = []
    start = 0
    for group_id in range(workers):
        size = base + (1 if group_id < extra else 0)
        groups.append(
            ShardGroup(group_id, tuple(range(start, start + size)))
        )
        start += size
    return tuple(groups)


class StreamSharder:
    """Route stream events to shards by thread affinity.

    One instance observes one stream (the ``round-robin`` strategy is
    stateful); create a fresh sharder per pass.  The ``hash`` strategy is
    stateless, so reusing an instance is harmless there, but the uniform
    rule keeps call sites strategy-agnostic.
    """

    def __init__(self, num_shards: int, strategy: str = HASH) -> None:
        if num_shards < 1:
            raise EngineError(f"num_shards must be >= 1, got {num_shards}")
        if strategy not in STRATEGIES:
            raise EngineError(
                f"unknown sharding strategy {strategy!r} "
                f"(expected one of: {', '.join(STRATEGIES)})"
            )
        self.num_shards = num_shards
        self.strategy = strategy
        self._round_robin: Dict[Vertex, int] = {}
        # Hash-strategy assignments memoised per thread: the FNV fold
        # runs over the thread's repr, which costs more than the rest of
        # the routing put together on million-event streams.  Purely a
        # cache of a pure function, so the determinism contract is
        # untouched.
        self._hash_cache: Dict[Vertex, int] = {}

    def shard_of(self, thread: Vertex) -> int:
        """The shard owning ``thread`` (assigning it first, if round-robin)."""
        if self.strategy == HASH:
            shard = self._hash_cache.get(thread)
            if shard is None:
                shard = stable_hash(thread) % self.num_shards
                self._hash_cache[thread] = shard
            return shard
        shard = self._round_robin.get(thread)
        if shard is None:
            shard = len(self._round_robin) % self.num_shards
            self._round_robin[thread] = shard
        return shard

    def split(self, events: Iterable[EventLike]) -> Iterator[Tuple[int, StreamEvent]]:
        """Tag every event with its shard id, one copy per shard for a marker.

        Nothing in the program calls it; ``benchmarks/perf/tracer.py``
        names it in its layer table, so it goes with that table's next
        change.  :meth:`split_runs_group` is the router.
        """
        for item in events:
            event = as_stream_event(item)
            if event.is_epoch:
                for shard in range(self.num_shards):
                    yield shard, event
                continue
            yield self.shard_of(event.thread), event

    def split_runs_group(
        self,
        events: Iterable[EventLike],
        shard_ids: Sequence[int],
        caps: Mapping[int, Callable[[], int]],
        skips: Optional[Mapping[int, int]] = None,
        expire_cap: int = MAX_BATCH_EVENTS,
    ) -> Iterator[Tuple[int, int, Union[List[Pair], ExpireRun, StreamEvent, None]]]:
        """Several owned shards' sub-streams, routed in ONE pass.

        The one code that cuts a stream into runs, for the engine's
        workers and (over one shard) for
        :func:`~repro.online.simulator.compare_mechanisms_on_stream`.  A
        worker that owns ``shard_ids`` consumes the base stream once, and
        every event is routed to (at most) one owned shard's accumulation
        - so stream generation and routing are paid once per *worker*,
        not once per shard.  The routing, filtering and run accumulation
        all happen inside this generator's single loop, so a consumer
        resumes once per *run* instead of once per tagged event.  Yields
        ``(shard_id, consumed, item)`` triples where ``item`` is one of:

        * a non-empty ``list`` of ``(thread, object)`` pairs - a run of
          that shard's consecutive inserts, cut at the shard's expires
          and at epoch markers, at ``caps[shard_id]()`` (re-evaluated at
          each run's first insert, so the driver's chunk/epoch
          arithmetic is always current), and at end of stream;
        * a non-empty :class:`ExpireRun` of pairs - a run of that shard's
          consecutive expires, cut at the shard's next insert, at epoch
          markers, at ``expire_cap`` pairs and at end of stream;
        * an epoch marker, preceded by the flush of the shard's open run;
        * ``None`` - the shard's end-of-stream tick, so the driver's
          final ``consumed`` covers the whole stream.

        ``consumed`` counts *tagged* events: one per insert or expire,
        and one per shard of the sharder for each (broadcast) epoch
        marker, whatever run lengths the consumer chose.  An insert run
        flushed because its cap was reached reports the count through its
        own last insert; one flushed by a boundary event reports the count
        *before* that event, whose own yield then accounts for it.  An
        expire run reports the count through its own last expire, as
        one yield per expire would.

        Per-shard semantics do not depend on which other shards share
        the pass - same run boundaries, same ``consumed`` values, same
        skip arithmetic - which is what keeps checkpoints
        interchangeable across group plans (a run checkpointed at one
        ``workers`` count resumes at any other).  In particular:

        * ``consumed`` counts tagged events of the *whole* stream (an
          insert owned by a sibling shard still advances every shard's
          count; epoch markers count once per shard of the sharder, not
          of the group), exactly as each shard's own pass would have
          counted them;
        * epoch markers are broadcast to every owned shard in shard-id
          order, each delivery preceded by the flush of that shard's
          open run, and each shard's skip check uses its *own* copy
          position ``before + shard_id + 1`` - so a group resuming
          shards whose checkpoints straddle a broadcast delivers the
          marker only to the shards whose checkpoints do not already
          cover their copy;
        * ``skips[shard_id]`` (default 0) fast-forwards that shard
          independently; the routing table replays for every event
          regardless, because routing *is* the pass.

        End of stream flushes every shard's open run and yields every
        shard's ``None`` tick in shard-id order.  Raises
        :class:`~repro.exceptions.EngineError` when the stream is
        shorter than any shard's skip.
        """
        owned: Tuple[int, ...] = tuple(shard_ids)
        if not owned:
            raise EngineError("split_runs_group needs at least one shard id")
        if list(owned) != sorted(set(owned)):
            raise EngineError(
                f"group shard ids must be strictly increasing, got {owned!r}"
            )
        for shard_id in owned:
            if not (0 <= shard_id < self.num_shards):
                raise EngineError(
                    f"shard_id {shard_id} out of range for "
                    f"{self.num_shards} shards"
                )
            if shard_id not in caps:
                raise EngineError(f"no cap callable for shard {shard_id}")
        skip_of: Dict[int, int] = {
            shard_id: (skips.get(shard_id, 0) if skips is not None else 0)
            for shard_id in owned
        }
        num_shards = self.num_shards
        shard_of = self.shard_of
        # Either strategy memoises its assignments in one dict; a hit
        # skips the method call.
        known = (self._hash_cache if self.strategy == HASH else self._round_robin).get
        own_set = frozenset(owned)
        consumed = 0
        runs: Dict[int, List[Pair]] = {shard_id: [] for shard_id in owned}
        rooms: Dict[int, int] = {shard_id: 0 for shard_id in owned}
        # At most one of a shard's two runs is open: an insert flushes
        # its expire run and an expire its insert run.
        expiring: Dict[int, ExpireRun] = {
            shard_id: ExpireRun() for shard_id in owned
        }
        expired_at: Dict[int, int] = {shard_id: 0 for shard_id in owned}
        # Per-shard load telemetry: events each shard actually owns
        # (fast-forwarded ones excluded - their loads were counted by the
        # original pass).  One key per shard id, so snapshots merged
        # across workers never collide.  Disabled cost: one local ``is
        # not None`` check per owned event.
        registry = _metrics_active()
        own_events: Dict[int, int] = {shard_id: 0 for shard_id in owned}
        try:
            for item in events:
                if type(item) is not StreamEvent:
                    item = as_stream_event(item)
                thread, obj, kind = item
                if kind == EPOCH:
                    before = consumed
                    consumed += num_shards
                    for shard_id in owned:
                        # This shard's copy of the broadcast is the
                        # (shard_id+1)-th; a checkpoint taken after it
                        # covers it.
                        if before + shard_id + 1 <= skip_of[shard_id]:
                            continue
                        if registry is not None:
                            own_events[shard_id] += 1
                        if runs[shard_id]:
                            yield shard_id, before, runs[shard_id]
                            runs[shard_id] = []
                        elif expiring[shard_id]:
                            yield shard_id, expired_at[shard_id], expiring[shard_id]
                            expiring[shard_id] = ExpireRun()
                        yield shard_id, consumed, item
                    continue
                consumed += 1
                shard = known(thread)
                if shard is None:
                    shard = shard_of(thread)
                if shard not in own_set:
                    continue
                if consumed <= skip_of[shard]:
                    # The consumers' state already covers this event; the
                    # routing above replayed the assignment table.
                    continue
                if registry is not None:
                    own_events[shard] += 1
                if kind == INSERT:
                    run = runs[shard]
                    if not run:
                        if expiring[shard]:
                            yield shard, expired_at[shard], expiring[shard]
                            expiring[shard] = ExpireRun()
                        rooms[shard] = caps[shard]()
                    run.append((thread, obj))
                    if len(run) >= rooms[shard]:
                        yield shard, consumed, run
                        runs[shard] = []
                    continue
                if runs[shard]:
                    yield shard, consumed - 1, runs[shard]
                    runs[shard] = []
                gone = expiring[shard]
                gone.append((thread, obj))
                expired_at[shard] = consumed
                if len(gone) >= expire_cap:
                    yield shard, consumed, gone
                    expiring[shard] = ExpireRun()
            for shard_id in owned:
                if consumed < skip_of[shard_id]:
                    raise EngineError(
                        f"stream exhausted while fast-forwarding shard "
                        f"{shard_id} to event {skip_of[shard_id]}; the "
                        f"checkpoint does not match this stream"
                    )
            for shard_id in owned:
                if runs[shard_id]:
                    yield shard_id, consumed, runs[shard_id]
                elif expiring[shard_id]:
                    yield shard_id, expired_at[shard_id], expiring[shard_id]
                yield shard_id, consumed, None
        finally:
            if registry is not None:
                for shard_id in owned:
                    if own_events[shard_id]:
                        registry.add(
                            f"sharder.shard[{shard_id}].events",
                            own_events[shard_id],
                        )
