"""``repro.serve`` — the round-trip serving layer (both ends of the loop).

The paper's deployment story (§1, §3.2–3.3) is bicephalous end to end: an
always-on *encoder* keeps up with sPHENIX streaming readout in the counting
house, and offline analysis *decodes* the archived payloads at comparable
throughput.  Both directions share one serving engine,
:class:`~repro.serve.service.ModelPoolService` — a pool of workers that
each own a resident :class:`~repro.core.BCAECompressor` (compiled fast-path
workspaces, never shared, no hot-path locks), fed work units in stream
order through a bounded in-flight window, with per-batch latency statistics
— hosted inline, on a thread pool, or on a GIL-sidestepping process pool
(``ServiceConfig.backend``).

The two instantiations:

* :class:`~repro.serve.service.StreamingCompressionService` — wedge stream
  → :class:`~repro.serve.batcher.MicroBatcher` (latency-budgeted
  accumulation) → ``compress_into`` → payloads in arrival order;
* :class:`~repro.serve.service.DecompressionService` — archived payload
  batches → :func:`repro.io.split_compressed` re-chunking →
  ``decompress_into`` → reconstructions in arrival order.

**Async ingestion gateway.**  Every service also has an asyncio face:
``compress_stream_async``/``run_async`` pull an async source
(:class:`~repro.serve.source.AsyncQueueSource`,
:class:`~repro.serve.source.AsyncSocketSource`, or anything
:func:`~repro.serve.source.aiter_wedges` can lift) through
:class:`~repro.serve.batcher.AsyncMicroBatcher`, whose latency budget is a
**monotonic wall-clock deadline** — a batch flushes ``max_delay_s`` after
its first wedge arrives even if the link stalls, which replayed stream
time cannot promise.  ``max_delay_s = 0`` means "never wait".  There is
one stream driver: ``serve_async`` runs the same supervised stream as the
sync ``run`` on one thread, pulling one unit from the loop each time the
stream asks for one, so async streams get the same retry, deadlines, pool
rebuild, slab quarantine, degrade ladder, ``health()`` and ``drain()``;
results emit in stream order, and early close drains in-flight work
cleanly.

**Shared-memory hand-off.**  With ``ServiceConfig.backend="process"``, the
default ``transport="shm"`` moves payloads through a ring of pre-sized
:mod:`multiprocessing.shared_memory` slabs (:mod:`repro.serve.shm`): the
parent leases a slab and memcpys the unit in, the worker reads it in place
and writes its result back into the *same* slab, and only tiny descriptors
(slab index + dtype/shape headers) are ever pickled.  Slab size is
**adaptive by default** (``shm_slab_mb=None``): the ring is created lazily
from the first work unit, sized from the service's own arithmetic (input
*and* result at ``max_batch``, via ``code_shape_for``), so real units fit.
Units larger than a slab still degrade per-unit to the ``"pickle"``
transport, but no longer silently: the degradations are counted as
``FaultCounters.shm_fallbacks`` on the stream's stats and health totals.
Slabs are released on emission, on worker exception, and at stream close
(the segment is unlinked; ``service.last_shm`` records the counters).

**Gateway & sharding.**  :class:`~repro.serve.gateway.ServingGateway` is
the multi-producer front door: one
:class:`~repro.serve.source.AsyncSocketSource` per accepted connection
receives N concurrent clients speaking the length-prefixed wedge-frame format
(bounded per frame by :data:`~repro.serve.source.MAX_FRAME_BYTES`), each
session is micro-batched under the wall-clock budget, and a
:class:`~repro.serve.gateway.StreamRouter` shards sessions across multiple
``ModelPoolService`` instances — health-aware placement, per-shard
backpressure with spill to the least-loaded shard, shard eviction with
per-session (never global) failure, and one slab ring per shard leased
across sessions.  :class:`~repro.serve.gateway.GatewayStats` /
:class:`~repro.serve.gateway.GatewayHealth` aggregate the per-service
supervision currencies across shards; ``repro-tpc serve --shards N
--gateway-port P`` runs it from the CLI.

**Supervision and fault tolerance.**  Serving is supervised: a worker
process death (SIGKILL/OOM) is detected, the pool is rebuilt and the slab
ring quarantined, and the failure surfaces only on the owning unit — or
the unit succeeds transparently via the bounded retry/backoff policy
(``ServiceConfig.unit_timeout_s`` / ``max_retries`` / ``backoff_base_s``).
After ``degrade_after`` consecutive crashes a circuit breaker steps the
effective backend down process → thread → inline instead of dying
(:exc:`~repro.serve.service.WorkerCrashError` /
:exc:`~repro.serve.service.UnitTimeoutError` once budgets are spent).
:meth:`~repro.serve.service.ModelPoolService.health` reports the
supervision state machine (healthy → retrying → rebuilding → degraded →
drained) plus slab-ring occupancy and fault totals —
:func:`~repro.serve.service.start_health_server` serves it as JSON for
``repro-tpc serve --health-port`` — and
:meth:`~repro.serve.service.ModelPoolService.drain` stops intake, flushes
in-flight units and releases every slab.

Output bytes are identical to serial single-call compress/decompress in
every configuration — batching, pooling, async ingestion, the slab
transport and crash recovery are all free correctness-wise.
"""

from .batcher import AsyncMicroBatcher, MicroBatch, MicroBatcher
from .gateway import (
    GatewayConfig,
    GatewayHealth,
    GatewayStats,
    ServingGateway,
    ShardLostError,
    StreamRouter,
)
from .service import (
    BatchRecord,
    DecompressionService,
    HandoffProbeService,
    ModelPoolService,
    ProbeItem,
    ServiceConfig,
    ServiceHealth,
    ServiceStats,
    ServingFaultError,
    StreamingCompressionService,
    UnitTimeoutError,
    WorkerCrashError,
    start_health_server,
)
from .shm import SlabRing, SlabSpec, shm_available
from .source import (
    MAX_FRAME_BYTES,
    AsyncQueueSource,
    AsyncSocketSource,
    AsyncWedgeSource,
    FrameProtocolError,
    StreamItem,
    aiter_wedges,
    async_replay_stream,
    iter_wedges,
    read_wedge_frame,
    replay_stream,
    write_wedge_frame,
)

__all__ = [
    "BatchRecord",
    "MicroBatch",
    "MicroBatcher",
    "AsyncMicroBatcher",
    "ModelPoolService",
    "ServiceConfig",
    "ServiceStats",
    "ServiceHealth",
    "ServingFaultError",
    "WorkerCrashError",
    "UnitTimeoutError",
    "StreamingCompressionService",
    "DecompressionService",
    "HandoffProbeService",
    "ProbeItem",
    "start_health_server",
    "ServingGateway",
    "StreamRouter",
    "GatewayConfig",
    "GatewayStats",
    "GatewayHealth",
    "ShardLostError",
    "SlabRing",
    "SlabSpec",
    "shm_available",
    "StreamItem",
    "FrameProtocolError",
    "MAX_FRAME_BYTES",
    "iter_wedges",
    "replay_stream",
    "AsyncWedgeSource",
    "AsyncQueueSource",
    "AsyncSocketSource",
    "aiter_wedges",
    "async_replay_stream",
    "write_wedge_frame",
    "read_wedge_frame",
]
