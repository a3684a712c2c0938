"""The model-pool serving core and its two instantiations.

The ROADMAP's "heavy traffic" loop is bicephalous end to end: the counting
house compresses the wedge stream online, and offline analysis decompresses
it at comparable throughput.  Both directions have the same serving shape —
work units fan out to a pool of workers that each own a resident
:class:`BCAECompressor` (compiled fast-path workspaces are deliberately not
shared: no locks on the hot path), and results are emitted in stream order
through a bounded in-flight window that doubles as backpressure.  That
shared machinery is :class:`ModelPoolService`; the two deployments are

* :class:`StreamingCompressionService` — micro-batches a wedge stream
  (:class:`~repro.serve.batcher.MicroBatcher` under a latency budget) into
  ``BCAECompressor.compress_into`` calls;
* :class:`DecompressionService` — re-chunks archived payload batches
  (:func:`repro.io.codes.split_compressed`) into
  ``BCAECompressor.decompress_into`` calls.

Execution backends, per :class:`ServiceConfig`:

* ``workers=0`` — inline on the caller's thread: no hand-off overhead, the
  right default for CPU-bound NumPy on one core;
* ``backend="thread"`` — a thread pool with per-stream compressor checkout
  (the hand-off machinery a multi-GPU deployment would use; BLAS releases
  the GIL during GEMMs);
* ``backend="process"`` — a process pool that sidesteps the GIL entirely on
  multi-core boxes: each worker process builds its own compressor from the
  (pickled/forked) model.  Per ``ServiceConfig.transport``, payloads cross
  the boundary through a shared-memory slab ring (``"shm"``, the default —
  lease a slab, memcpy in, worker writes the result back into the same
  slab; only descriptors are pickled) or by per-unit pickling
  (``"pickle"``), with graceful per-unit fallback when a payload exceeds
  the slab size.

Every backend also has an asyncio face: :class:`AsyncServingSession`
(``await submit`` / ordered ``async for`` results) under the
``serve_async``/``run_async``/``compress_stream_async`` entry points, fed
by the wall-clock :class:`~repro.serve.batcher.AsyncMicroBatcher`.

Payload/reconstruction bytes are identical to serial single-call
``compress``/``decompress`` in every configuration.  Every model with a
compiled stage plan — the 2D family *and* the 3D BCAE++/HT variants —
serves through the fast ``compress_into``/``decompress_into`` paths and is
eligible for the ≥2× serving gates of ``bench_serving.py`` /
``bench_decode.py``; only unknown stage stacks (the original BCAE's
BatchNorm blocks) degrade to the module graph inside the same services.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import dataclasses
import itertools
import logging
import os
import random
import signal
import threading
import time
from typing import AsyncIterator, Iterable, Iterator, Sequence

import numpy as np

from ..core.compressor import BCAECompressor, CompressedWedges
from ..core.fast_plan import panel_budget
from ..core.geometry import WedgeGeometry
from ..io.codes import split_compressed
from ..perf.timing import FaultCounters, LatencySummary, ThroughputResult, summarize_latencies, throughput_from_batches
from .batcher import AsyncMicroBatcher, MicroBatch, MicroBatcher
from .shm import SlabArray, SlabRing, shm_available
from .source import StreamItem, aiter_wedges, iter_wedges

__all__ = [
    "ServiceConfig",
    "BatchRecord",
    "ServiceStats",
    "ServiceHealth",
    "ServingFaultError",
    "WorkerCrashError",
    "UnitTimeoutError",
    "ModelPoolService",
    "StreamingCompressionService",
    "DecompressionService",
    "ProbeItem",
    "HandoffProbeService",
    "AsyncServingSession",
    "start_health_server",
]

_LOG = logging.getLogger("repro.serve")

_BACKENDS = ("thread", "process")
_TRANSPORTS = ("shm", "pickle")
#: Ladder levels a supervised stream may execute at, best first.
_LEVELS = ("process", "thread", "inline")
#: Fault kinds the probe service can inject (see :class:`ProbeItem`).
_FAULT_KINDS = ("poison", "kill", "hang", "corrupt-slab")


class ServingFaultError(RuntimeError):
    """Base of the supervision layer's fault exceptions.

    Raised (at the owning unit's stream position) when a unit could not
    be served within its retry budget; see :class:`WorkerCrashError` and
    :class:`UnitTimeoutError` for the two concrete causes the supervisor
    distinguishes from plain worker exceptions.
    """


class WorkerCrashError(ServingFaultError):
    """A worker died mid-unit.

    On the process level this wraps a broken pool (SIGKILL/OOM of a
    worker process kills every in-flight future at once — the supervisor
    re-drives the window serially so only the unit that actually crashes
    alone is charged).  On the inline/thread levels it is raised directly
    by the injected ``kill``/``corrupt-slab`` probe faults, since threads
    cannot be killed from outside.
    """


class UnitTimeoutError(ServingFaultError):
    """A unit exceeded ``ServiceConfig.unit_timeout_s``.

    The deadline is measured while the stream waits on the unit's
    emission; a timed-out unit's pool is force-killed (a hung worker also
    wedges its executor slot) and the unit is charged one attempt.
    """


@dataclasses.dataclass
class ServiceConfig:
    """Tunables of one service instance.

    Attributes
    ----------
    max_batch:
        Work-unit size cap in wedges (the knee of the Figure-6 batch curve
    	for compression; payload batches are split to this for decode).
    max_delay_s:
        Stream-time accumulation budget (see :class:`MicroBatcher`);
        compression only.
    workers:
        Pool size.  ``0`` runs inline on the caller's thread — the fastest
        configuration for single-core NumPy; ``>= 1`` exercises the real
        hand-off machinery.  Pooled compressors split the cores between
        their panel executors (:func:`~repro.core.fast_plan.panel_budget`).
    backend:
        ``"thread"`` (default) or ``"process"`` — how ``workers >= 1`` are
        hosted.  The process pool sidesteps the GIL on multi-core boxes at
        the cost of pickling work units and results across the boundary.
    half:
        fp16 inference mode (paper §3.3 deployment default).
    inflight:
        Bound on units submitted but not yet emitted (backpressure).
    transport:
        How process-backend payloads cross the boundary: ``"shm"``
        (default) leases pre-sized shared-memory slabs — work units and
        results move by memcpy, only tiny descriptors are pickled — while
        ``"pickle"`` serializes every unit through the executor pipe.
        Units larger than a slab fall back to pickle per unit.  Ignored by
        the inline/thread backends (no process boundary to cross).
    shm_slab_mb:
        Slab size in MiB for ``transport="shm"``.  One slab serves both
        directions of a unit, so it must fit ``max(input, result)``
        bytes; the ring holds ``inflight`` slabs.  ``None`` (default) is
        **adaptive**: the ring is sized from the first work unit using
        the service's own arithmetic — ``max_batch`` wedges of input
        versus ``code_shape_for``-sized fp16 codes for compression, the
        payload versus the reconstruction geometry for decompression —
        so payloads neither silently degrade to pickle (too small) nor
        waste address space (too large).  Units that still exceed their
        slab fall back to pickle per unit, now *counted* on
        ``ServiceStats.faults.shm_fallbacks``.
    unit_timeout_s:
        Per-unit deadline in seconds, measured while the stream waits on
        the unit's emission.  A unit that exceeds it has its worker pool
        force-killed and rebuilt and is charged one attempt
        (:class:`UnitTimeoutError` once the retry budget is spent).
        ``None`` (default) disables deadlines.  The inline level executes
        at submit time on the caller's thread, so deadlines cannot be
        enforced there.
    max_retries:
        Extra attempts a faulted unit may be charged (worker crash,
        deadline, or plain worker exception) before its error surfaces at
        its stream position.  ``0`` (default) preserves fail-fast
        behaviour.  Retries are legal because compress/decompress/probe
        units are pure functions of their inputs (see
        ``ModelPoolService._idempotent``).
    backoff_base_s:
        First-retry backoff; retry ``n`` sleeps
        ``backoff_base_s * 2**(n-1)`` scaled by 0.5–1.5× jitter.  ``0``
        disables the sleep (deterministic tests).
    degrade_after:
        Circuit breaker: after this many *consecutive* worker crashes the
        effective backend steps down one ladder level (process → thread →
        inline) instead of rebuilding the same dying pool forever.  Unit
        successes reset the counter; a step-down is sticky for the
        service's lifetime and visible in :meth:`ModelPoolService.health`
        and in stream stats.
    rate_policy:
        Optional adaptive codec-selection policy name (see
        :data:`repro.rate.POLICY_NAMES`).  ``None`` (default) serves the
        plain fixed-rate BCAE; a policy name wraps every pooled
        compressor in :class:`repro.rate.AdaptiveCompressor`, so served
        payloads carry per-wedge codec records and
        :class:`~repro.rate.RateDecision` ledgers.  Selection is a pure
        per-wedge function, so every backend/transport produces identical
        decisions for identical streams.
    rate_budget_mbps:
        Optional stream-level bandwidth budget in Mbps, resolved to a
        stateless per-wedge byte allowance (see
        :class:`repro.rate.RateBudget`).  Requires ``rate_policy``.

    Example
    -------
    >>> from repro.serve import ServiceConfig
    >>> ServiceConfig(max_batch=16, workers=4, backend="process").transport
    'shm'
    >>> ServiceConfig(max_delay_s=0.002)          # 2 ms latency budget
    ServiceConfig(max_batch=8, max_delay_s=0.002, workers=0, backend='thread', half=True, inflight=8, transport='shm', shm_slab_mb=None, unit_timeout_s=None, max_retries=0, backoff_base_s=0.05, degrade_after=3, rate_policy=None, rate_budget_mbps=None)
    """

    max_batch: int = 8
    max_delay_s: float = 0.0
    workers: int = 0
    backend: str = "thread"
    half: bool = True
    inflight: int = 8
    transport: str = "shm"
    shm_slab_mb: float | None = None
    unit_timeout_s: float | None = None
    max_retries: int = 0
    backoff_base_s: float = 0.05
    degrade_after: int = 3
    rate_policy: str | None = None
    rate_budget_mbps: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError(
                f"unit_timeout_s must be > 0 or None, got {self.unit_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.degrade_after < 1:
            raise ValueError(
                f"degrade_after must be >= 1, got {self.degrade_after}"
            )
        if self.inflight < 1:
            raise ValueError(f"inflight must be >= 1, got {self.inflight}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.transport not in _TRANSPORTS:
            raise ValueError(
                f"transport must be one of {_TRANSPORTS}, got {self.transport!r}"
            )
        if self.shm_slab_mb is not None and self.shm_slab_mb <= 0:
            raise ValueError(f"shm_slab_mb must be > 0, got {self.shm_slab_mb}")
        if self.rate_policy is not None:
            from ..rate import POLICY_NAMES

            if self.rate_policy not in POLICY_NAMES:
                raise ValueError(
                    f"rate_policy must be one of {POLICY_NAMES} or None, "
                    f"got {self.rate_policy!r}"
                )
        if self.rate_budget_mbps is not None:
            if self.rate_policy is None:
                raise ValueError(
                    "rate_budget_mbps requires a rate_policy — the budget "
                    "is an input to codec selection, not a standalone knob"
                )
            if self.rate_budget_mbps <= 0:
                raise ValueError(
                    f"rate_budget_mbps must be > 0, got {self.rate_budget_mbps}"
                )

    @property
    def slab_nbytes(self) -> int:
        if self.shm_slab_mb is None:
            raise ValueError(
                "shm_slab_mb is adaptive (None) — the slab size comes from "
                "the first work unit, not from the config"
            )
        return int(self.shm_slab_mb * (1 << 20))


@dataclasses.dataclass
class BatchRecord:
    """Timing record of one served work unit (a compressed/decoded batch)."""

    seq: int
    first_seq: int
    n_wedges: int
    compress_s: float  # time inside the worker's compressor call
    worker: str
    #: How the unit crossed to its worker: "local" (inline/thread), "shm"
    #: (slab lease) or "pickle" (serialized — the pickle transport, or a
    #: unit too large for its slab).
    transport: str = ""
    #: Wall-clock accumulation time of the batch (async ingestion only).
    wait_s: float = 0.0
    #: Why the micro-batch closed ("full"/"budget"/"eof"/"drain"; empty
    #: for units that never passed through a batcher, e.g. decode chunks).
    closed_by: str = ""
    #: Executions charged to this unit (1 = served first try; >1 means
    #: the supervisor retried it after a crash/timeout/exception).
    attempts: int = 1


@dataclasses.dataclass
class ServiceStats:
    """Aggregate outcome of one served stream."""

    n_wedges: int
    n_batches: int
    elapsed_s: float
    half: bool
    max_batch: int
    workers: int
    records: list[BatchRecord] = dataclasses.field(default_factory=list)
    #: Faults observed while serving this stream (all-zero when clean).
    faults: FaultCounters = dataclasses.field(default_factory=FaultCounters)
    #: Effective execution level at stream end ("inline"/"thread"/
    #: "process"); differs from the configured backend after a
    #: circuit-breaker step-down.
    level: str = ""

    @property
    def wedges_per_second(self) -> float:
        """End-to-end service throughput (includes batching + hand-off)."""

        return self.n_wedges / max(self.elapsed_s, 1e-12)

    @property
    def mean_batch_s(self) -> float:
        return float(np.mean([r.compress_s for r in self.records])) if self.records else 0.0

    @property
    def p99_batch_s(self) -> float:
        if not self.records:
            return 0.0
        return float(np.quantile([r.compress_s for r in self.records], 0.99))

    @property
    def mean_batch_size(self) -> float:
        return self.n_wedges / max(self.n_batches, 1)

    def batch_latency(self) -> LatencySummary:
        """Percentile summary of per-**batch** service time: wall-clock
        accumulation wait plus the worker's compute, one sample per served
        micro-batch (not per wedge)."""

        return summarize_latencies(
            [r.compress_s + r.wait_s for r in self.records]
        )

    def to_throughput_result(self) -> ThroughputResult:
        """This run in the currency of :mod:`repro.perf` microbenchmarks."""

        return throughput_from_batches(
            [r.n_wedges for r in self.records],
            [r.compress_s for r in self.records],
            self.elapsed_s,
            half=self.half,
        )

    def row(self) -> str:
        """One-line summary for logs and benches."""

        line = (
            f"wedges={self.n_wedges} batches={self.n_batches} "
            f"(mean size {self.mean_batch_size:.1f}) "
            f"throughput={self.wedges_per_second:8.1f} w/s "
            f"batch(mean/p99)={self.mean_batch_s * 1e3:6.2f}/{self.p99_batch_s * 1e3:6.2f} ms "
            f"workers={self.workers}"
        )
        if self.faults.total or self.faults.retries or self.faults.degraded:
            line += f" faults[{self.faults.row()}]"
        return line


@dataclasses.dataclass
class ServiceHealth:
    """Point-in-time supervision probe of one service.

    Returned by :meth:`ModelPoolService.health` and served as JSON by
    :func:`start_health_server` (``repro-tpc serve --health-port``).

    Attributes
    ----------
    state:
        The supervision state machine's current node: ``"healthy"`` →
        ``"retrying"`` (a fault is being retried) → ``"rebuilding"`` (a
        worker pool is being replaced) → ``"degraded"`` (circuit breaker
        stepped the backend down) → ``"draining"``/``"drained"``.
    backend / level / workers:
        Configured backend, the current effective ladder level (differs
        from ``backend`` after a step-down), and the configured pool size.
    panel_width:
        Panel width each pooled compressor resolves
        (:func:`~repro.core.fast_plan.panel_budget`).
    active_streams:
        Streams currently being served.
    ring_slabs / ring_leased:
        Slab-ring occupancy summed over active streams (0/0 when no shm
        transport is in use); ``ring_leased`` equals in-flight shm units.
    consecutive_crashes:
        The circuit breaker's counter (reset by any unit success).
    last_unit_latency_s:
        Worker compute time of the most recently emitted unit.
    faults:
        Lifetime :class:`~repro.perf.timing.FaultCounters` totals across
        all streams of this service.
    """

    state: str
    backend: str
    level: str
    workers: int
    panel_width: int
    active_streams: int
    ring_slabs: int
    ring_leased: int
    consecutive_crashes: int
    last_unit_latency_s: float
    faults: FaultCounters

    @property
    def ok(self) -> bool:
        """Liveness verdict: still accepting work (possibly degraded)."""

        return self.state not in ("draining", "drained")

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (what the health endpoint serves)."""

        return dataclasses.asdict(self)


@dataclasses.dataclass
class PayloadItem:
    """One decompression work unit: a payload batch with stream bookkeeping."""

    seq: int
    first_seq: int
    compressed: CompressedWedges

    @property
    def n_wedges(self) -> int:
        return self.compressed.n_wedges


class ModelPoolService:
    """Shared serving core: compressor pool → ordered fan-out → stats.

    Subclasses define one unit of work (:meth:`_work`, and its module-level
    twin for the process backend via :attr:`_kind`); everything else —
    compressor pooling/checkout, inline / thread / process execution, the
    bounded in-flight ordered emission, and stats assembly — lives here, so
    compression and decompression are two instantiations of one engine.

    Constructing a service calls ``model.eval()`` — a deliberate, *lasting*
    side effect on the caller's model: serving is inference, and BatchNorm
    must run from running statistics both for batch-composition-free bytes
    and to compile onto the stage-plan fast path.  A caller that resumes
    training the same object afterwards must call ``model.train()`` again.
    """

    #: Work dispatch tag for the process backend ("compress"/"decompress").
    _kind = ""

    #: Sentinel item: a supervised stream that pulls this from its source
    #: drains the whole in-flight window (emitting every pending result in
    #: order) instead of treating it as work.  Long-lived pull sources —
    #: the gateway's shard pumps above all — inject it when their queue
    #: runs dry, so results reach waiting sessions instead of sitting in a
    #: half-full window until the next unit arrives.
    _FLUSH = object()

    #: Whether this service's units may legally be re-executed after a
    #: fault.  Compression, decompression and the probe checksum are pure
    #: functions of their inputs, so retry and uncharged re-drive are
    #: safe; a subclass serving units with side effects must set this
    #: False, which makes every fault terminal at the owning unit.
    _idempotent = True

    def __init__(self, model, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        # Serving is inference by definition: normalization layers must run
        # from their running statistics, both for batch-composition-free
        # payload bytes and so BatchNorm models (the original BCAE) compile
        # onto the stage-plan fast path instead of the module graph.
        if hasattr(model, "eval"):
            model.eval()
        self.model = model
        # Warm compressors are pooled on the instance so back-to-back
        # streams reuse their compiled workspaces; checkouts are per-stream
        # (see _Checkout), so concurrent streams on one service never share
        # a compressor's non-thread-safe scratch.  Process-backend workers
        # own compressors in their own processes instead.
        self._pool_lock = threading.Lock()
        prewarm = 1 if self.config.backend == "process" else max(1, self.config.workers)
        self._idle: list[BCAECompressor] = [
            self._build_compressor() for _ in range(prewarm)
        ]
        #: Debug counters of the last process-backend stream's transport
        #: (shm ring name, slab stats, fallback counts) — see
        #: :meth:`_ProcessTransport.close`.  Tests use this to assert the
        #: lease/release protocol leaks nothing.
        self.last_shm: dict = {}
        # Supervision state shared by every stream of this service: the
        # backend ladder, circuit breaker, drain latch and fault totals.
        self._supervisor = _Supervisor(self.config)
        self._streams: set[_SupervisedStream] = set()
        # Fault counters / effective level of the most recently finished
        # stream, copied into that stream's ServiceStats by _stats().
        self._last_faults = FaultCounters()
        self._last_level = self._supervisor.level

    # ------------------------------------------------------------------
    def _build_compressor(self) -> BCAECompressor:
        cfg = self.config
        return _make_compressor(self.model, cfg.half, cfg.workers,
                                cfg.rate_policy, cfg.rate_budget_mbps)

    def _acquire(self) -> BCAECompressor:
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
        return self._build_compressor()

    def _release(self, compressors: list[BCAECompressor]) -> None:
        with self._pool_lock:
            self._idle.extend(compressors)

    # ------------------------------------------------------------------
    def _work(self, compressor: BCAECompressor, item):
        """One unit of work on a checked-out compressor (subclass hook)."""

        raise NotImplementedError

    def _execute(self, checkout: "_Checkout", item):
        name, compressor = checkout.get()
        t0 = time.perf_counter()
        result = self._work(compressor, item)
        dt = time.perf_counter() - t0
        record = BatchRecord(
            seq=item.seq,
            first_seq=item.first_seq,
            n_wedges=item.n_wedges,
            compress_s=dt,
            worker=name,
            transport="local",
            wait_s=getattr(item, "wait_s", 0.0),
            closed_by=getattr(item, "closed_by", ""),
        )
        return record, result

    # ------------------------------------------------------------------
    def _serve(self, items,
               transport: "_ProcessTransport | None" = None,
               ) -> Iterator[tuple[BatchRecord, object]]:
        """Run work units through the configured backend, in stream order.

        Execution is supervised (see :class:`_SupervisedStream`): worker
        crashes rebuild the backend and quarantine the slab ring, the
        deadline/retry policy follows :class:`ServiceConfig`, and the
        circuit breaker may step the effective backend down
        process → thread → inline.  Raises ``RuntimeError`` once the
        service is draining/drained.

        ``transport`` lends the stream an externally owned
        :class:`_ProcessTransport` (see :meth:`_make_transport`): its slab
        ring is *reused* across consecutive streams instead of rebuilt
        per stream, and the caller — not the stream — closes it.
        """

        stream = _SupervisedStream(self, items, transport=transport)
        try:
            yield from stream.run()
        finally:
            stream.close()

    def _make_transport(self) -> "_ProcessTransport | None":
        """A process-backend transport whose ring outlives single streams.

        Returns ``None`` unless the config runs a process pool.  Pass the
        result to :meth:`_serve` so back-to-back streams (the gateway's
        shard pumps) lease from one long-lived slab ring instead of
        creating and destroying a ring per stream; the caller must call
        ``transport.close()`` when the shard is torn down.
        """

        cfg = self.config
        if cfg.workers > 0 and cfg.backend == "process":
            return _ProcessTransport(self)
        return None

    def _adaptive_slab_nbytes(self, item) -> int:
        """Slab bytes that fit this unit's input *and* result at
        ``max_batch`` (subclass hook for adaptive ``shm_slab_mb``)."""

        raise NotImplementedError(
            f"{type(self).__name__} must implement _adaptive_slab_nbytes "
            "to use adaptive shm_slab_mb (shm_slab_mb=None)"
        )

    # ------------------------------------------------------------------
    def health(self) -> ServiceHealth:
        """Point-in-time supervision probe of this service.

        Reports pool liveness/state, slab-ring occupancy over active
        streams, the circuit breaker's consecutive-crash counter,
        last-unit latency and lifetime fault totals.  Cheap and
        lock-light — safe to call from another thread while streams are
        being served, which is exactly what the ``--health-port``
        endpoint (:func:`start_health_server`) does.
        """

        sup = self._supervisor
        ring_slabs = 0
        ring_leased = 0
        for stream in list(self._streams):
            ring = stream.ring
            if ring is not None:
                occupancy = ring.stats()
                ring_slabs += occupancy["n_slabs"]
                ring_leased += occupancy["leased"]
        return ServiceHealth(
            state=sup.state(),
            backend="inline" if self.config.workers == 0 else self.config.backend,
            level=sup.level,
            workers=self.config.workers,
            panel_width=panel_budget(self.config.workers).width,
            active_streams=sup.active_streams,
            ring_slabs=ring_slabs,
            ring_leased=ring_leased,
            consecutive_crashes=sup.consecutive_crashes,
            last_unit_latency_s=sup.last_unit_latency_s,
            faults=dataclasses.replace(sup.totals),
        )

    def drain(self, wait: bool = True, timeout: float | None = None) -> bool:
        """Stop intake, flush in-flight units, release every slab.

        The sync generalization of :meth:`AsyncServingSession.aclose`:
        after ``drain()`` no stream pulls further items from its source —
        a partially accumulated micro-batch flushes with
        ``closed_by="drain"``, every unit already submitted is emitted
        (or surfaces its error), and each stream's backend and slab ring
        are torn down on its normal close path, so nothing is orphaned
        and no slab stays leased.  Draining is terminal for the service:
        starting a new stream or session afterwards raises
        ``RuntimeError``.  With ``wait=True`` (default) blocks until all
        active streams have finished, up to ``timeout`` seconds (``None``
        = forever); returns True when the service is fully drained.
        """

        return self._supervisor.drain(wait=wait, timeout=timeout)

    # ------------------------------------------------------------------
    def _collect(self, stream, keep: bool) -> tuple[list, ServiceStats]:
        """Drain a served stream into (results, stats)."""

        results: list = []
        records: list[BatchRecord] = []
        n_wedges = 0
        t0 = time.perf_counter()
        for record, result in stream:
            records.append(record)
            n_wedges += record.n_wedges
            if keep:
                results.append(result)
        return results, self._stats(records, n_wedges, time.perf_counter() - t0)

    def _stats(self, records, n_wedges: int, elapsed_s: float) -> ServiceStats:
        """One ServiceStats assembly shared by the sync and async drains."""

        cfg = self.config
        return ServiceStats(
            n_wedges=n_wedges,
            n_batches=len(records),
            elapsed_s=elapsed_s,
            half=cfg.half,
            max_batch=cfg.max_batch,
            workers=cfg.workers,
            records=records,
            faults=self._last_faults,
            level=self._last_level,
        )

    # ------------------------------------------------------------------
    # async façade
    # ------------------------------------------------------------------
    def session(self) -> "AsyncServingSession":
        """Open an async session on this service (must run inside a loop).

        The session is the raw façade — ``await session.submit(unit)``
        returns the unit's future, ``async for`` over
        :meth:`AsyncServingSession.results` emits in order.  Most callers
        want :meth:`serve_async` / ``run_async`` instead.
        """

        return AsyncServingSession(self)

    async def serve_async(self, items) -> AsyncIterator[tuple[BatchRecord, object]]:
        """Serve an async iterable of work units; ordered async emission.

        The asyncio twin of :meth:`_serve`: same backends, same bounded
        in-flight window, same stream-order emission — but submission and
        emission interleave on the event loop, so an async source keeps
        producing while workers compute.  Closing the generator early
        drains in-flight units cleanly (no orphaned work, no leaked slabs).
        """

        session = self.session()
        try:
            async for item in _ensure_async(items):
                while session.pending >= self.config.inflight:
                    yield await session.next_result()
                await session.submit(item)
            while session.pending:
                yield await session.next_result()
        finally:
            await session.aclose()

    async def _collect_async(self, stream, keep: bool) -> tuple[list, ServiceStats]:
        """Drain an async served stream into (results, stats)."""

        results: list = []
        records: list[BatchRecord] = []
        n_wedges = 0
        t0 = time.perf_counter()
        async for record, result in stream:
            records.append(record)
            n_wedges += record.n_wedges
            if keep:
                results.append(result)
        return results, self._stats(records, n_wedges, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# Supervision: the fault-tolerance layer under _serve.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _Unit:
    """One in-flight work unit under supervision."""

    item: object
    future: object = None
    attempt: int = 0                    # 0-based; BatchRecord.attempts = attempt + 1
    done: tuple | None = None           # (record, result) once resolved
    error: BaseException | None = None  # terminal failure at this position


class _Supervisor:
    """Service-level supervision state shared by every stream.

    Holds the backend ladder and circuit breaker (a step-down is sticky
    for the service's lifetime), lifetime fault totals, the last-unit
    latency sample, and the drain latch.  Mutations are guarded by one
    lock; nothing here sits on the per-unit hot path except
    :meth:`note_success`, which is three attribute writes.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        if config.workers == 0:
            self.ladder: tuple[str, ...] = ("inline",)
        elif config.backend == "process":
            self.ladder = _LEVELS
        else:
            self.ladder = ("thread", "inline")
        self.level_index = 0
        self.transient = "healthy"      # healthy | retrying | rebuilding
        self.consecutive_crashes = 0
        self.degrade_after = config.degrade_after
        self.totals = FaultCounters()
        self.last_unit_latency_s = 0.0
        self.draining = False
        self.active_streams = 0

    @property
    def level(self) -> str:
        """Current effective execution level (post step-downs)."""

        return self.ladder[self.level_index]

    def state(self) -> str:
        """Current node of the supervision state machine."""

        with self._lock:
            if self.draining:
                return "drained" if self.active_streams == 0 else "draining"
            if self.transient != "healthy":
                return self.transient
            return "degraded" if self.level_index > 0 else "healthy"

    def drain_requested(self) -> bool:
        """The intake latch the batcher/stream loops poll."""

        return self.draining

    # -- stream lifecycle ----------------------------------------------
    def stream_started(self) -> None:
        with self._lock:
            if self.draining:
                raise RuntimeError(
                    "service is draining/drained — no new streams"
                )
            self.active_streams += 1

    def stream_done(self) -> None:
        with self._idle:
            self.active_streams -= 1
            self._idle.notify_all()

    def drain(self, wait: bool = True, timeout: float | None = None) -> bool:
        self.draining = True
        if not wait:
            return self.active_streams == 0
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self.active_streams > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    # -- fault accounting ----------------------------------------------
    def note_success(self, latency_s: float) -> None:
        self.consecutive_crashes = 0
        self.transient = "healthy"
        self.last_unit_latency_s = latency_s

    def note_crash(self) -> bool:
        """Record one worker crash; True when the breaker trips (the
        caller must then rebuild at the new, lower ladder level)."""

        with self._lock:
            self.consecutive_crashes += 1
            if (self.consecutive_crashes >= self.degrade_after
                    and self.level_index + 1 < len(self.ladder)):
                was = self.level
                self.level_index += 1
                self.consecutive_crashes = 0
                _LOG.warning(
                    "serving degraded: backend %s -> %s after %d "
                    "consecutive worker crashes", was, self.level,
                    self.degrade_after,
                )
                return True
        return False


class _Engine:
    """One live execution backend at a given ladder level (rebuildable).

    The supervised stream treats the engine as disposable: on a crash or
    a hung worker it is shut down (``force=True`` SIGKILLs worker
    processes outright, or abandons hung threads) and a fresh instance is
    built at the supervisor's current level.  All three levels expose the
    same submit/result/fail surface, so the fault policy above is
    level-agnostic.  The inline level executes at submit time on the
    caller's thread and hands back an already-resolved future — the
    degenerate engine every fault path can fall back to.
    """

    def __init__(self, service: ModelPoolService, level: str,
                 transport: "_ProcessTransport | None" = None) -> None:
        cfg = service.config
        self._service = service
        self.level = level
        self._transport = transport
        self._checkout: _Checkout | None = None
        self._pool = None
        if level == "process":
            self._pool = concurrent.futures.ProcessPoolExecutor(
                cfg.workers,
                initializer=_process_init,
                initargs=transport.initargs(),
            )
        elif level == "thread":
            self._checkout = _Checkout(service)
            self._pool = concurrent.futures.ThreadPoolExecutor(max(1, cfg.workers))
        else:
            self._checkout = _Checkout(service)

    def submit(self, item):
        if self.level == "process":
            return self._transport.submit(self._pool, item)
        if self.level == "thread":
            return self._pool.submit(self._service._execute, self._checkout, item)
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(self._service._execute(self._checkout, item))
        except BaseException as exc:
            # Inline twin of a worker failure: surfaces at result(), so
            # the three levels share one fault path.
            future.set_exception(exc)
        return future

    def result(self, future, timeout: float | None):
        record, result = future.result(timeout=timeout)
        if self.level == "process":
            record, result = self._transport.finalize(future, record, result)
        return record, result

    def fail(self, future) -> None:
        if self.level == "process":
            self._transport.fail(future)

    def shutdown(self, force: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            if force and self.level == "process":
                # Hung or dead pool: SIGKILL the workers (interrupting any
                # hung unit) and do not wait for the management thread.
                for proc in list((getattr(pool, "_processes", None) or {}).values()):
                    try:
                        proc.kill()
                    except Exception:
                        pass
                pool.shutdown(wait=False, cancel_futures=True)
            elif force:
                # Threads cannot be killed: abandon the pool and leak its
                # checkouts — a hung thread may still be touching its
                # compressor, so returning it to the idle pool would hand
                # a racing workspace to the next stream.
                pool.shutdown(wait=False, cancel_futures=True)
                self._checkout = None
            else:
                pool.shutdown(wait=True)
        checkout, self._checkout = self._checkout, None
        if checkout is not None:
            checkout.release()


class _SupervisedStream:
    """One supervised served stream: the engine loop under :meth:`_serve`.

    Owns a rebuildable :class:`_Engine` (plus, at the process level, a
    :class:`_ProcessTransport` whose slab ring it can quarantine), drives
    the bounded in-flight window in stream order, and implements the
    fault policy:

    * per-unit deadlines (``unit_timeout_s``) with force-kill + rebuild
      of a hung pool;
    * bounded retry with exponential backoff + jitter (``max_retries`` /
      ``backoff_base_s``), legality gated on ``service._idempotent``;
    * crash recovery with *serial re-probing*: a broken pool fails every
      in-flight future at once, so pending units are re-driven one at a
      time, alone — whatever fails alone is charged to its own retry
      budget, innocent units are re-submitted uncharged;
    * the circuit-breaker step-down (process → thread → inline) after
      ``degrade_after`` consecutive crashes.
    """

    def __init__(self, service: ModelPoolService, items,
                 transport: "_ProcessTransport | None" = None) -> None:
        service._supervisor.stream_started()
        self._service = service
        self._sup = service._supervisor
        self._cfg = service.config
        self._items = items
        self._window: collections.deque = collections.deque()
        self._counters = FaultCounters()
        self._recovering = False
        # A borrowed transport (gateway shard pumps) is reused across
        # streams and closed by its owner, not here.
        self._owns_transport = transport is None
        self._transport: _ProcessTransport | None = transport
        if self._transport is None and self._sup.level == "process":
            self._transport = _ProcessTransport(service)
        self._fallback_base = (
            self._transport.fallbacks if self._transport is not None else 0
        )
        # Adaptive slab sizing needs the first unit before the ring (and
        # therefore the pool, whose workers attach the ring at init) can
        # exist — defer engine creation to the first submit in that case.
        self._engine: _Engine | None = None
        if self._transport is None or not self._transport.ring_pending:
            self._engine = _Engine(service, self._sup.level, self._transport)
        service._streams.add(self)

    # ------------------------------------------------------------------
    @property
    def ring(self):
        """The stream's slab ring, if the current level uses one."""

        return self._transport.ring if self._transport is not None else None

    def _inflight(self) -> int:
        # Inline execution completes at submit: a deeper window would only
        # delay emission, and pull-driven laziness (submit → emit → next
        # pull) is part of the inline contract.
        return 1 if self._engine.level == "inline" else self._cfg.inflight

    def run(self) -> Iterator[tuple[BatchRecord, object]]:
        """Yield ``(record, result)`` in stream order under supervision."""

        for item in self._items:
            if item is ModelPoolService._FLUSH:
                # The source's queue ran dry: emit everything in flight so
                # waiting consumers are not held hostage by a half-full
                # window, then go back for more items.
                while self._window:
                    yield self._pop()
                continue
            unit = _Unit(item)
            self._window.append(unit)
            self._submit(unit)
            while len(self._window) >= self._inflight():
                yield self._pop()
            # Drain check sits *after* the item is in flight: an item the
            # source already handed over is flushed, not dropped — the
            # batcher's final closed_by="drain" batch above all.
            if self._sup.draining:
                break
        while self._window:
            yield self._pop()

    def close(self) -> None:
        """Shut the engine down, publish transport stats, unregister."""

        try:
            if self._engine is not None:
                self._engine.shutdown()
            if self._transport is not None:
                fallbacks = self._transport.fallbacks - self._fallback_base
                if fallbacks > 0:
                    self._count("shm_fallbacks", fallbacks)
                if self._owns_transport:
                    self._transport.close()
        finally:
            self._service._streams.discard(self)
            self._service._last_faults = dataclasses.replace(self._counters)
            self._service._last_level = (
                self._engine.level if self._engine is not None
                else self._sup.level
            )
            self._sup.stream_done()

    # ------------------------------------------------------------------
    def _count(self, field: str, n: int = 1) -> None:
        """Bump one fault counter on the stream and the service totals."""

        setattr(self._counters, field, getattr(self._counters, field) + n)
        totals = self._sup.totals
        setattr(totals, field, getattr(totals, field) + n)

    def _crashed(self) -> None:
        """Crash bookkeeping shared by every worker-death path."""

        self._count("crashes")
        if self._sup.note_crash():
            self._count("degraded")

    def _submit(self, unit: _Unit) -> None:
        if self._engine is None:
            # Deferred start (adaptive slab sizing): size the ring from
            # this first unit, then stand the pool up against it.
            self._transport.ensure_ring(unit.item)
            self._engine = _Engine(self._service, self._sup.level,
                                   self._transport)
        if hasattr(unit.item, "attempt"):
            unit.item.attempt = unit.attempt  # probe fault hooks see retries
        try:
            unit.future = self._engine.submit(unit.item)
            return
        except concurrent.futures.BrokenExecutor:
            # The pool died under an earlier in-flight unit before anyone
            # waited on it.  Nobody is charged for the submit itself:
            # rebuild, re-drive the window serially (the real culprit
            # crashes again alone and is charged there), then submit this
            # unit on the fresh engine.
            self._crashed()
            self._rebuild(force=True)
            if not self._recovering:
                self._recover_window(skip=unit)
        unit.future = self._engine.submit(unit.item)

    def _pop(self) -> tuple[BatchRecord, object]:
        unit = self._window.popleft()
        while unit.done is None and unit.error is None:
            self._await(unit, alone=False)
        if unit.error is not None:
            raise unit.error
        record, result = unit.done
        record.attempts = unit.attempt + 1
        self._sup.note_success(record.compress_s)
        return record, result

    def _await(self, unit: _Unit, alone: bool) -> None:
        """Wait out one attempt of ``unit``: resolve it, or charge/recover
        and leave it pending for another spin of the caller's loop.

        ``alone`` marks the serial-recovery context: the unit is the only
        one running, so a pool-wide failure needs no window recovery (the
        outer :meth:`_recover_window` loop owns the other units).
        """

        cfg = self._cfg
        try:
            record, result = self._engine.result(unit.future, cfg.unit_timeout_s)
        except concurrent.futures.TimeoutError:
            # The deadline clock runs while we wait on the unit's
            # emission.  A hung worker also wedges its executor slot, so
            # the engine is force-killed and rebuilt either way.
            self._count("timeouts")
            self._sup.transient = "retrying"
            exc: BaseException = UnitTimeoutError(
                f"unit seq={getattr(unit.item, 'seq', '?')} exceeded the "
                f"{cfg.unit_timeout_s}s deadline "
                f"(attempt {unit.attempt + 1}/{cfg.max_retries + 1})"
            )
            self._rebuild(force=True)
            if not alone:
                self._recover_window(skip=unit)
            self._charge(unit, exc)
            return
        except concurrent.futures.BrokenExecutor as broken:
            # Worker process death (SIGKILL/OOM): the pool is unusable and
            # every in-flight future failed at once.  Only the unit we
            # were waiting on is charged; the rest re-drive uncharged.
            self._crashed()
            self._sup.transient = "retrying"
            exc = WorkerCrashError(
                f"worker process died serving unit "
                f"seq={getattr(unit.item, 'seq', '?')} "
                f"(attempt {unit.attempt + 1}/{cfg.max_retries + 1})"
            )
            exc.__cause__ = broken
            self._rebuild(force=True)
            if not alone:
                self._recover_window(skip=unit)
            self._charge(unit, exc)
            return
        except WorkerCrashError as exc:
            # In-worker crash with the pool still alive (the inline/thread
            # levels' injected kill/corrupt-slab faults).  The breaker may
            # still trip — then the engine is swapped for the lower level
            # and the window re-driven on it.
            self._count("crashes")
            degraded = self._sup.note_crash()
            self._sup.transient = "retrying"
            self._engine.fail(unit.future)
            if degraded:
                self._count("degraded")
                self._rebuild(force=False)
                if not alone:
                    self._recover_window(skip=unit)
            self._charge(unit, exc)
            return
        except Exception as exc:
            # Plain worker exception: the unit failed, the pool is fine.
            self._engine.fail(unit.future)
            self._sup.transient = "retrying"
            self._charge(unit, exc)
            return
        except BaseException:
            # KeyboardInterrupt and friends: release the slab, propagate.
            self._engine.fail(unit.future)
            raise
        unit.done = (record, result)
        self._sup.transient = "healthy"

    def _charge(self, unit: _Unit, exc: BaseException) -> None:
        """Charge one failed attempt: resubmit within the retry budget, or
        record the terminal error at the unit's stream position."""

        if not self._service._idempotent or unit.attempt >= self._cfg.max_retries:
            self._count("failures")
            unit.error = exc
            return
        unit.attempt += 1
        self._count("retries")
        self._backoff(unit.attempt)
        self._submit(unit)

    def _backoff(self, attempt: int) -> None:
        """Exponential backoff with jitter before retry ``attempt``."""

        base = self._cfg.backoff_base_s
        if base <= 0:
            return
        time.sleep(base * (2 ** (attempt - 1)) * (0.5 + random.random()))

    def _rebuild(self, force: bool) -> None:
        """Tear the engine down and stand a fresh one up at the current
        (possibly just-degraded) ladder level; quarantine the slab ring
        when a process pool died mid-write."""

        self._count("rebuilds")
        self._sup.transient = "rebuilding"
        self._engine.shutdown(force=force)
        level = self._sup.level
        if self._transport is not None:
            if level == "process":
                if self._transport.quarantine_ring():
                    self._count("ring_rebuilds")
            else:
                # Degraded below the process level: no pool will attach
                # again, so drop the (possibly corrupt) ring outright.
                self._transport.drop_ring()
        self._engine = _Engine(self._service, level, self._transport)

    def _recover_window(self, skip: _Unit | None = None) -> None:
        """Serially re-drive every pending in-flight unit on the rebuilt
        engine.

        A pool-wide failure kills every in-flight future at once, which
        says nothing about *which* unit was responsible.  Running the
        survivors one at a time, alone, pins any further failure on the
        unit that actually causes it: innocent units are re-submitted
        uncharged (legal — units are pure), and the original victim
        (``skip``) is left to its own charged retry by the caller.
        """

        self._recovering = True
        try:
            for unit in list(self._window):
                if unit is skip or unit.done is not None or unit.error is not None:
                    continue
                if not self._service._idempotent:
                    self._count("failures")
                    unit.error = WorkerCrashError(
                        f"in-flight unit seq={getattr(unit.item, 'seq', '?')} "
                        "was lost to a worker crash and this service's "
                        "units are not idempotent — not re-run"
                    )
                    continue
                self._submit(unit)
                while unit.done is None and unit.error is None:
                    self._await(unit, alone=True)
        finally:
            self._recovering = False


class StreamingCompressionService(ModelPoolService):
    """Micro-batching, multi-worker wedge compression.

    Parameters
    ----------
    model:
        A :class:`BicephalousAutoencoder`; each worker compiles its own
        compressor (and fast-path workspaces) against it.  The service
        puts the model in eval mode — serving is inference.
    config:
        :class:`ServiceConfig`; defaults are single-core friendly.

    Example
    -------
    >>> from repro.core import build_model
    >>> from repro.serve import ServiceConfig, StreamingCompressionService
    >>> model = build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)
    >>> service = StreamingCompressionService(model, ServiceConfig(max_batch=8))
    >>> payloads, stats = service.run(wedges)      # wedges: iterable of (R, A, H)
    >>> stats.wedges_per_second                    # doctest: +SKIP
    812.4
    """

    _kind = "compress"

    def _work(self, compressor: BCAECompressor, batch: MicroBatch) -> CompressedWedges:
        # compress_into without `out` returns owned payload bytes — safe to
        # hand across threads while the worker reuses its workspaces.
        return compressor.compress_into(batch.wedges)

    def _adaptive_slab_nbytes(self, batch: MicroBatch) -> int:
        """Slab size fitting ``max_batch`` wedges of input and their codes.

        The codes side uses the exact ``code_shape_for`` arithmetic the
        worker applies (fp16 = 2 bytes/element), so a full-size batch
        round-trips through one slab with zero pickle fallbacks.
        """

        wedges = np.asarray(batch.wedges)
        spatial = wedges.shape[1:]
        per_input = int(np.prod(spatial)) * wedges.dtype.itemsize
        compressor = self._acquire()
        try:
            code_shape = compressor.code_shape_for(spatial)
        finally:
            self._release([compressor])
        per_codes = int(np.prod(code_shape)) * 2
        return self.config.max_batch * max(per_input, per_codes)

    # ------------------------------------------------------------------
    def compress_stream(
        self, source: Iterable[StreamItem] | Sequence[np.ndarray] | np.ndarray
    ) -> Iterator[tuple[BatchRecord, CompressedWedges]]:
        """Compress a stream; yields ``(record, payload)`` in stream order.

        ``source`` may be an iterable of :class:`StreamItem` (timed), a
        sequence of single wedges, or a stacked ``(N, R, A, H)`` array.
        """

        items = _as_stream(source)
        batches = MicroBatcher(
            self.config.max_batch, self.config.max_delay_s
        ).batches(items, stop=self._supervisor.drain_requested)
        yield from self._serve(batches)

    # ------------------------------------------------------------------
    def run(
        self, source, keep_payloads: bool = True
    ) -> tuple[list[CompressedWedges], ServiceStats]:
        """Serve a whole stream; returns payloads (in order) and stats."""

        return self._collect(self.compress_stream(source), keep_payloads)

    # ------------------------------------------------------------------
    def compress_stream_async(
        self, source
    ) -> AsyncIterator[tuple[BatchRecord, CompressedWedges]]:
        """Async ingestion: wedges → wall-clock micro-batches → payloads.

        ``source`` may be any async iterable of wedges/:class:`StreamItem`
        (e.g. an :class:`~repro.serve.source.AsyncQueueSource` or
        :class:`~repro.serve.source.AsyncSocketSource`) or any source
        :meth:`compress_stream` accepts.  Batches close on ``max_batch`` or
        when ``config.max_delay_s`` of *wall-clock* time (monotonic, not
        replayed stream time) elapses since the batch's first wedge
        arrived; ``(record, payload)`` pairs emit in arrival order through
        the bounded in-flight window.

        Example
        -------
        >>> async def pump(service, source):
        ...     async for record, payload in service.compress_stream_async(source):
        ...         archive.append(payload)            # doctest: +SKIP
        """

        batcher = AsyncMicroBatcher(self.config.max_batch, self.config.max_delay_s)
        return self.serve_async(batcher.batches(
            aiter_wedges(source), stop=self._supervisor.drain_requested
        ))

    async def run_async(
        self, source, keep_payloads: bool = True
    ) -> tuple[list[CompressedWedges], ServiceStats]:
        """Serve a whole async stream; returns payloads (in order) and stats."""

        return await self._collect_async(
            self.compress_stream_async(source), keep_payloads
        )


class DecompressionService(ModelPoolService):
    """Multi-worker payload decompression — the analysis side of the loop.

    Consumes :class:`CompressedWedges` batches (e.g. loaded from
    :mod:`repro.io` archives), re-chunks them to ``max_batch`` wedges, and
    fans them out to workers calling ``BCAECompressor.decompress_into``
    (the compiled :class:`~repro.core.fast_decode.FastDecoder` path where
    the model supports it).  Reconstructions are owned float32 arrays
    ``(B, R, A, H)``, emitted in stream order, bit-identical to serial
    ``decompress`` calls.

    Example
    -------
    >>> from repro.io import load_compressed
    >>> from repro.serve import DecompressionService, ServiceConfig
    >>> compressed, name = load_compressed("codes.npz")   # doctest: +SKIP
    >>> service = DecompressionService(model, ServiceConfig(max_batch=8))
    >>> recons, stats = service.run([compressed])         # doctest: +SKIP
    """

    _kind = "decompress"

    def _work(self, compressor: BCAECompressor, item: PayloadItem) -> np.ndarray:
        # Copy out of the worker's reused workspace before hand-off.
        return np.array(compressor.decompress_into(item.compressed))

    def _adaptive_slab_nbytes(self, item: PayloadItem) -> int:
        """Slab size fitting ``max_batch`` wedges of payload and recon.

        The reconstruction dominates: fp32 at the full wedge geometry,
        recovered from the payload header by the model's
        :class:`~repro.core.geometry.WedgeGeometry` (3D models carry
        their exact input shape; the 2D family inverts the encoder's
        downsampling of the code's azimuthal extent).
        """

        c = item.compressed
        n_wedges = max(1, int(c.n_wedges))
        per_payload = -(-int(c.nbytes) // n_wedges)
        per_recon = 4 * int(np.prod(WedgeGeometry.of(self.model).recon_shape(
            c.code_shape, c.original_horizontal)))
        return self.config.max_batch * max(per_payload, per_recon)

    # ------------------------------------------------------------------
    def _as_items(
        self, source: Iterable[CompressedWedges] | CompressedWedges
    ) -> Iterator[PayloadItem]:
        if isinstance(source, CompressedWedges):
            source = [source]
        # Only the pickle transport needs owned bytes up front; the shm
        # path memcpys straight from the memoryview (its oversize fallback
        # converts per unit via _picklable).
        pickled = (
            self.config.backend == "process"
            and self.config.workers > 0
            and self.config.transport == "pickle"
        )
        seq = 0
        first = 0
        for compressed in source:
            for chunk in split_compressed(compressed, self.config.max_batch):
                if pickled and not isinstance(chunk.payload, bytes):
                    chunk = dataclasses.replace(
                        chunk, payload=bytes(chunk.payload)
                    )
                yield PayloadItem(seq=seq, first_seq=first, compressed=chunk)
                seq += 1
                first += chunk.n_wedges

    def decompress_stream(
        self, source: Iterable[CompressedWedges] | CompressedWedges
    ) -> Iterator[tuple[BatchRecord, np.ndarray]]:
        """Decompress payload batches; yields ``(record, recon)`` in order."""

        yield from self._serve(self._as_items(source))

    # ------------------------------------------------------------------
    def run(
        self, source, keep_recons: bool = True
    ) -> tuple[list[np.ndarray], ServiceStats]:
        """Serve a payload stream; returns reconstructions and stats."""

        return self._collect(self.decompress_stream(source), keep_recons)

    # ------------------------------------------------------------------
    def decompress_stream_async(
        self, source
    ) -> AsyncIterator[tuple[BatchRecord, np.ndarray]]:
        """Async twin of :meth:`decompress_stream` (same re-chunking)."""

        return self.serve_async(self._as_items(source))

    async def run_async(
        self, source, keep_recons: bool = True
    ) -> tuple[list[np.ndarray], ServiceStats]:
        """Serve a payload stream asynchronously; recons and stats."""

        return await self._collect_async(
            self.decompress_stream_async(source), keep_recons
        )


# ----------------------------------------------------------------------
# Probe workload: the hand-off measured in isolation.
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ProbeItem:
    """One transport-probe work unit: an array to ship, touch, and ack.

    The deterministic fault-injection hooks the supervision tests drive
    every recovery path with, on every backend, without corrupting real
    model state:

    * ``poison`` — the worker raises ``RuntimeError`` (a plain worker
      exception: the unit fails, the pool survives);
    * ``fault="kill"`` — the worker SIGKILLs its own process (process
      backend; on inline/thread, where suicide would take the service
      down, it raises :class:`WorkerCrashError` instead — the same
      supervisor path, minus the pool rebuild);
    * ``fault="hang"`` — the worker sleeps ``hang_s`` before answering,
      to trip ``unit_timeout_s`` deadlines;
    * ``fault="corrupt-slab"`` — the worker scribbles over its input
      slab *and then* crashes like ``kill``, modelling a writer dying
      mid-write (the supervisor must quarantine the ring).

    ``fail_attempts`` bounds the injection: the fault fires only while
    ``attempt < fail_attempts`` (``None`` = always), so one item can
    deterministically crash twice and then succeed on the third try —
    the retry-succeeds and degraded-fallback matrices.  ``attempt`` is
    stamped by the supervisor before each submission.
    """

    seq: int
    first_seq: int
    payload: np.ndarray
    poison: bool = False
    #: One of ``"poison"``/``"kill"``/``"hang"``/``"corrupt-slab"``
    #: (empty = healthy unit); ``poison=True`` is shorthand for "poison".
    fault: str = ""
    #: Sleep duration for ``fault="hang"``.
    hang_s: float = 0.0
    #: Inject the fault only on attempts ``< fail_attempts`` (None = all).
    fail_attempts: int | None = None
    #: Current attempt index (stamped by the supervisor on submission).
    attempt: int = 0

    @property
    def n_wedges(self) -> int:
        return int(self.payload.shape[0]) if self.payload.ndim else 1


#: True only inside a process-pool worker (set by _process_init); the
#: injected "kill" fault SIGKILLs the process there, but must not shoot
#: the serving process itself on the inline/thread levels.
_IN_POOL_WORKER = False


def _maybe_injected_kill(seq: int) -> None:
    """Deterministic worker-death hook for acceptance tests and benches.

    When ``REPRO_SERVE_KILL_FILE`` names an existing file and
    ``REPRO_SERVE_KILL_SEQ`` matches this unit's seq, the worker unlinks
    the file (exactly-once arbitration between racing workers) and
    SIGKILLs itself — a real mid-unit process death on the *real*
    compress/decompress services, no probe item required.
    """

    path = os.environ.get("REPRO_SERVE_KILL_FILE")
    if not path or os.environ.get("REPRO_SERVE_KILL_SEQ") != str(seq):
        return
    try:
        os.unlink(path)
    except OSError:
        return  # another attempt already consumed the kill token
    os.kill(os.getpid(), signal.SIGKILL)


def _probe_work(payload: np.ndarray, poison: bool = False, fault: str = "",
                hang_s: float = 0.0, attempt: int = 0,
                fail_attempts: int | None = None, ring: SlabRing | None = None,
                slab: int | None = None):
    fault = fault or ("poison" if poison else "")
    if fault and fault not in _FAULT_KINDS:
        raise ValueError(f"fault must be one of {_FAULT_KINDS}, got {fault!r}")
    active = bool(fault) and (fail_attempts is None or attempt < fail_attempts)
    if active:
        if fault == "poison":
            raise RuntimeError("injected worker fault (poisoned probe unit)")
        if fault == "hang":
            time.sleep(hang_s)
        else:  # kill / corrupt-slab
            if fault == "corrupt-slab" and ring is not None and slab is not None:
                # A writer dying mid-write: scribble over the slab first.
                ring.view(slab)[:] = b"\xa5" * ring.slab_nbytes
            if _IN_POOL_WORKER:
                os.kill(os.getpid(), signal.SIGKILL)
            raise WorkerCrashError(f"injected worker crash ({fault} probe unit)")
    # Touch every input byte — a real worker reads its whole unit — and
    # return a checksum small enough that the ack cost is the floor.
    return float(np.asarray(payload).sum(dtype=np.float64))


class HandoffProbeService(ModelPoolService):
    """The serving engine with the model call replaced by a checksum.

    Same batching, pooling, ordering, and transport machinery as the real
    services — but each unit's "work" is reading the payload and returning
    a float.  This isolates the process-boundary hand-off, which is what
    ``bench_serving.py`` gates shm against pickle on, and gives the fault
    tests a worker that fails on command (``ProbeItem.poison``).
    """

    _kind = "probe"

    def __init__(self, config: ServiceConfig | None = None) -> None:
        super().__init__(model=None, config=config)

    def _work(self, compressor: BCAECompressor, item: ProbeItem):
        return _probe_work(item.payload, item.poison, fault=item.fault,
                           hang_s=item.hang_s, attempt=item.attempt,
                           fail_attempts=item.fail_attempts)

    def _adaptive_slab_nbytes(self, item: ProbeItem) -> int:
        """Probe units ship whole arrays; the ack is a float — size the
        slab to the first unit's payload."""

        return int(np.asarray(item.payload).nbytes)

    @staticmethod
    def items(arrays: Sequence[np.ndarray], poison_seqs: Sequence[int] = (),
              faults: dict | None = None, hang_s: float = 0.05,
              fail_attempts: int | None = None) -> list[ProbeItem]:
        """Wrap arrays as probe units, optionally injecting faults.

        ``poison_seqs`` poisons those seqs (back-compat shorthand);
        ``faults`` maps ``seq -> kind`` for the full matrix (see
        :class:`ProbeItem`), with ``hang_s``/``fail_attempts`` applied to
        every injected unit.
        """

        kinds = dict(faults or {})
        for seq in poison_seqs:
            kinds.setdefault(seq, "poison")
        items, first = [], 0
        for seq, a in enumerate(arrays):
            a = np.asarray(a)
            fault = kinds.get(seq, "")
            items.append(ProbeItem(seq=seq, first_seq=first, payload=a,
                                   poison=fault == "poison", fault=fault,
                                   hang_s=hang_s if fault == "hang" else 0.0,
                                   fail_attempts=fail_attempts))
            first += int(a.shape[0]) if a.ndim else 1
        return items

    def run(self, arrays, keep_results: bool = False):
        """Serve arrays (or prebuilt :class:`ProbeItem` units)."""

        items = [a for a in arrays]
        if items and not isinstance(items[0], ProbeItem):
            items = self.items(items)
        return self._collect(self._serve(iter(items)), keep_results)


# ----------------------------------------------------------------------
# Process-backend plumbing: workers own a resident compressor built once in
# the child (model crosses by fork/pickle at pool start, never per unit) and,
# under transport="shm", a mapped view of the parent's slab ring.
# ----------------------------------------------------------------------

_PROCESS_COMPRESSOR: BCAECompressor | None = None
_PROCESS_RING: SlabRing | None = None


def _make_compressor(model, half: bool, workers: int,
                     rate_policy: str | None = None,
                     rate_budget_mbps: float | None = None):
    """One pooled compressor — plain BCAE, or the adaptive tier around it.

    Shared by the in-process pool (:meth:`ModelPoolService._build_compressor`)
    and the process-backend worker initializer, so every execution level
    hosts the *same* compressor construction (the serving-parity contract).
    """

    compressor = BCAECompressor(model, half=half, _workers=workers)
    if rate_policy is None:
        return compressor
    from ..rate import AdaptiveCompressor, make_policy

    return AdaptiveCompressor(
        compressor, make_policy(rate_policy, budget_mbps=rate_budget_mbps)
    )


def _process_init(model, half: bool, ring_spec=None, workers: int = 1,
                  rate_policy: str | None = None,
                  rate_budget_mbps: float | None = None) -> None:
    global _PROCESS_COMPRESSOR, _PROCESS_RING, _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    _PROCESS_COMPRESSOR = _make_compressor(model, half, workers,
                                           rate_policy, rate_budget_mbps)
    _PROCESS_RING = SlabRing.attach(ring_spec) if ring_spec is not None else None


def _record(item_or_work, dt: float) -> BatchRecord:
    return BatchRecord(
        seq=item_or_work.seq,
        first_seq=item_or_work.first_seq,
        n_wedges=item_or_work.n_wedges,
        compress_s=dt,
        worker=f"p{os.getpid()}",
        wait_s=getattr(item_or_work, "wait_s", 0.0),
        closed_by=getattr(item_or_work, "closed_by", ""),
    )


def _process_work(kind: str, item) -> tuple[BatchRecord, object]:
    """Pickle-transport worker: the whole unit crossed by value."""

    compressor = _PROCESS_COMPRESSOR
    assert compressor is not None, "process pool initializer did not run"
    _maybe_injected_kill(item.seq)
    t0 = time.perf_counter()
    if kind == "compress":
        result: object = compressor.compress_into(item.wedges)
    elif kind == "decompress":
        result = np.array(compressor.decompress_into(item.compressed))
    else:
        result = _probe_work(item.payload, item.poison, fault=item.fault,
                             hang_s=item.hang_s, attempt=item.attempt,
                             fail_attempts=item.fail_attempts)
    return _record(item, time.perf_counter() - t0), result


@dataclasses.dataclass
class _ShmWork:
    """Slab-transport work descriptor — the only thing pickled per unit."""

    kind: str
    seq: int
    first_seq: int
    n_wedges: int
    array: SlabArray          # the unit's input payload, in its slab
    meta: tuple = ()          # kind-specific extras (see _ProcessTransport)
    wait_s: float = 0.0
    closed_by: str = ""


@dataclasses.dataclass(frozen=True)
class _SlabPayload:
    """Result descriptor: a CompressedWedges whose bytes live in the slab."""

    slab: int
    nbytes: int
    code_shape: tuple[int, ...]
    n_wedges: int
    original_horizontal: int
    half: bool | None
    code_dtype: str
    #: Adaptive-tier extras (None for fixed-rate BCAE payloads).  The
    #: decision ledger is tiny, so it rides in the pickled descriptor
    #: while the record bytes cross through the slab.
    codec_ids: tuple[int, ...] | None = None
    record_sizes: tuple[int, ...] | None = None
    decisions: tuple | None = None


@dataclasses.dataclass(frozen=True)
class _SlabFallback:
    """A result that did not fit its slab and crossed by value instead."""

    value: object


def _process_work_shm(work: _ShmWork) -> tuple[BatchRecord, object]:
    """Slab-transport worker: payloads move by memcpy, never by pickle.

    The input is read in place from the unit's slab; the result is written
    back into the *same* slab (the input has been consumed by then), so one
    lease covers the unit's whole round trip.  Results larger than the slab
    cross by value, wrapped in :class:`_SlabFallback`.
    """

    compressor = _PROCESS_COMPRESSOR
    ring = _PROCESS_RING
    assert compressor is not None and ring is not None, "shm pool init did not run"
    _maybe_injected_kill(work.seq)
    t0 = time.perf_counter()
    result: object
    if work.kind == "compress":
        wedges = ring.read_array(work.array, copy=False)
        if getattr(compressor, "is_adaptive", False):
            # Adaptive records are variable-size, so the payload is
            # compressed to owned bytes first and memcpy'd into the slab
            # when it fits; the tiny decision ledger rides the descriptor.
            compressed = compressor.compress_into(wedges)
            if compressed.nbytes <= ring.slab_nbytes:
                ring.view(work.array.slab, compressed.nbytes)[:] = (
                    compressed.payload
                )
                result = _SlabPayload(
                    slab=work.array.slab,
                    nbytes=compressed.nbytes,
                    code_shape=tuple(compressed.code_shape),
                    n_wedges=compressed.n_wedges,
                    original_horizontal=compressed.original_horizontal,
                    half=compressed.half,
                    code_dtype=compressed.code_dtype,
                    codec_ids=compressed.codec_ids,
                    record_sizes=compressed.record_sizes,
                    decisions=compressed.decisions,
                )
            else:
                result = _SlabFallback(compressed)
        else:
            code_shape = compressor.code_shape_for(wedges.shape[1:])
            code_nbytes = wedges.shape[0] * int(np.prod(code_shape)) * 2
            if code_nbytes <= ring.slab_nbytes:
                # Zero-copy result: compress_into writes the fp16 codes
                # straight into the slab (over the consumed input).
                out = ring.view(work.array.slab)
                compressed = compressor.compress_into(wedges, out=out)
                result = _SlabPayload(
                    slab=work.array.slab,
                    nbytes=compressed.nbytes,
                    code_shape=tuple(compressed.code_shape),
                    n_wedges=compressed.n_wedges,
                    original_horizontal=compressed.original_horizontal,
                    half=compressed.half,
                    code_dtype=compressed.code_dtype,
                )
            else:
                compressed = compressor.compress_into(wedges)
                result = _SlabFallback(dataclasses.replace(
                    compressed, payload=bytes(compressed.payload)
                ))
    elif work.kind == "decompress":
        (code_shape, n_payload, horizontal, half, code_dtype,
         codec_ids, record_sizes, decisions) = work.meta
        compressed = CompressedWedges(
            payload=ring.view(work.array.slab, work.array.nbytes),
            code_shape=code_shape,
            n_wedges=n_payload,
            original_horizontal=horizontal,
            half=half,
            code_dtype=code_dtype,
            codec_ids=codec_ids,
            record_sizes=record_sizes,
            decisions=decisions,
        )
        recon = compressor.decompress_into(compressed)
        if recon.nbytes <= ring.slab_nbytes:
            result = ring.write_array(work.array.slab, recon)
        else:
            result = _SlabFallback(np.array(recon))
    else:
        poison, fault, hang_s, attempt, fail_attempts = work.meta
        result = _probe_work(ring.read_array(work.array, copy=False), poison,
                             fault=fault, hang_s=hang_s, attempt=attempt,
                             fail_attempts=fail_attempts, ring=ring,
                             slab=work.array.slab)
    return _record(work, time.perf_counter() - t0), result


class _ProcessTransport:
    """Per-stream hand-off policy for the process backend.

    Owns the slab ring (``transport="shm"``), decides shm-vs-pickle per
    unit (graceful fallback when a payload exceeds the slab), materializes
    result descriptors, and guarantees every leased slab is released — on
    success, on worker exception, and (via :meth:`close`) when the stream
    is abandoned.  One instance per served stream; :meth:`close` publishes
    debug counters to ``service.last_shm`` and unlinks the segment.
    """

    def __init__(self, service: ModelPoolService) -> None:
        cfg = service.config
        self._service = service
        self._kind = service._kind
        self.ring: SlabRing | None = None
        self.input_fallbacks = 0
        self.result_fallbacks = 0
        self.ring_rebuilds = 0
        self._want_shm = (cfg.transport == "shm" and cfg.workers > 0
                          and shm_available())
        if self._want_shm and cfg.shm_slab_mb is not None:
            self.ring = SlabRing.create(cfg.inflight, cfg.slab_nbytes)
        # Adaptive sizing (shm_slab_mb=None) defers ring creation to
        # ensure_ring(), fed by the first work unit.
        self._had_ring = self.ring is not None

    @property
    def fallbacks(self) -> int:
        """Units that degraded to pickle in either direction (lifetime)."""

        return self.input_fallbacks + self.result_fallbacks

    @property
    def ring_pending(self) -> bool:
        """True while the adaptively-sized ring awaits its first unit."""

        return self._want_shm and self.ring is None

    def ensure_ring(self, item) -> None:
        """Create the adaptively-sized ring from the first unit (no-op
        once the ring exists or shm is not in play).

        The size comes from the owning service's
        ``_adaptive_slab_nbytes`` arithmetic — ``max_batch`` wedges of
        input versus the ``code_shape_for``-sized result — rounded up to
        4 KiB pages so the kernel-page mapping is never partially used.
        """

        if not self.ring_pending:
            return
        nbytes = int(self._service._adaptive_slab_nbytes(item))
        nbytes = max(4096, -(-nbytes // 4096) * 4096)
        self.ring = SlabRing.create(self._service.config.inflight, nbytes)
        self._had_ring = True

    def initargs(self) -> tuple:
        cfg = self._service.config
        spec = self.ring.spec() if self.ring is not None else None
        return (self._service.model, cfg.half, spec, cfg.workers,
                cfg.rate_policy, cfg.rate_budget_mbps)

    # -- per-kind payload plumbing --------------------------------------
    def _unit_array(self, item) -> np.ndarray:
        if self._kind == "compress":
            return item.wedges
        if self._kind == "decompress":
            return np.frombuffer(item.compressed.payload, dtype=np.uint8)
        return np.asarray(item.payload)

    def _unit_meta(self, item) -> tuple:
        if self._kind == "decompress":
            c = item.compressed
            return (tuple(c.code_shape), c.n_wedges, c.original_horizontal,
                    c.half, c.code_dtype, c.codec_ids, c.record_sizes,
                    c.decisions)
        if self._kind == "probe":
            return (item.poison, item.fault, item.hang_s, item.attempt,
                    item.fail_attempts)
        return ()

    # -- submit/finalize hooks ------------------------------------------
    def submit(self, pool, item):
        ring = self.ring
        if ring is not None:
            array = self._unit_array(item)
            slab = ring.try_lease() if array.nbytes <= ring.slab_nbytes else None
            if slab is not None:
                work = _ShmWork(
                    kind=self._kind,
                    seq=item.seq,
                    first_seq=item.first_seq,
                    n_wedges=item.n_wedges,
                    array=ring.write_array(slab, array),
                    meta=self._unit_meta(item),
                    wait_s=getattr(item, "wait_s", 0.0),
                    closed_by=getattr(item, "closed_by", ""),
                )
                future = pool.submit(_process_work_shm, work)
                future._slab = slab
                # Tag the lease's ring: after a quarantine-and-rebuild,
                # stale futures must not release old-ring indices into
                # the fresh ring (see finalize/fail guards).
                future._ring = ring
                return future
            self.input_fallbacks += 1
        future = pool.submit(_process_work, self._kind, _picklable(item))
        future._slab = None
        future._ring = None
        return future

    def finalize(self, future, record: BatchRecord, result):
        slab = getattr(future, "_slab", None)
        try:
            if isinstance(result, _SlabPayload):
                result = CompressedWedges(
                    payload=self.ring.read_bytes(result.slab, result.nbytes),
                    code_shape=result.code_shape,
                    n_wedges=result.n_wedges,
                    original_horizontal=result.original_horizontal,
                    half=result.half,
                    code_dtype=result.code_dtype,
                    codec_ids=result.codec_ids,
                    record_sizes=result.record_sizes,
                    decisions=result.decisions,
                )
            elif isinstance(result, SlabArray):
                result = self.ring.read_array(result, copy=True)
            elif isinstance(result, _SlabFallback):
                self.result_fallbacks += 1
                result = result.value
            record.transport = "shm" if slab is not None else "pickle"
        finally:
            if slab is not None and getattr(future, "_ring", None) is self.ring:
                self.ring.release(slab)
        return record, result

    def fail(self, future) -> None:
        """Release a failed unit's slab (the worker raised).

        A slab leased from a ring that has since been quarantined is left
        alone — its segment is already destroyed, and its index must not
        alias a lease in the replacement ring.
        """

        slab = getattr(future, "_slab", None)
        if (slab is not None and self.ring is not None
                and getattr(future, "_ring", None) is self.ring):
            self.ring.release(slab)

    # -- crash recovery --------------------------------------------------
    def quarantine_ring(self) -> bool:
        """Replace the slab ring after a worker process died (or hung).

        A dead writer may have left any slab mid-write and its leases can
        never be trusted again, so the whole segment is destroyed
        (reclaiming every lease) and a fresh ring of the same geometry is
        created for the rebuilt pool.  Returns True when a ring was
        actually replaced.
        """

        if self.ring is None:
            return False
        # Replace with the *actual* geometry — under adaptive sizing the
        # live ring's slab size came from the first unit, not the config.
        n_slabs, slab_nbytes = self.ring.n_slabs, self.ring.slab_nbytes
        self.ring.destroy()
        self.ring = SlabRing.create(n_slabs, slab_nbytes)
        self.ring_rebuilds += 1
        return True

    def drop_ring(self) -> None:
        """Destroy the ring with no replacement (degraded below process)."""

        self._want_shm = False
        if self.ring is not None:
            self.ring.destroy()
            self.ring = None

    def close(self) -> None:
        """Publish debug stats and destroy the segment (idempotent)."""

        stats = {
            "transport": "shm" if (self.ring is not None or self._had_ring)
            else "pickle",
            "input_fallbacks": self.input_fallbacks,
            "result_fallbacks": self.result_fallbacks,
            "ring_rebuilds": self.ring_rebuilds,
        }
        if self.ring is not None:
            stats.update(
                name=self.ring.spec().name,
                n_slabs=self.ring.n_slabs,
                slab_nbytes=self.ring.slab_nbytes,
                leased_at_close=self.ring.leased_count(),
            )
            self.ring.destroy()
            self.ring = None
        self._service.last_shm = stats


def _picklable(item):
    """Ensure a fallback unit survives pickling (memoryview payloads)."""

    compressed = getattr(item, "compressed", None)
    if compressed is not None and not isinstance(compressed.payload, bytes):
        return dataclasses.replace(
            item, compressed=dataclasses.replace(
                compressed, payload=bytes(compressed.payload)
            )
        )
    return item


class _Checkout:
    """Per-stream, per-thread compressor checkout.

    Scoped to one stream: each worker thread gets its own compressor from
    the service's idle pool (or a fresh one if the pool is drained by a
    concurrent stream), and everything returns to the pool when the stream
    finishes.  This keeps the non-thread-safe compressor workspaces
    exclusive without any lock on the hot path.
    """

    def __init__(self, service: ModelPoolService) -> None:
        self._service = service
        self._local = threading.local()
        self._lock = threading.Lock()
        self._taken: list[BCAECompressor] = []

    def get(self) -> tuple[str, BCAECompressor]:
        got = getattr(self._local, "checkout", None)
        if got is None:
            compressor = self._service._acquire()
            with self._lock:
                name = f"w{len(self._taken)}"
                self._taken.append(compressor)
            got = (name, compressor)
            self._local.checkout = got
        return got

    def release(self) -> None:
        with self._lock:
            taken, self._taken = self._taken, []
        self._service._release(taken)


class AsyncServingSession:
    """Async façade over one :class:`ModelPoolService` stream.

    Opens the configured backend once (private single-thread executor for
    ``workers=0`` so inline work never blocks the event loop, thread pool,
    or process pool with the shm/pickle transport), then:

    * ``await submit(unit)`` — hands one work unit to the backend and
      returns its :class:`asyncio.Future`.  Backpressure: when
      ``config.inflight`` units are submitted but not yet emitted, submit
      awaits until the consumer pops a result.
    * ``await next_result()`` / ``async for ... in results()`` — ordered
      emission: units come back in submission order regardless of which
      worker finished first.
    * ``await aclose()`` — drains every in-flight unit (nothing is
      orphaned; failed units release their slabs), shuts the backend down,
      and destroys the slab ring.  Also an async context manager.

    A worker exception surfaces on the owning unit's future (and from
    ``next_result`` at that unit's position); other units and later
    streams are unaffected.

    Example
    -------
    >>> async with service.session() as session:         # doctest: +SKIP
    ...     fut = await session.submit(unit)
    ...     async for result in session.results():
    ...         consume(result)
    """

    def __init__(self, service: ModelPoolService) -> None:
        cfg = service.config
        if service._supervisor.drain_requested():
            raise RuntimeError("service is draining/drained — no new sessions")
        self._service = service
        self._loop = asyncio.get_running_loop()
        self._window: collections.deque = collections.deque()
        self._emitted = asyncio.Event()
        self._closed = False
        self._transport: _ProcessTransport | None = None
        self._checkout: _Checkout | None = None
        if cfg.workers > 0 and cfg.backend == "process":
            self._transport = _ProcessTransport(service)
            # Adaptive slab sizing: the ring (and the pool, whose workers
            # attach the ring at init) wait for the first submitted unit.
            self._pool = None
            if not self._transport.ring_pending:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    cfg.workers,
                    initializer=_process_init,
                    initargs=self._transport.initargs(),
                )
        else:
            self._checkout = _Checkout(service)
            self._pool = concurrent.futures.ThreadPoolExecutor(max(1, cfg.workers))

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Units submitted but not yet emitted."""

        return len(self._window)

    @property
    def closed(self) -> bool:
        return self._closed

    async def submit(self, item) -> asyncio.Future:
        """Submit one work unit; returns the unit's future.

        The future completes when the unit's worker finishes, and a worker
        exception surfaces as the future's exception — that is its primary
        contract.  Its *value* is the materialized result only for the
        inline/thread backends; under the process backend it may be an
        internal transport descriptor (the slab is materialized and
        released by the ordered emission path), so consume results through
        :meth:`next_result`/:meth:`results`, not from this future.
        """

        if self._closed:
            raise RuntimeError("session is closed")
        while len(self._window) >= self._service.config.inflight:
            self._emitted.clear()
            await self._emitted.wait()
        if self._pool is None:
            cfg = self._service.config
            self._transport.ensure_ring(item)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                cfg.workers,
                initializer=_process_init,
                initargs=self._transport.initargs(),
            )
        if self._transport is not None:
            cf = self._transport.submit(self._pool, item)
        else:
            cf = self._pool.submit(self._service._execute, self._checkout, item)
        future = asyncio.wrap_future(cf, loop=self._loop)
        future._cf = cf
        self._window.append(future)
        return future

    async def next_result(self) -> tuple[BatchRecord, object]:
        """Await and emit the oldest in-flight unit (submission order)."""

        if not self._window:
            raise RuntimeError("no in-flight units")
        future = self._window.popleft()
        try:
            return await self._finish(future)
        finally:
            self._emitted.set()

    async def results(self) -> AsyncIterator[tuple[BatchRecord, object]]:
        """Ordered async iteration over everything currently in flight."""

        while self._window:
            yield await self.next_result()

    async def _finish(self, future) -> tuple[BatchRecord, object]:
        cf = getattr(future, "_cf", future)
        try:
            record, result = await future
        except BaseException:
            # Release the slab only when the worker is actually done with
            # it (worker exception).  If *this await* was cancelled while
            # the worker still runs, the slab stays leased — it is
            # reclaimed when the ring is destroyed at close, and must not
            # be handed to another unit mid-write.
            if self._transport is not None and cf.done():
                self._transport.fail(cf)
            raise
        if self._transport is not None:
            record, result = self._transport.finalize(cf, record, result)
        return record, result

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Drain in-flight units, release all slabs, shut the backend down.

        Robust to being called from a *cancelled* task (the common early-
        close path): draining may be cut short by the pending
        ``CancelledError``, but the backend shutdown below is synchronous —
        it waits out whatever is still executing — so no unit is ever
        orphaned and the slab ring is always destroyed.  The cancellation
        is re-raised after cleanup.
        """

        if self._closed:
            return
        self._closed = True
        cancelled: BaseException | None = None
        try:
            while self._window:
                try:
                    await self.next_result()
                except asyncio.CancelledError:
                    raise
                except Exception:
                    pass  # drained; the error already surfaced on its future
        except asyncio.CancelledError as exc:
            cancelled = exc
        finally:
            try:
                # Wait out in-flight workers off the event loop so
                # co-scheduled tasks keep running during long compute; if
                # even that wait is cancelled, fall back to blocking —
                # the no-orphaned-work guarantee outranks loop liveness.
                try:
                    if self._pool is not None:
                        await asyncio.get_running_loop().run_in_executor(
                            None, lambda: self._pool.shutdown(wait=True)
                        )
                except asyncio.CancelledError as exc:
                    cancelled = exc
                    self._pool.shutdown(wait=True)
            finally:
                if self._transport is not None:
                    fallbacks = self._transport.fallbacks
                    self._transport.close()
                    if fallbacks:
                        # Surface silent shm→pickle degradation where the
                        # bench/health layers look: the service's fault
                        # totals and the most recent stream's counters.
                        self._service._supervisor.totals.shm_fallbacks += fallbacks
                        self._service._last_faults = FaultCounters(
                            shm_fallbacks=fallbacks
                        )
                if self._checkout is not None:
                    self._checkout.release()
        if cancelled is not None:
            raise cancelled

    async def __aenter__(self) -> "AsyncServingSession":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()


async def _ensure_async(items):
    """Lift a sync iterable of work units into an async one."""

    if hasattr(items, "__aiter__"):
        async for item in items:
            yield item
        return
    for item in items:
        yield item


def _as_stream(source) -> Iterator[StreamItem]:
    if isinstance(source, np.ndarray):
        if source.ndim != 4:
            raise ValueError(f"stacked source must be (N, R, A, H), got {source.shape}")
        return iter_wedges(source)
    iterator = iter(source)
    first = next(iterator, None)
    if first is None:
        return iter(())
    chained = itertools.chain([first], iterator)
    if isinstance(first, StreamItem):
        return chained
    return iter_wedges(chained)


# ----------------------------------------------------------------------
# Health endpoint: the supervision probe over HTTP.
# ----------------------------------------------------------------------


def start_health_server(service: ModelPoolService, port: int = 0,
                        host: str = "127.0.0.1"):
    """Serve :meth:`ModelPoolService.health` as JSON over HTTP.

    Starts a daemon-threaded HTTP server answering ``GET`` on ``/``,
    ``/health`` and ``/healthz`` with the service's current
    :class:`ServiceHealth` as JSON — status 200 while the service accepts
    work (healthy, retrying, rebuilding or degraded) and 503 once it is
    draining/drained, so a load balancer's liveness probe needs no body
    parsing.  ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  Returns the
    :class:`http.server.ThreadingHTTPServer`; call ``server.shutdown()``
    to stop it.  This is what ``repro-tpc serve --health-port`` runs.

    Example
    -------
    >>> server = start_health_server(service)             # doctest: +SKIP
    >>> port = server.server_address[1]                   # doctest: +SKIP
    >>> # curl http://127.0.0.1:$port/healthz
    >>> server.shutdown()                                 # doctest: +SKIP
    """

    import http.server
    import json

    class _Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API name)
            if self.path.split("?", 1)[0] not in ("/", "/health", "/healthz"):
                self.send_error(404)
                return
            health = service.health()
            body = json.dumps(health.to_dict()).encode()
            self.send_response(200 if health.ok else 503)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:
            pass  # probes are periodic; stay quiet on stderr

    server = http.server.ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-health", daemon=True
    )
    thread.start()
    return server
