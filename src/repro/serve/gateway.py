"""Multi-producer sharded serving gateway — the scale-out front door.

The paper's deployment target is a counting house keeping up with *many*
concurrent detector links (§1; the variable-rate follow-up assumes N
streams feeding one compression front door), but one
:class:`~repro.serve.source.AsyncSocketSource` has one reader and one
:class:`~repro.serve.service.ModelPoolService` owns one host.  This module
adds the missing tier:

* :class:`ServingGateway` — a ``loop.create_server`` front door
  accepting any number of concurrent producers over the existing
  length-prefixed wedge-frame format (:func:`~repro.serve.source.
  write_wedge_frame`).  Each connection is a *session*: frames are
  micro-batched per session under the service's latency budget
  (:class:`~repro.serve.batcher.AsyncMicroBatcher`), batches are routed to
  a shard, and the resulting fp16 code frames are written back in arrival
  order — one response frame per input wedge, byte-identical to the
  single-service inline path (batch composition never changes payload
  bytes).
* :class:`StreamRouter` — shards sessions across multiple
  ``ModelPoolService`` instances.  Placement is **health-aware** (each
  shard's :class:`~repro.serve.service.ServiceHealth` is consulted;
  degraded shards are used only when no healthy shard has room) and
  **load-aware** (sessions stick to a home shard; a full or unhealthy home
  spills the unit to the least-loaded shard).  Per-shard backpressure
  bounds the units queued + in flight on any one shard.
* Per-shard supervision, lifted from PR 8's per-service layer: every shard
  runs the full supervised engine (retry/backoff, deadlines, pool rebuild,
  circuit-breaker ladder) on its own pump thread, with **one slab ring per
  shard leased across sessions** (the transport is created once per shard
  and reused by consecutive supervised streams, instead of the old
  rebuild-per-stream).  A shard whose supervisor exhausts its backend
  ladder is **evicted**: its in-flight units are re-routed to surviving
  shards (legal — units are idempotent) or failed cleanly per-session
  (:class:`ShardLostError`), never globally.
* :class:`GatewayStats` / :class:`GatewayHealth` — the per-service
  ``ServiceStats``/``FaultCounters``/``ServiceHealth`` aggregated across
  shards; :meth:`ServingGateway.drain` quiesces shard-by-shard.

``repro-tpc serve --shards N --gateway-port P`` wires this up from the
CLI; ``benchmarks/bench_serving.py`` gates aggregate throughput scaling
versus shard count.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import itertools
import logging
import queue
import threading
import time
from typing import Sequence

from ..perf.timing import FaultCounters
from .batcher import AsyncMicroBatcher
from .service import (
    ModelPoolService,
    ServiceHealth,
    ServiceStats,
    WorkerCrashError,
)
from .source import (
    MAX_FRAME_BYTES,
    AsyncSocketSource,
    FrameProtocolError,
    write_wedge_frame,
)

__all__ = [
    "GatewayConfig",
    "GatewayHealth",
    "GatewayStats",
    "ServingGateway",
    "ShardLostError",
    "StreamRouter",
]

_LOG = logging.getLogger("repro.serve.gateway")

#: Pump-queue sentinel: stop the shard's pump thread after the backlog.
_STOP = object()


class ShardLostError(RuntimeError):
    """A shard was evicted and the unit could not be re-routed.

    Raised on a unit's future when its shard exhausted its backend ladder
    (the supervisor's terminal crash state) and no surviving shard could
    take the unit over.  Scoped per unit/session by construction: other
    sessions and the gateway itself keep serving on the remaining shards.
    """


@dataclasses.dataclass
class GatewayConfig:
    """Tunables of one :class:`ServingGateway`.

    Attributes
    ----------
    host / port:
        Bind address of the front door.  ``port=0`` (default) binds an
        ephemeral port; read the actual one from
        :attr:`ServingGateway.port` after :meth:`ServingGateway.start`.
    inflight_per_shard:
        Backpressure bound: units queued or executing on any one shard.
        A session whose home shard is at the bound spills to the
        least-loaded shard; when *every* shard is at the bound the
        submitter awaits capacity.
    max_frame_bytes:
        Per-frame body cap, enforced by every session's
        :class:`~repro.serve.source.AsyncSocketSource` when it decodes the
        untrusted header — before the frame's body buffer is allocated;
        ``None`` disables the cap — never do that for untrusted producers.
        Also the read-ahead bound: once the complete frames a session has
        received but not yet batched exceed it, the source pauses its
        transport and TCP backpressure reaches the producer.

    Example
    -------
    >>> from repro.serve import GatewayConfig
    >>> GatewayConfig(inflight_per_shard=4).inflight_per_shard
    4
    """

    host: str = "127.0.0.1"
    port: int = 0
    inflight_per_shard: int = 8
    max_frame_bytes: int | None = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.inflight_per_shard < 1:
            raise ValueError(
                f"inflight_per_shard must be >= 1, got {self.inflight_per_shard}"
            )
        if self.max_frame_bytes is not None and self.max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1 or None, got {self.max_frame_bytes}"
            )


@dataclasses.dataclass
class GatewayStats:
    """Aggregate outcome across every shard of a gateway.

    ``per_shard`` holds one :class:`~repro.serve.service.ServiceStats`
    per shard (lifetime units/wedges served by that shard's pump, its
    fault counters and effective ladder level); the scalar fields roll
    those up, plus the gateway-level session and re-routing counts.
    """

    n_sessions: int
    n_units: int
    n_wedges: int
    rerouted: int
    lost_shards: int
    per_shard: list[ServiceStats] = dataclasses.field(default_factory=list)

    @property
    def faults(self) -> FaultCounters:
        """Fault counters merged across all shards."""

        merged = FaultCounters()
        for stats in self.per_shard:
            merged.merge(stats.faults)
        return merged

    def row(self) -> str:
        """One-line summary for logs and benches."""

        line = (
            f"sessions={self.n_sessions} units={self.n_units} "
            f"wedges={self.n_wedges} shards={len(self.per_shard)}"
        )
        if self.rerouted or self.lost_shards:
            line += f" rerouted={self.rerouted} lost_shards={self.lost_shards}"
        faults = self.faults
        if faults.total or faults.retries or faults.degraded:
            line += f" faults[{faults.row()}]"
        return line


@dataclasses.dataclass
class GatewayHealth:
    """Point-in-time supervision probe across every shard.

    ``shards`` holds each live shard's
    :class:`~repro.serve.service.ServiceHealth` (evicted shards keep a
    terminal entry with ``state="lost"`` spliced in by the router);
    ``state`` summarizes the gateway: ``"healthy"`` while every shard is
    healthy, ``"degraded"`` when any shard is degraded or lost but work
    is still accepted, ``"draining"``/``"drained"`` once
    :meth:`ServingGateway.drain` runs.
    """

    state: str
    shards: list[ServiceHealth]
    lost: list[int]

    @property
    def ok(self) -> bool:
        """Liveness verdict: at least one shard still accepts work."""

        return self.state not in ("draining", "drained") and any(
            h.ok and h.state != "lost" for h in self.shards
        )

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form."""

        return dataclasses.asdict(self)


@dataclasses.dataclass
class _GatewayUnit:
    """One routed work unit: the item, its asyncio future, bookkeeping."""

    item: object
    future: asyncio.Future
    session: int = -1
    shard: "_Shard | None" = None


class _Shard:
    """One shard: a supervised service plus its pump thread and queue.

    The pump thread feeds a ``queue.SimpleQueue`` of routed units into
    ``service._serve`` — the *full* PR-8 supervision stack (retries,
    deadlines, pool rebuild, ladder step-downs) runs unchanged under the
    gateway.  The shard's ``_ProcessTransport`` (when the config runs a
    process pool) is created once and lent to every supervised stream, so
    one slab ring is leased across all sessions instead of being rebuilt
    per stream.  A unit whose error surfaces is charged to its own future;
    innocent in-flight units re-drive on a fresh stream.  A crash-class
    error at the ladder's last rung marks the shard **lost**: the router
    re-homes its orphans or fails them per-session.
    """

    def __init__(self, index: int, service: ModelPoolService,
                 router: "StreamRouter") -> None:
        self.index = index
        self.service = service
        self.router = router
        self.lost = False
        self.stopped = False
        # Router-side (event-loop thread) occupancy: queued + executing.
        self.load = 0
        # Pump-side accumulators (single writer: the pump thread).
        self.n_units = 0
        self.n_wedges = 0
        self.started_s = time.monotonic()
        self.elapsed_s = 0.0
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._pending: collections.deque = collections.deque()
        self._saw_stop = False
        self._transport = service._make_transport()
        self._thread = threading.Thread(
            target=self._pump, name=f"repro-gateway-shard{index}", daemon=True
        )
        self._thread.start()

    # -- router side (event-loop thread) --------------------------------
    @property
    def accepting(self) -> bool:
        """Whether the router may place new units here."""

        return (not self.lost and not self.stopped
                and self.service.health().ok)

    def health_rank(self) -> int:
        """Placement preference: 0 = healthy, 1 = degraded/recovering."""

        return 0 if self.service._supervisor.state() == "healthy" else 1

    def enqueue(self, entry: _GatewayUnit) -> None:
        """Hand one unit to the pump (event-loop thread only)."""

        if self.lost or self.stopped:
            raise RuntimeError(f"shard {self.index} is not accepting units")
        entry.shard = self
        self.load += 1
        self._queue.put(entry)

    def stop(self) -> None:
        """Ask the pump to exit after the queued backlog (idempotent)."""

        if not self.stopped:
            self.stopped = True
            self._queue.put(_STOP)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the pump thread to exit (call off the event loop)."""

        self._thread.join(timeout)

    def stats(self) -> ServiceStats:
        """This shard's lifetime serving totals as a ServiceStats."""

        cfg = self.service.config
        sup = self.service._supervisor
        elapsed = self.elapsed_s or (time.monotonic() - self.started_s)
        return ServiceStats(
            n_wedges=self.n_wedges,
            n_batches=self.n_units,
            elapsed_s=elapsed,
            half=cfg.half,
            max_batch=cfg.max_batch,
            workers=cfg.workers,
            records=[],
            faults=dataclasses.replace(sup.totals),
            level="lost" if self.lost else sup.level,
        )

    def health(self) -> ServiceHealth:
        """The shard's ServiceHealth (terminal ``state="lost"`` once
        evicted)."""

        health = self.service.health()
        if self.lost:
            health.state = "lost"
        return health

    def close_transport(self) -> None:
        """Destroy the shard's shared ring (publishes ``last_shm``);
        idempotent."""

        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()

    # -- pump side (shard thread) ---------------------------------------
    def _items(self, recovered: list[_GatewayUnit]):
        """The supervised stream's item source: re-driven units first,
        then the live queue, with a window flush whenever it runs dry."""

        for entry in recovered:
            self._pending.append(entry)  # lint: allow-alloc
            yield entry.item
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                if self._pending:
                    # Nothing queued but results are in flight: flush the
                    # window so sessions get their responses *now*, then
                    # block for the next unit.
                    yield ModelPoolService._FLUSH
                entry = self._queue.get()
            if entry is _STOP:
                self._saw_stop = True
                return
            if entry.future.cancelled():
                self._call_loop(self._router_discard, entry)
                continue
            self._pending.append(entry)  # lint: allow-alloc
            yield entry.item

    def _pump(self) -> None:
        """Thread main: run supervised streams until stop or shard loss."""

        recovered: list[_GatewayUnit] = []
        while True:
            # The shared transport is only meaningful while the shard
            # still executes at the process level.
            transport = self._transport
            if (transport is not None
                    and self.service._supervisor.level != "process"):
                transport = None
            source = self._items(recovered)
            recovered = []
            try:
                for record, result in self.service._serve(
                        source, transport=transport):
                    entry = self._pending.popleft()
                    self.n_units += 1
                    self.n_wedges += record.n_wedges
                    self._call_loop(self._resolve, entry, record, result)
            except Exception as exc:
                source.close()
                victim = self._pending.popleft() if self._pending else None
                sup = self.service._supervisor
                # Ladder exhausted = a crash *at* the last rung.  A crash
                # that merely degraded onto the last rung resets the
                # breaker's counter, so the rung still gets its chance.
                shard_lost = (isinstance(exc, WorkerCrashError)
                              and sup.level == sup.ladder[-1]
                              and sup.consecutive_crashes > 0)
                if shard_lost or sup.draining:
                    # Evict *before* rejecting the victim: by the time
                    # the owner observes its failure, the router has
                    # already marked the shard lost and re-homed the
                    # surviving in-flight units.
                    self._die(exc)
                    if victim is not None:
                        self._call_loop(self._reject, victim, exc)
                    return
                if victim is not None:
                    self._call_loop(self._reject, victim, exc)
                # Innocent in-flight units re-drive on a fresh stream
                # (legal: units are idempotent), uncharged.
                recovered = list(self._pending)
                self._pending.clear()
                continue
            if not self._saw_stop:
                # The stream ended without _STOP: the service was drained
                # externally (its drain latch broke the item loop).  The
                # shard cannot serve again — evict it so queued/future
                # units re-route instead of parking in a dead queue.
                self._die(RuntimeError(
                    f"shard {self.index} service drained externally"))
                return
            # _STOP: the backlog is flushed and every pending unit was
            # emitted by the stream's final window drain.
            self.elapsed_s = time.monotonic() - self.started_s
            return

    def _die(self, exc: BaseException) -> None:
        """Evict this shard: orphans go back to the router for re-homing."""

        self.elapsed_s = time.monotonic() - self.started_s
        # Eviction releases the shard's shared ring right away — a lost
        # shard must not leak slabs while the gateway keeps serving.
        self.close_transport()
        orphans = list(self._pending)
        self._pending.clear()
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                break
            if entry is _STOP:
                break
            orphans.append(entry)  # lint: allow-alloc
        self._call_loop(self.router._on_shard_lost, self, orphans, exc)

    # -- cross-thread hand-off ------------------------------------------
    def _call_loop(self, fn, *args) -> None:
        try:
            self.router._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed during teardown

    def _resolve(self, entry: _GatewayUnit, record, result) -> None:
        self.load -= 1
        if not entry.future.done():
            entry.future.set_result((record, result))
        self.router._capacity.set()

    def _reject(self, entry: _GatewayUnit, exc: BaseException) -> None:
        self.load -= 1
        if not entry.future.done():
            entry.future.set_exception(exc)
        self.router._capacity.set()

    def _router_discard(self, entry: _GatewayUnit) -> None:
        self.load -= 1
        self.router._capacity.set()


class StreamRouter:
    """Shard sessions across services: placement, backpressure, eviction.

    Owns one :class:`_Shard` per service.  All routing state (per-shard
    load, session affinity, eviction) mutates on the event-loop thread
    only — shard pumps talk back through ``call_soon_threadsafe`` — so the
    router needs no locks.

    Placement policy, in order:

    1. a session's **home shard** (assigned on its first unit) while it is
       accepting and under the in-flight bound;
    2. otherwise **spill**: the accepting shard with the best
       ``(health_rank, load)`` — healthy shards before degraded ones,
       least-loaded first;
    3. every shard at the bound → await capacity;
    4. no accepting shard at all → :class:`ShardLostError`.
    """

    def __init__(self, services: Sequence[ModelPoolService],
                 inflight_per_shard: int = 8) -> None:
        if not services:
            raise ValueError("StreamRouter needs at least one service")
        self._services = list(services)
        self._inflight_per_shard = int(inflight_per_shard)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shards: list[_Shard] = []
        self._capacity: asyncio.Event | None = None
        self._homes: dict[int, _Shard] = {}
        self.rerouted = 0
        self.lost_shards = 0
        self._draining = False
        self._drained = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stand the shard pumps up (must run inside the event loop)."""

        if self._shards:
            return
        self._loop = asyncio.get_running_loop()
        self._capacity = asyncio.Event()
        self._shards = [
            _Shard(i, service, self)
            for i, service in enumerate(self._services)
        ]

    def drain_requested(self) -> bool:
        """The intake latch session batchers poll (drain in progress)."""

        return self._draining

    @property
    def shards(self) -> int:
        """Number of shards (including evicted ones)."""

        return len(self._shards)

    # ------------------------------------------------------------------
    def _accepting(self) -> list[_Shard]:
        return [s for s in self._shards if s.accepting]

    def _place(self, session: int) -> "_Shard | None":
        home = self._homes.get(session)
        if (home is not None and home.accepting
                and home.load < self._inflight_per_shard):
            return home
        candidates = self._accepting()
        if not candidates:
            return None
        best = min(candidates, key=lambda s: (s.health_rank(), s.load))
        if best.load >= self._inflight_per_shard:
            return None  # backpressure: every accepting shard is full
        if home is not None and best is not home:
            self.rerouted += 1
        self._homes[session] = best
        return best

    async def submit(self, item, session: int = -1) -> asyncio.Future:
        """Route one unit; returns its future (``(record, result)``).

        Awaits while every accepting shard is at the in-flight bound
        (per-shard backpressure); raises :class:`ShardLostError` when no
        shard accepts work, and ``RuntimeError`` once draining.
        """

        while True:
            if self._draining:
                raise RuntimeError("gateway is draining/drained — no new units")
            shard = self._place(session)
            if shard is not None:
                break
            if not self._accepting():
                raise ShardLostError(
                    "no shard accepts work — every shard is lost or draining"
                )
            self._capacity.clear()
            await self._capacity.wait()
        entry = _GatewayUnit(item=item, future=self._loop.create_future(),
                             session=session)
        shard.enqueue(entry)
        return entry.future

    # ------------------------------------------------------------------
    def _on_shard_lost(self, shard: _Shard, orphans: list[_GatewayUnit],
                       exc: BaseException) -> None:
        """Evict a dead shard; re-home its orphans (event-loop thread)."""

        if not shard.lost:
            shard.lost = True
            self.lost_shards += 1
            _LOG.warning("gateway shard %d lost (%s); re-routing %d units",
                         shard.index, exc, len(orphans))
        shard.load -= len(orphans)
        for entry in orphans:
            if entry.future.done() or entry.future.cancelled():
                continue
            candidates = self._accepting()
            if not candidates:
                error = ShardLostError(
                    f"shard {shard.index} lost and no surviving shard "
                    f"could take unit over"
                )
                error.__cause__ = exc
                entry.future.set_exception(error)
                continue
            # Over-bound placement is allowed here: losing a shard must
            # not deadlock its survivors' backpressure.
            target = min(candidates, key=lambda s: (s.health_rank(), s.load))
            if entry.session >= 0:
                self._homes[entry.session] = target
            self.rerouted += 1
            target.enqueue(entry)
        self._capacity.set()

    # ------------------------------------------------------------------
    def health(self) -> list[ServiceHealth]:
        """Per-shard ServiceHealth snapshots (lost shards marked)."""

        return [shard.health() for shard in self._shards]

    def stats(self) -> GatewayStats:
        """Aggregate GatewayStats across shards (sessions filled by the
        gateway)."""

        per_shard = [shard.stats() for shard in self._shards]
        return GatewayStats(
            n_sessions=0,
            n_units=sum(s.n_batches for s in per_shard),
            n_wedges=sum(s.n_wedges for s in per_shard),
            rerouted=self.rerouted,
            lost_shards=self.lost_shards,
            per_shard=per_shard,
        )

    async def drain(self, timeout: float | None = None) -> bool:
        """Quiesce shard-by-shard: stop intake, flush, tear down rings.

        Each shard in turn: the pump stops after its queued backlog, the
        underlying service drains (flushing every in-flight unit), and
        the shard's shared slab ring is destroyed — so no slab is leaked
        and later shards keep serving while earlier ones flush.  Returns
        True when every shard fully drained.
        """

        self._draining = True
        if self._capacity is not None:
            self._capacity.set()
        ok = True
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            shard.stop()
            await loop.run_in_executor(None, shard.join, timeout)
            drained = await loop.run_in_executor(
                None, lambda s=shard: s.service.drain(True, timeout)
            )
            ok = ok and drained
            shard.close_transport()
        self._drained = True
        return ok


class ServingGateway:
    """The multi-producer front door: N sockets in, code frames out.

    Accepts concurrent TCP producers speaking the wedge-frame protocol,
    micro-batches each connection under the shards' latency budget,
    routes batches through a :class:`StreamRouter`, and answers every
    input wedge with one fp16 code frame in arrival order.  Producer
    faults are contained per session: a clean EOF ends the session after
    its responses flush, a mid-frame death or malformed frame fails that
    session alone and never touches the shards.

    Parameters
    ----------
    services:
        One ``ModelPoolService`` per shard (typically
        ``StreamingCompressionService`` instances sharing one model).
    config:
        :class:`GatewayConfig`; defaults bind an ephemeral local port.

    Example
    -------
    >>> gateway = ServingGateway([service_a, service_b])   # doctest: +SKIP
    >>> await gateway.start()                              # doctest: +SKIP
    >>> print(gateway.port)                                # doctest: +SKIP
    >>> await gateway.drain(); await gateway.aclose()      # doctest: +SKIP
    """

    def __init__(self, services: Sequence[ModelPoolService],
                 config: GatewayConfig | None = None) -> None:
        self.config = config or GatewayConfig()
        self.router = StreamRouter(
            services, inflight_per_shard=self.config.inflight_per_shard
        )
        self._server: asyncio.AbstractServer | None = None
        self._sessions: set[asyncio.Task] = set()
        self._session_ids = itertools.count()
        self.n_sessions = 0

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""

        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServingGateway":
        """Bind the socket server and stand the shard pumps up."""

        if self._server is not None:
            return self
        self.router.start()
        # One AsyncSocketSource per connection is both its frame receiver
        # (cap, dtype allow-list and read-ahead bound live there) and the
        # writer its session answers through.
        self._server = await asyncio.get_running_loop().create_server(
            lambda: AsyncSocketSource(
                self.config.max_frame_bytes, self._handle_client),
            self.config.host, self.config.port,
        )
        return self

    # ------------------------------------------------------------------
    async def _handle_client(self, source: AsyncSocketSource) -> None:
        """One producer session: frames → batches → shard → code frames."""

        task = asyncio.current_task()
        self._sessions.add(task)
        self.n_sessions += 1
        session = next(self._session_ids)
        try:
            await self._serve_session(session, source)
        except Exception:
            # Nobody awaits a session task: report here, keep serving.
            _LOG.exception("gateway session %d crashed", session)
        finally:
            self._sessions.discard(task)

    async def _serve_session(self, session: int,
                             source: AsyncSocketSource) -> None:
        svc_cfg = self.router._services[0].config
        batcher = AsyncMicroBatcher(svc_cfg.max_batch, svc_cfg.max_delay_s)
        pending: asyncio.Queue = asyncio.Queue()
        done = object()

        async def respond() -> None:
            # Ordered responses: futures resolve out of order across
            # shards, but are awaited (and written) in submission order.
            while True:
                future = await pending.get()
                if future is done:
                    return
                record, payload = await future
                if getattr(payload, "codec_ids", None) is not None:
                    # Adaptive tier: answer each wedge with a codec record
                    # frame (payload bytes + the RateDecision fields), so
                    # the producer can rebuild both the archive and the
                    # decision ledger byte-for-byte.
                    from ..rate.records import encode_record_frames

                    for frame in encode_record_frames(payload):
                        write_wedge_frame(source, frame)
                else:
                    codes = payload.codes_view()
                    for i in range(codes.shape[0]):
                        write_wedge_frame(source, codes[i])
                await source.drain()

        responder = asyncio.create_task(respond())
        try:
            try:
                async for batch in batcher.batches(
                        source, stop=self.router.drain_requested):
                    future = await self.router.submit(batch, session=session)
                    pending.put_nowait(future)
            except (FrameProtocolError, ShardLostError, RuntimeError) as exc:
                # Malformed frame, mid-frame producer death, or intake
                # refused (drain / every shard lost): this session fails
                # alone; batches already routed still answer below.
                _LOG.warning("gateway session %d: %s", session, exc)
            finally:
                pending.put_nowait(done)
                try:
                    await responder
                except (ShardLostError, RuntimeError,
                        ConnectionError, OSError) as exc:
                    # Unit failed terminally or the peer vanished — close
                    # this session; the early EOF is its failure signal.
                    _LOG.warning("gateway session %d failed: %s", session, exc)
                except Exception as exc:
                    _LOG.warning("gateway session %d failed: %s", session, exc)
        finally:
            responder.cancel()
            await source.aclose()

    # ------------------------------------------------------------------
    def health(self) -> GatewayHealth:
        """Aggregate gateway health: per-shard ServiceHealth + verdict."""

        shards = self.router.health()
        if self.router._drained:
            state = "drained"
        elif self.router._draining:
            state = "draining"
        elif all(h.state == "healthy" for h in shards):
            state = "healthy"
        else:
            state = "degraded"
        lost = [s.index for s in self.router._shards if s.lost]
        return GatewayHealth(state=state, shards=shards, lost=lost)

    def stats(self) -> GatewayStats:
        """Aggregate GatewayStats across shards and sessions."""

        stats = self.router.stats()
        stats.n_sessions = self.n_sessions
        return stats

    async def drain(self, timeout: float | None = None) -> bool:
        """Stop intake and quiesce shard-by-shard (see
        :meth:`StreamRouter.drain`).

        Waits briefly for live sessions to flush their final
        ``closed_by="drain"`` batches before the shards stop.
        """

        self.router._draining = True
        if self._server is not None:
            self._server.close()
        deadline = time.monotonic() + (timeout if timeout is not None else 10.0)
        while self._sessions and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        return await self.router.drain(timeout=timeout)

    async def aclose(self) -> None:
        """Close the server and tear every shard down (drains first)."""

        if not self.router._drained:
            await self.drain()
        sessions = list(self._sessions)
        for task in sessions:
            task.cancel()
        if sessions:
            # Bounded like drain(): a peer that never reads its responses
            # must not pin the teardown on a write buffer that cannot flush.
            await asyncio.wait(sessions, timeout=10.0)
        if self._server is not None:
            # After the sessions: from Python 3.12.1 wait_closed() also
            # waits for every accepted connection to be dropped.
            self._server.close()
            await self._server.wait_closed()

    async def __aenter__(self) -> "ServingGateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()
