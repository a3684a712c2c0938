"""Wedge stream sources for the compression service — sync and async.

A stream is an iterable of :class:`StreamItem`: a sequence number, an
arrival timestamp and the raw ADC wedge.  Sync sources are plain generators
(in-memory arrays, DAQ stream-time replays); async sources subclass
:class:`AsyncWedgeSource` and stamp arrivals with the **monotonic wall
clock** at receipt — the timestamp the async gateway's latency budget is
enforced against (a live DAQ feed has no replayed stream time to lean on).

Adapters:

* :func:`iter_wedges` / :func:`replay_stream` — sync, as before;
* :func:`aiter_wedges` — lift *anything* (stacked array, sync iterable,
  async iterable, already-wrapped items) into an async stream;
* :class:`AsyncQueueSource` — an :class:`asyncio.Queue`-fed live source
  (the in-process stand-in for a DAQ push feed);
* :class:`AsyncSocketSource` — length-prefixed wedge frames received by
  an :class:`asyncio.BufferedProtocol` straight into the buffer each
  array lives in (see :func:`write_wedge_frame`);
* :func:`async_replay_stream` — replay ``(arrival_s, wedge)`` pairs *on
  the wall clock* (sleeps out the inter-arrival gaps instead of merely
  labelling items with simulated time).
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import math
import struct
import time
from typing import AsyncIterator, Iterable, Iterator

import numpy as np

__all__ = [
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


class FrameProtocolError(ValueError):
    """A wedge frame stream violated the wire protocol.

    The single exception :func:`read_wedge_frame` (and therefore
    :class:`AsyncSocketSource`) raises for every malformed-input
    condition: a connection dying mid-frame, a truncated header or body,
    a bad magic, or an undecodable dtype/shape header.  Callers handle
    one documented type instead of the raw :class:`asyncio.
    IncompleteReadError`/:class:`struct.error`/:class:`ConnectionError`
    zoo (the original cause rides along as ``__cause__``).  Clean EOF at
    a frame boundary is not an error — it ends the stream normally.
    """


@dataclasses.dataclass
class StreamItem:
    """One wedge in flight.

    Attributes
    ----------
    seq:
        Position in the stream (0-based); the service preserves this order
        on emission.
    arrival_s:
        Arrival timestamp in stream time.  In-memory sources use 0.0 for
        everything; DAQ replays carry the simulated arrival clock, which
        drives the batcher's latency budget.
    wedge:
        Raw ADC wedge ``(R, A, H)``.
    """

    seq: int
    arrival_s: float
    wedge: np.ndarray


def iter_wedges(wedges: Iterable[np.ndarray]) -> Iterator[StreamItem]:
    """Wrap an in-memory wedge collection as an untimed stream."""

    for seq, wedge in enumerate(wedges):
        yield StreamItem(seq=seq, arrival_s=0.0, wedge=np.asarray(wedge))


def replay_stream(
    timed_wedges: Iterable[tuple[float, np.ndarray]],
) -> Iterator[StreamItem]:
    """Wrap ``(arrival_s, wedge)`` pairs — e.g. from
    :meth:`repro.daq.StreamingCompressionSim.wedge_stream` — as a stream."""

    for seq, (arrival, wedge) in enumerate(timed_wedges):
        yield StreamItem(seq=seq, arrival_s=float(arrival), wedge=np.asarray(wedge))


# ----------------------------------------------------------------------
# async sources
# ----------------------------------------------------------------------


class AsyncWedgeSource:
    """Base class of asyncio wedge sources.

    Subclasses implement :meth:`frames` — an async iterator of raw wedges
    (or ready-made :class:`StreamItem`) — and inherit the stamping loop:
    ``async for item in source`` yields :class:`StreamItem` with dense
    sequence numbers and monotonic-clock arrival timestamps.
    """

    def frames(self) -> AsyncIterator[np.ndarray]:
        """Async iterator of raw wedges / items (subclass hook)."""

        raise NotImplementedError

    async def __aiter__(self) -> AsyncIterator[StreamItem]:
        seq = 0
        async for frame in self.frames():
            if isinstance(frame, StreamItem):
                yield dataclasses.replace(frame, seq=seq)
            else:
                yield StreamItem(
                    seq=seq, arrival_s=time.monotonic(), wedge=np.asarray(frame)
                )
            seq += 1


class AsyncQueueSource(AsyncWedgeSource):
    """A live push-fed source: producers ``put`` wedges, the gateway pulls.

    The in-process stand-in for a DAQ feed — arrival timing is whatever the
    producer does, which is exactly what the wall-clock batcher budget is
    about.  ``close()`` ends the stream once the queue drains.
    """

    _DONE = object()

    def __init__(self, maxsize: int = 0) -> None:
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._closed = False
        self._pending_puts = 0

    async def put(self, wedge: np.ndarray) -> None:
        """Feed one wedge; awaits while a bounded queue is full."""

        if self._closed:
            raise RuntimeError("source is closed")
        # Counted so a put() blocked on a full queue when close() lands is
        # still delivered before the consumer declares EOF.
        self._pending_puts += 1
        try:
            await self._queue.put(wedge)
        finally:
            self._pending_puts -= 1

    def put_nowait(self, wedge: np.ndarray) -> None:
        """Feed one wedge without awaiting; raises when the queue is full."""

        if self._closed:
            raise RuntimeError("source is closed")
        self._queue.put_nowait(wedge)

    def close(self) -> None:
        """No more wedges; the stream ends after the queue drains."""

        if not self._closed:
            self._closed = True
            try:
                # Wakes a consumer blocked on an empty queue.  On a *full*
                # bounded queue the sentinel doesn't fit — but then the
                # consumer isn't blocked: it drains the backlog and sees
                # the closed-and-empty condition below.
                self._queue.put_nowait(self._DONE)
            except asyncio.QueueFull:
                pass

    async def frames(self):
        """Yield queued wedges until ``close()`` and the backlog drain."""

        while True:
            if self._closed and self._pending_puts == 0 and self._queue.empty():
                return
            frame = await self._queue.get()
            if frame is self._DONE:
                # The sentinel can land *ahead* of a put() that was
                # blocked on a full queue when close() ran; keep draining
                # until every counted put has been delivered.
                if self._pending_puts or not self._queue.empty():
                    continue
                return
            yield frame


# Wedge frame wire format: magic, dtype tag, shape, then raw bytes.
_FRAME_MAGIC = b"WDG1"
#: Default cap on one frame's body, in bytes (64 MiB).  A corrupt or
#: hostile header can claim up to 255 dims of 2³²-1 each; without a cap
#: the reader would try to buffer that.  Generous: the largest real unit
#: (a paper-scale 3D wedge batch) is well under 64 MiB.
MAX_FRAME_BYTES = 64 << 20
#: Receive scratch of :class:`AsyncSocketSource`; any header (≤ 1281 B) fits.
_HEADER_SCRATCH = 2048


def write_wedge_frame(writer, wedge: np.ndarray) -> None:
    """Serialize one wedge onto a stream (pair with :func:`read_wedge_frame`).

    ``writer`` is an :class:`asyncio.StreamWriter`, an
    :class:`AsyncSocketSource`, or anything else with ``write(data)``.
    Frame layout: ``b"WDG1"``, u8 dtype-string length, the numpy dtype
    string, u8 ndim, ndim × u32 dims, then the C-order array bytes.
    Arrays the header cannot represent — more than 255 dims, or any dim
    ≥ 2³² — raise :class:`FrameProtocolError` rather than an opaque
    :class:`struct.error`.

    This only queues bytes on the transport; producers streaming many
    frames must ``await writer.drain()`` periodically (per frame or per
    batch) or the write buffer grows without bound when the consumer is
    slower.
    """

    wedge = np.ascontiguousarray(wedge)
    if wedge.ndim > 255:
        raise FrameProtocolError(
            f"wedge frame header holds at most 255 dims, got {wedge.ndim}"
        )
    if any(dim >= 1 << 32 for dim in wedge.shape):
        raise FrameProtocolError(
            f"wedge frame dims must fit u32 (< 2**32), got shape {wedge.shape}"
        )
    dtype = wedge.dtype.str.encode("ascii")
    header = _FRAME_MAGIC + struct.pack("<B", len(dtype)) + dtype
    header += struct.pack("<B", wedge.ndim)
    header += struct.pack(f"<{wedge.ndim}I", *wedge.shape)
    # One copy, straight from the array's buffer: the frame is a snapshot
    # (the caller may reuse the array at once) and goes out as one write.
    writer.write(b"".join((header, memoryview(wedge.reshape(-1).view(np.uint8)))))


def _decode_frame_header(head, max_frame_bytes: int | None):
    """Decode and validate the untrusted header at the start of ``head`` —
    the one place :func:`read_wedge_frame` and :class:`AsyncSocketSource`
    accept or refuse a frame.  Returns ``(header_len, dtype, shape,
    body_bytes)`` or, while ``head`` is too short, the ``int`` length to
    have before asking again.  Bad magic, an undecodable dtype, a dtype
    that is not a real numeric kind (``"biuf"``: object, void, string,
    complex and structured dtypes never reach a worker) and a body over
    ``max_frame_bytes`` raise :class:`FrameProtocolError` — before the
    caller buffers a body byte."""

    have = len(head)
    if bytes(head[:4]) != _FRAME_MAGIC[:have]:
        raise FrameProtocolError(f"bad wedge frame magic {bytes(head[:4])!r}")
    if have < 5:
        return 5
    ndim_at = 5 + head[4]
    if have <= ndim_at:
        return ndim_at + 1
    size = ndim_at + 1 + 4 * head[ndim_at]
    if have < size:
        return size
    try:
        dtype = np.dtype(bytes(head[5:ndim_at]).decode("ascii"))
    except (TypeError, ValueError, SyntaxError) as exc:
        raise FrameProtocolError("undecodable wedge frame header") from exc
    if dtype.kind not in "biuf":
        raise FrameProtocolError(
            f"wedge frame dtype {dtype.str!r} is not a real numeric type"
        )
    shape = struct.unpack_from(f"<{head[ndim_at]}I", head, ndim_at + 1)
    # Python-int math: 255 dims of 2**32-1 each overflows int64.
    nbytes = math.prod(shape) * dtype.itemsize
    if max_frame_bytes is not None and nbytes > max_frame_bytes:
        raise FrameProtocolError(
            f"wedge frame claims {nbytes} body bytes, over the "
            f"{max_frame_bytes}-byte cap — corrupt header or hostile peer"
        )
    return size, dtype, shape, nbytes


async def read_wedge_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int | None = MAX_FRAME_BYTES,
) -> np.ndarray | None:
    """Read one wedge frame; ``None`` on clean EOF at a frame boundary.

    The :class:`asyncio.StreamReader` helper clients read responses with
    (the gateway's ingest is :class:`AsyncSocketSource`).  Every
    malformed-input condition — mid-frame disconnect, truncated header or
    body, bad magic, undecodable or non-numeric dtype — raises
    :class:`FrameProtocolError` with the original cause chained, so the
    ingest loop has exactly one exception to contain.

    The header is untrusted input: a frame whose declared body exceeds
    ``max_frame_bytes`` (default :data:`MAX_FRAME_BYTES`; ``None``
    disables the cap) raises :class:`FrameProtocolError` *before* any
    body byte is read or buffered, so a corrupt or hostile length field
    cannot drive an unbounded allocation.

    The returned array is **writable** (the frame bytes are copied into
    an owned buffer): socket-ingested wedges must behave like every other
    source under downstream in-place ops.
    """

    head, header = b"", 5
    try:
        while isinstance(header, int):
            head += await reader.readexactly(header - len(head))
            header = _decode_frame_header(head, max_frame_bytes)
        _size, dtype, shape, nbytes = header
        data = await reader.readexactly(nbytes)
    except asyncio.IncompleteReadError as exc:
        if not head and not exc.partial:
            return None
        # A link that dies anywhere inside a frame is one condition to the
        # caller, wherever the bytes stopped.
        raise FrameProtocolError("truncated wedge frame") from exc
    except (ConnectionError, OSError) as exc:
        raise FrameProtocolError("connection lost reading a wedge frame") from exc
    # One copy into an owned, writable buffer: np.frombuffer over received
    # `bytes` would hand every socket consumer a read-only array.
    return np.frombuffer(bytearray(data), dtype=dtype).reshape(shape)


class AsyncSocketSource(AsyncWedgeSource, asyncio.BufferedProtocol):
    """One framed socket connection: wedge frames in, responses out.

    An :class:`asyncio.BufferedProtocol` that receives each frame
    **once**: ``get_buffer`` offers a small header scratch until the
    untrusted header is accepted (magic, numeric dtype, ``max_frame_bytes``
    cap — before the body buffer exists), then the unfilled rest of that
    frame's own writable buffer, so ``recv_into`` lands the body where the
    array lives; only body bytes that arrive behind a header inside the
    scratch are copied.  The stream ends on clean EOF; a peer that dies
    mid-frame or sends garbage surfaces as one :class:`FrameProtocolError`
    *after* the frames before it.

    ``loop.create_server(lambda: AsyncSocketSource(cap, session), ...)``
    runs ``session(source)`` as a task per connection, which answers
    through :meth:`write` + :meth:`drain` and ends with :meth:`aclose`;
    :meth:`connect` opens a TCP client, closed by :meth:`frames` at stream
    end (the ``(reader, writer)`` constructor is gone).  ``max_frame_bytes``
    is also the read-ahead bound: while complete frames nobody has pulled
    exceed it (never under 128 KiB) the transport is paused and TCP
    backpressure reaches the producer.
    """

    def __init__(self, max_frame_bytes: int | None = MAX_FRAME_BYTES,
                 session=None) -> None:
        self._max_frame_bytes = max_frame_bytes
        self._read_ahead = max(max_frame_bytes or 0, 1 << 17)
        self._session = session
        self._transport: asyncio.Transport | None = None
        self._scratch = bytearray(_HEADER_SCRATCH)
        self._view = memoryview(self._scratch)
        self._have = 0  # valid bytes at the front of the scratch
        # The frame being received: its array, the array's buffer, fill mark.
        self._array: np.ndarray | None = None
        self._body = memoryview(b"")
        self._filled = 0
        self._frames: collections.deque = collections.deque()
        self._buffered = 0  # bytes of complete frames not yet pulled
        self._ended = False
        self._error: FrameProtocolError | None = None
        self._arrived = asyncio.Event()   # a frame, or the end of the stream
        self._writable = asyncio.Event()  # the write buffer is under its mark
        self._closed = asyncio.Event()    # connection_lost ran
        self._writable.set()

    @classmethod
    async def connect(cls, host: str, port: int,
                      max_frame_bytes: int | None = MAX_FRAME_BYTES,
                      ) -> "AsyncSocketSource":
        """Open a TCP connection and wrap it as a wedge source."""

        _transport, source = await asyncio.get_running_loop().create_connection(
            lambda: cls(max_frame_bytes), host, port)
        return source

    # -- protocol callbacks (event-loop thread, must not block) ----------
    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._session is not None:
            # Kept referenced: the loop holds tasks weakly.
            self._task = asyncio.get_running_loop().create_task(
                self._session(self))

    def get_buffer(self, sizehint: int):
        if self._array is None:
            return self._view[self._have:]
        return self._body[self._filled:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._array is not None:
            self._filled += nbytes
            if self._filled == len(self._body):
                self._deliver()
            return
        self._have += nbytes
        try:
            self._parse_scratch()
        except FrameProtocolError as exc:
            self._end(exc)

    def eof_received(self) -> bool:
        self._end(None)
        return True  # keep the transport open: responses still flush

    def connection_lost(self, exc) -> None:
        self._end(exc)
        self._closed.set()
        self._writable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    # -- receive side ----------------------------------------------------
    def _parse_scratch(self) -> None:
        """Consume every header (and the body bytes behind it) the scratch
        holds; leftovers of an incomplete header move to the front."""

        view, pos = self._view, 0
        while self._array is None and pos < self._have:
            header = _decode_frame_header(
                view[pos:self._have], self._max_frame_bytes)
            if isinstance(header, int):
                break
            size, dtype, shape, nbytes = header
            self._begin(dtype, shape, nbytes)
            pos += size
            self._filled = min(nbytes, self._have - pos)
            self._body[:self._filled] = view[pos:pos + self._filled]
            pos += self._filled
            if self._filled == nbytes:
                self._deliver()
        self._scratch[:self._have - pos] = self._scratch[pos:self._have]
        self._have -= pos

    def _begin(self, dtype: np.dtype, shape: tuple, nbytes: int) -> None:
        body = bytearray(nbytes)
        self._array = np.frombuffer(body, dtype=dtype).reshape(shape)
        self._body = memoryview(body)

    def _deliver(self) -> None:
        self._frames.append(self._array)
        self._buffered += len(self._body)
        self._array = None
        if self._buffered > self._read_ahead:
            self._transport.pause_reading()
        self._arrived.set()

    def _end(self, exc: BaseException | None) -> None:
        """The stream is over (first call wins): a violation, a transport
        error, or EOF — clean only at a frame boundary."""

        if self._ended:
            return
        self._ended = True
        if isinstance(exc, FrameProtocolError):
            self._error = exc
        elif exc is not None or self._have or self._array is not None:
            self._error = FrameProtocolError(
                "truncated wedge frame" if exc is None
                else "connection lost reading wedge frames")
            self._error.__cause__ = exc
        if self._error is not None:
            # Nothing behind a violation is trusted; writes still flush.
            self._transport.pause_reading()
        self._arrived.set()

    async def frames(self):
        """Yield received frames until EOF; a protocol violation raises
        after the frames received before it."""

        # finally: a malformed frame or an abandoned iteration must not pin
        # a client's transport open (a session closes its own, after its
        # responses).
        try:
            while True:
                while not self._frames:
                    if self._error is not None:
                        raise self._error
                    if self._ended:
                        return
                    self._arrived.clear()
                    await self._arrived.wait()
                wedge = self._frames.popleft()
                self._buffered -= wedge.nbytes
                if self._buffered <= self._read_ahead and not self._ended:
                    self._transport.resume_reading()
                yield wedge
        finally:
            if self._session is None:
                await self.aclose()

    # -- send side -------------------------------------------------------
    def write(self, data) -> None:
        """Queue response bytes on the transport (see :meth:`drain`)."""

        self._transport.write(data)

    async def drain(self) -> None:
        """Wait until the write buffer is back under its high-water mark;
        raises :class:`ConnectionResetError` once the connection is lost."""

        await self._writable.wait()
        if self._closed.is_set():
            raise ConnectionResetError("connection lost")

    async def aclose(self) -> None:
        """Flush, half-close and close the transport (idempotent)."""

        transport = self._transport
        if transport is None:
            return
        if not transport.is_closing():
            try:
                # Explicit half-close (TCP shutdown), not just close(): a
                # process-backend worker forked while this connection was
                # open inherits a duplicate of the socket fd, and a plain
                # close() would never surface EOF to the peer.
                if transport.can_write_eof():
                    transport.write_eof()
            except OSError:
                pass
            transport.close()
        await self._closed.wait()


def aiter_wedges(source) -> AsyncIterator[StreamItem]:
    """Lift any wedge source into an async :class:`StreamItem` stream.

    Accepts an :class:`AsyncWedgeSource`, any async iterable (of wedges or
    items), a stacked ``(N, R, A, H)`` array, or any sync iterable the sync
    service accepts.  Sync sources yield without blocking the loop; wedges
    without timestamps are stamped with the monotonic receipt clock.
    """

    class _Lifted(AsyncWedgeSource):
        async def frames(self):
            if hasattr(source, "__aiter__"):
                async for frame in source:
                    yield frame
                return
            wedges = source
            if isinstance(wedges, np.ndarray):
                if wedges.ndim != 4:
                    raise ValueError(
                        f"stacked source must be (N, R, A, H), got {wedges.shape}"
                    )
            for frame in wedges:
                yield frame

    return _Lifted().__aiter__()


async def async_replay_stream(
    timed_wedges: Iterable[tuple[float, np.ndarray]], speed: float = 1.0
) -> AsyncIterator[StreamItem]:
    """Replay ``(arrival_s, wedge)`` pairs **on the wall clock**.

    Unlike :func:`replay_stream` (which only labels items with simulated
    time), this sleeps out the inter-arrival gaps, so downstream wall-clock
    machinery — the async batcher's monotonic deadline above all — sees the
    arrival process for real.  ``speed > 1`` replays faster than recorded.
    """

    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    start = time.monotonic()
    t0 = None
    seq = 0
    for arrival, wedge in timed_wedges:
        arrival = float(arrival)
        if t0 is None:
            t0 = arrival
        due = start + (arrival - t0) / speed
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        yield StreamItem(seq=seq, arrival_s=time.monotonic(), wedge=np.asarray(wedge))
        seq += 1
