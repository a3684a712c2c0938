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
* :class:`AsyncSocketSource` — length-prefixed wedge frames from an
  :class:`asyncio.StreamReader` (see :func:`write_wedge_frame`);
* :func:`async_replay_stream` — replay ``(arrival_s, wedge)`` pairs *on
  the wall clock* (sleeps out the inter-arrival gaps instead of merely
  labelling items with simulated time).
"""

from __future__ import annotations

import asyncio
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


def write_wedge_frame(writer: asyncio.StreamWriter, wedge: np.ndarray) -> None:
    """Serialize one wedge onto a stream (pair with :func:`read_wedge_frame`).

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


async def read_wedge_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int | None = MAX_FRAME_BYTES,
) -> np.ndarray | None:
    """Read one wedge frame; ``None`` on clean EOF at a frame boundary.

    Every malformed-input condition — mid-frame disconnect, truncated
    header or body, bad magic, undecodable dtype/shape — raises
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

    try:
        magic = await reader.readexactly(len(_FRAME_MAGIC))
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameProtocolError("truncated wedge frame header") from exc
    except (ConnectionError, OSError) as exc:
        raise FrameProtocolError("connection lost between wedge frames") from exc
    if magic != _FRAME_MAGIC:
        raise FrameProtocolError(f"bad wedge frame magic {magic!r}")
    try:
        (dtype_len,) = struct.unpack("<B", await reader.readexactly(1))
        dtype = np.dtype((await reader.readexactly(dtype_len)).decode("ascii"))
        (ndim,) = struct.unpack("<B", await reader.readexactly(1))
        shape = struct.unpack(f"<{ndim}I", await reader.readexactly(4 * ndim))
        # Python-int math: 255 dims of 2**32-1 each overflows int64.
        nbytes = math.prod(shape) * dtype.itemsize
        if max_frame_bytes is not None and nbytes > max_frame_bytes:
            raise FrameProtocolError(
                f"wedge frame claims {nbytes} body bytes, over the "
                f"{max_frame_bytes}-byte cap — corrupt header or hostile "
                "peer"
            )
        data = await reader.readexactly(nbytes)
    except asyncio.IncompleteReadError as exc:
        # A link that dies anywhere inside a frame is one condition to the
        # caller, wherever the bytes stopped.
        raise FrameProtocolError("truncated wedge frame") from exc
    except (ConnectionError, OSError) as exc:
        raise FrameProtocolError("connection lost mid wedge frame") from exc
    except (struct.error, TypeError, UnicodeDecodeError) as exc:
        raise FrameProtocolError("undecodable wedge frame header") from exc
    # One copy into an owned, writable buffer: np.frombuffer over received
    # `bytes` would hand every socket consumer a read-only array.
    return np.frombuffer(bytearray(data), dtype=dtype).reshape(shape)


class AsyncSocketSource(AsyncWedgeSource):
    """Wedge frames from an :class:`asyncio.StreamReader` (socket ingest).

    The other end writes frames with :func:`write_wedge_frame`; the stream
    ends on clean EOF.  A peer that dies mid-frame (or sends garbage)
    surfaces as one :class:`FrameProtocolError` and the socket is closed
    either way — an abrupt disconnect never leaks the transport.  Use
    :meth:`connect` for a TCP client, or wrap the reader an
    ``asyncio.start_server`` callback hands you.

    ``max_frame_bytes`` bounds how large a body any one frame may claim
    (see :func:`read_wedge_frame`); the gateway sets it from its config
    so untrusted producers cannot drive unbounded buffering.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter | None = None,
        max_frame_bytes: int | None = MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        # The writer must stay referenced for the connection's lifetime —
        # dropping it garbage-collects the transport and closes the socket.
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes

    @classmethod
    async def connect(cls, host: str, port: int,
                      max_frame_bytes: int | None = MAX_FRAME_BYTES,
                      ) -> "AsyncSocketSource":
        """Open a TCP connection and wrap it as a wedge source."""

        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    async def aclose(self) -> None:
        """Close the transport (idempotent; also runs on stream end)."""

        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def frames(self):
        """Yield length-prefixed frames until EOF; always closes the socket."""

        # finally (not just the EOF return) so a malformed frame or an
        # abandoned iteration doesn't pin the TCP transport open.
        try:
            while True:
                wedge = await read_wedge_frame(
                    self._reader, max_frame_bytes=self._max_frame_bytes
                )
                if wedge is None:
                    return
                yield wedge
        finally:
            await self.aclose()


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
