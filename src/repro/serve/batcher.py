"""Latency-budgeted micro-batching (the "accumulate" half of serving).

Batching is what makes the encoder fast (Figure 6: throughput rises with
batch size), but an always-on service cannot wait forever for a batch to
fill — the counting house has a latency budget.  :class:`MicroBatcher`
closes a batch when either

* it holds ``max_batch`` wedges, or
* the next wedge's arrival timestamp is more than ``max_delay_s`` after the
  oldest waiting wedge's (stream-time latency budget exceeded).

For untimed sources (all arrivals at 0.0) the second rule never fires and
the batcher degenerates to plain chunking, which is exactly right for
offline replays.

:class:`AsyncMicroBatcher` is the online twin: it consumes an *async*
stream and enforces the budget against the **monotonic wall clock** — a
batch is flushed at ``first-wedge receipt + max_delay_s`` whether or not
another wedge ever arrives, which replayed stream time cannot promise.
``max_delay_s = 0`` means "never wait": a batch closes as soon as the
source would block.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import AsyncIterable, AsyncIterator, Iterable, Iterator

import numpy as np

from .source import StreamItem

__all__ = ["MicroBatch", "MicroBatcher", "AsyncMicroBatcher"]


@dataclasses.dataclass
class MicroBatch:
    """A batch of wedges ready for one compressor call.

    Attributes
    ----------
    seq:
        Batch sequence number (0-based, dense).
    first_seq:
        Stream sequence number of the first wedge in the batch.
    wedges:
        Stacked raw wedges ``(B, R, A, H)``, safe to hand to a worker
        thread: a fresh array, or for a one-wedge batch a view of that
        wedge (sources hand each wedge over for good).
    oldest_arrival_s / newest_arrival_s:
        Stream-time arrival span covered by the batch.
    closed_by:
        Why the batch closed: ``"full"`` (hit ``max_batch``), ``"budget"``
        (latency budget expired), ``"eof"`` (stream ended) or ``"drain"``
        (the service stopped intake — a graceful drain flushes whatever
        had accumulated).
    wait_s:
        Wall-clock time the batch accumulated before closing (async
        batcher only; the sync batcher has no wall clock and leaves 0).
    """

    seq: int
    first_seq: int
    wedges: np.ndarray
    oldest_arrival_s: float
    newest_arrival_s: float
    closed_by: str = ""
    wait_s: float = 0.0

    @property
    def n_wedges(self) -> int:
        return self.wedges.shape[0]

    @property
    def accumulation_s(self) -> float:
        """Stream time spent waiting for the batch to fill."""

        return self.newest_arrival_s - self.oldest_arrival_s


class MicroBatcher:
    """Accumulate a wedge stream into micro-batches under a latency budget.

    Parameters
    ----------
    max_batch:
        Upper bound on wedges per batch (the knee of the Figure-6 curve is
        the right setting; defaults to 8).
    max_delay_s:
        Stream-time accumulation budget.  ``0`` means "never wait": only
        ``max_batch`` closes batches (untimed sources behave this way
        regardless).
    """

    def __init__(self, max_batch: int = 8, max_delay_s: float = 0.0) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)

    def batches(
        self, source: Iterable[StreamItem], stop=None
    ) -> Iterator[MicroBatch]:
        """Yield :class:`MicroBatch` chunks in stream order.

        ``stop`` is an optional zero-arg callable polled once per wedge —
        the serving layer's drain latch.  When it turns true, whatever has
        accumulated is flushed as a final ``closed_by="drain"`` batch and
        the source is not pulled again.
        """

        pending: list[StreamItem] = []
        batch_seq = 0

        def flush(closed_by: str) -> MicroBatch:
            nonlocal batch_seq, pending
            batch = _make_batch(batch_seq, pending, closed_by)
            batch_seq += 1
            pending = []
            return batch

        for item in source:
            if pending and (
                self.max_delay_s > 0
                and item.arrival_s - pending[0].arrival_s > self.max_delay_s
            ):
                yield flush("budget")
            pending.append(item)
            if stop is not None and stop():
                yield flush("drain")
                return
            if len(pending) >= self.max_batch:
                yield flush("full")
        if pending:
            yield flush("eof")


def _make_batch(
    batch_seq: int, pending: list[StreamItem], closed_by: str, wait_s: float = 0.0
) -> MicroBatch:
    return MicroBatch(
        seq=batch_seq,
        first_seq=pending[0].seq,
        wedges=(pending[0].wedge[None] if len(pending) == 1
                else np.stack([item.wedge for item in pending])),
        oldest_arrival_s=pending[0].arrival_s,
        newest_arrival_s=pending[-1].arrival_s,
        closed_by=closed_by,
        wait_s=wait_s,
    )


class AsyncMicroBatcher:
    """Wall-clock micro-batching of an async wedge stream.

    Parameters mirror :class:`MicroBatcher`, but ``max_delay_s`` is a
    **wall-clock** budget against :func:`time.monotonic`: the moment a
    batch's first wedge is received, a deadline is armed, and the batch is
    flushed when the deadline passes even if the source never produces
    another wedge (the case replayed stream time cannot handle — a stalled
    DAQ link must not stall the wedges already waiting).  ``max_delay_s =
    0`` means "never wait": the batch closes as soon as the source would
    block, so a wedge is never held hostage to timing.

    The source is pulled through a single persistent task, so a flush on
    timeout never cancels (or loses) an in-progress pull.
    """

    def __init__(self, max_batch: int = 8, max_delay_s: float = 0.0) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)

    async def batches(
        self, source: AsyncIterable[StreamItem], stop=None
    ) -> AsyncIterator[MicroBatch]:
        """Yield :class:`MicroBatch` chunks in stream order, on deadline.

        ``stop`` mirrors :meth:`MicroBatcher.batches`: a zero-arg drain
        latch polled per wedge; once true, the accumulated batch flushes
        as ``closed_by="drain"`` and the source is not pulled again.  A
        source that raises still gets its accumulated wedges flushed
        (``closed_by="eof"``) before the error propagates.
        """

        iterator = source.__aiter__()
        pending: list[StreamItem] = []
        batch_seq = 0
        deadline = 0.0
        first_receipt = 0.0
        pull: asyncio.Future | None = None
        exhausted = False

        def flush(closed_by: str) -> MicroBatch:
            nonlocal batch_seq, pending
            batch = _make_batch(
                batch_seq, pending, closed_by, time.monotonic() - first_receipt
            )
            batch_seq += 1
            pending = []
            return batch

        try:
            while not exhausted:
                if pull is None:
                    pull = asyncio.ensure_future(iterator.__anext__())
                if not pending:
                    # Nothing waiting: block indefinitely for the next wedge.
                    try:
                        item = await pull
                    except StopAsyncIteration:
                        break
                    finally:
                        pull = None
                else:
                    # A batch is accumulating: wait at most until its
                    # monotonic deadline, without cancelling the pull.
                    timeout = (
                        max(0.0, deadline - time.monotonic())
                        if self.max_delay_s > 0
                        else 0.0
                    )
                    done, _ = await asyncio.wait((pull,), timeout=timeout)
                    if pull not in done:
                        yield flush("budget")
                        continue
                    try:
                        item = pull.result()
                    except StopAsyncIteration:
                        exhausted = True
                        pull = None
                        continue
                    except Exception:
                        # The source failed (e.g. a malformed frame): the
                        # wedges received before it are still served.
                        pull = None
                        yield flush("eof")
                        raise
                    pull = None
                if not pending:
                    first_receipt = time.monotonic()
                    deadline = first_receipt + self.max_delay_s
                pending.append(item)
                if stop is not None and stop():
                    yield flush("drain")
                    return
                if len(pending) >= self.max_batch:
                    yield flush("full")
            if pending:
                yield flush("eof")
        finally:
            if pull is not None:
                pull.cancel()
                try:
                    await pull
                except (StopAsyncIteration, asyncio.CancelledError):
                    pass
