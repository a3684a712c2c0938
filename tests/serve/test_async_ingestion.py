"""The async ingestion gateway: wall-clock budgets, ordering, clean close.

The batcher promises are about the **monotonic wall clock** (a stalled DAQ
link must not stall the wedges already waiting), so these tests measure
real elapsed time.  Tolerances are deliberately loose — CI boxes stall —
but the *semantics* asserted are exact: a batch never waits meaningfully
past its deadline, ``budget=0`` never waits at all, results keep stream
order, and early close leaves nothing in flight.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.serve import (
    AsyncMicroBatcher,
    AsyncQueueSource,
    AsyncSocketSource,
    DecompressionService,
    ServiceConfig,
    StreamingCompressionService,
    aiter_wedges,
    async_replay_stream,
    read_wedge_frame,
    write_wedge_frame,
)

# Generous upper tolerance for "flushed at the deadline" on busy CI boxes;
# the lower bound only needs to show the batcher actually waited.
BUDGET = 0.25
TOL = 1.0


@pytest.fixture(scope="module")
def model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def wedges():
    rng = np.random.default_rng(5)
    w = rng.integers(0, 1024, size=(13, 16, 24, 30)).astype(np.uint16)
    w[w < 500] = 0
    return w


@pytest.fixture(scope="module")
def serial_payloads(model, wedges):
    compressor = BCAECompressor(model)
    return [compressor.compress(w).payload for w in wedges]


def _wedge(i):
    return np.full((2, 3, 4), i, dtype=np.uint16)


async def _collect(aiterator):
    return [item async for item in aiterator]


class TestWallClockBudget:
    def test_stalled_stream_flushes_at_deadline(self):
        """A batch must flush ~budget after its first wedge, with no more
        arrivals needed — the property replayed stream time cannot give."""

        async def run():
            source = AsyncQueueSource()
            batcher = AsyncMicroBatcher(max_batch=16, max_delay_s=BUDGET)
            gen = batcher.batches(source.__aiter__())
            for i in range(3):
                source.put_nowait(_wedge(i))
            t0 = time.monotonic()
            batch = await asyncio.wait_for(gen.__anext__(), timeout=10.0)
            elapsed = time.monotonic() - t0
            source.close()
            with pytest.raises(StopAsyncIteration):
                await asyncio.wait_for(gen.__anext__(), timeout=10.0)
            return batch, elapsed

        batch, elapsed = asyncio.run(run())
        assert batch.n_wedges == 3
        assert batch.closed_by == "budget"
        # It waited (the stream never ended), but not meaningfully past the
        # deadline — and the batch's own wall-clock accounting agrees.
        assert elapsed >= BUDGET * 0.5
        assert elapsed <= BUDGET + TOL
        assert BUDGET * 0.5 <= batch.wait_s <= BUDGET + TOL

    def test_zero_budget_never_waits(self):
        """budget=0: a batch closes the moment the source would block."""

        async def run():
            source = AsyncQueueSource()
            batcher = AsyncMicroBatcher(max_batch=16, max_delay_s=0.0)
            batches = []

            async def consume():
                async for b in batcher.batches(source.__aiter__()):
                    batches.append((b, time.monotonic()))

            task = asyncio.ensure_future(consume())
            puts = []
            for i in range(4):
                source.put_nowait(_wedge(i))
                puts.append(time.monotonic())
                await asyncio.sleep(0.05)
            source.close()
            await asyncio.wait_for(task, timeout=10.0)
            return batches, puts

        batches, puts = asyncio.run(run())
        assert sum(b.n_wedges for b, _t in batches) == 4
        for b, emitted in batches:
            assert b.closed_by in ("budget", "eof")
            # Never held: emitted well before the 50 ms inter-arrival gap
            # would have been needed to grow the batch.
            assert b.wait_s <= TOL / 2

    def test_full_batch_closes_without_waiting(self, wedges):
        """An abundant source fills batches; the (huge) budget never fires."""

        async def run():
            batcher = AsyncMicroBatcher(max_batch=4, max_delay_s=60.0)
            t0 = time.monotonic()
            batches = await _collect(batcher.batches(aiter_wedges(wedges[:8])))
            return batches, time.monotonic() - t0

        batches, elapsed = asyncio.run(run())
        assert [b.n_wedges for b in batches] == [4, 4]
        assert all(b.closed_by == "full" for b in batches)
        assert elapsed < 5.0  # nowhere near the 60 s budget

    def test_no_batch_waits_past_deadline_randomized(self):
        """Property over random arrival processes: every budget-closed batch
        respects the deadline ± tolerance; nothing is dropped/reordered."""

        rng = np.random.default_rng(42)
        gaps = rng.choice([0.0, 0.005, 0.03, 0.12], size=12)

        async def run():
            source = AsyncQueueSource()

            async def produce():
                for i, gap in enumerate(gaps):
                    if gap:
                        await asyncio.sleep(gap)
                    await source.put(_wedge(i))
                source.close()

            producer = asyncio.ensure_future(produce())
            batcher = AsyncMicroBatcher(max_batch=3, max_delay_s=0.1)
            batches = await _collect(batcher.batches(source.__aiter__()))
            await producer
            return batches

        batches = asyncio.run(run())
        flat = [int(w[0, 0, 0]) for b in batches for w in b.wedges]
        assert flat == list(range(12))  # exactly once, in order
        for b in batches:
            if b.closed_by == "full":
                assert b.n_wedges == 3
            else:
                assert b.n_wedges <= 3
            assert b.wait_s <= 0.1 + TOL


class TestSourceFailure:
    @pytest.mark.parametrize("budget", [0.0, BUDGET])
    def test_wedges_before_a_source_failure_are_still_batched(self, budget):
        """A source that raises mid-batch (a malformed socket frame) loses
        nothing it already delivered: the partial batch flushes, then the
        error surfaces."""

        async def failing():
            yield _wedge(0)
            yield _wedge(1)
            raise ValueError("malformed frame")

        async def run():
            got = []
            with pytest.raises(ValueError, match="malformed"):
                async for batch in AsyncMicroBatcher(4, budget).batches(
                        aiter_wedges(failing())):
                    got.append(batch)
            return got

        got = asyncio.run(run())
        assert [int(w[0, 0, 0]) for b in got for w in b.wedges] == [0, 1]
        assert got[-1].closed_by == "eof"


class TestQueueSourceClose:
    def test_close_on_full_bounded_queue_still_ends_stream(self):
        """close() on a full bounded queue (no room for the sentinel) must
        still terminate the stream once the backlog drains."""

        async def run():
            source = AsyncQueueSource(maxsize=2)
            source.put_nowait(_wedge(0))
            source.put_nowait(_wedge(1))
            source.close()  # queue full: the sentinel cannot be enqueued
            items = await asyncio.wait_for(_collect(aiter_wedges(source)), timeout=10.0)
            return items

        items = asyncio.run(run())
        assert [int(i.wedge[0, 0, 0]) for i in items] == [0, 1]

    def test_close_racing_blocked_put_loses_nothing(self):
        """A put() blocked on a full queue when close() lands must still be
        delivered, even if the DONE sentinel slips in ahead of it."""

        async def run():
            source = AsyncQueueSource(maxsize=1)
            source.put_nowait(_wedge(1))

            async def producer():
                await source.put(_wedge(2))  # blocks: queue is full

            prod = asyncio.ensure_future(producer())
            await asyncio.sleep(0)  # let the put block

            items = []

            async def consume():
                async for item in aiter_wedges(source):
                    items.append(int(item.wedge[0, 0, 0]))
                    # Close in the window where the queue is momentarily
                    # empty but the blocked put hasn't resumed yet.
                    if not source._closed:
                        source.close()

            await asyncio.wait_for(consume(), timeout=10.0)
            await prod
            return items

        assert asyncio.run(run()) == [1, 2]

    def test_put_after_close_rejected(self):
        async def run():
            source = AsyncQueueSource()
            source.close()
            with pytest.raises(RuntimeError, match="closed"):
                await source.put(_wedge(0))
            with pytest.raises(RuntimeError, match="closed"):
                source.put_nowait(_wedge(0))

        asyncio.run(run())


class TestAsyncSyncEquivalence:
    @pytest.mark.parametrize("config", [
        ServiceConfig(max_batch=4, workers=0),
        ServiceConfig(max_batch=4, workers=2, inflight=3),
        ServiceConfig(max_batch=8, workers=1, backend="process", shm_slab_mb=4.0),
    ], ids=["inline", "thread2", "process-shm"])
    def test_same_bytes_same_order(self, model, wedges, serial_payloads, config):
        service = StreamingCompressionService(model, config)
        payloads, stats = asyncio.run(service.run_async(wedges))
        assert stats.n_wedges == len(wedges)
        assert [r.seq for r in stats.records] == sorted(r.seq for r in stats.records)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    def test_queue_fed_gateway_matches_serial(self, model, wedges, serial_payloads):
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, max_delay_s=0.05, workers=0)
        )

        async def run():
            source = AsyncQueueSource()

            async def produce():
                for w in wedges:
                    await source.put(w)
                    await asyncio.sleep(0.002)
                source.close()

            producer = asyncio.ensure_future(produce())
            payloads, stats = await service.run_async(source)
            await producer
            return payloads, stats

        payloads, stats = asyncio.run(run())
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    def test_decompression_async_matches_sync(self, model, wedges):
        compressor = BCAECompressor(model)
        batch = compressor.compress(wedges)
        reference = compressor.decompress(batch)
        service = DecompressionService(model, ServiceConfig(max_batch=4, workers=2))
        recons, stats = asyncio.run(service.run_async(batch))
        np.testing.assert_array_equal(np.concatenate(recons), reference)
        assert stats.n_wedges == len(wedges)

    def test_wall_clock_replay_matches_serial(self, model, wedges, serial_payloads):
        """async_replay_stream paces arrivals for real; bytes unchanged."""

        from repro.daq import DAQConfig, StreamingCompressionSim

        sim = StreamingCompressionSim(
            DAQConfig(frame_rate_hz=2000.0, wedges_per_frame=4), seed=3
        )
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=8, max_delay_s=0.02)
        )
        payloads, stats = asyncio.run(
            service.run_async(async_replay_stream(sim.wedge_stream(wedges), speed=4.0))
        )
        assert stats.n_wedges == len(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)


class TestCancellationAndClose:
    def test_early_close_drains_cleanly(self, model, wedges, serial_payloads):
        """Breaking out of the async stream strands no in-flight units."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, workers=2, inflight=2)
        )

        async def run():
            gen = service.compress_stream_async(wedges)
            record, payload = await gen.__anext__()
            await gen.aclose()
            return record

        record = asyncio.run(run())
        assert record.seq == 0
        # The service survives an abandoned stream: full parity afterwards.
        payloads, _ = service.run(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)

    def test_early_close_releases_all_slabs(self, model, wedges):
        from multiprocessing import shared_memory

        service = StreamingCompressionService(
            model,
            ServiceConfig(max_batch=2, workers=1, backend="process", shm_slab_mb=4.0),
        )

        async def run():
            gen = service.compress_stream_async(wedges)
            await gen.__anext__()
            await gen.aclose()

        asyncio.run(run())
        assert service.last_shm["transport"] == "shm"
        assert service.last_shm["leased_at_close"] == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=service.last_shm["name"])

    def test_session_submit_and_ordered_results(self, model, wedges):
        from repro.serve import MicroBatcher, iter_wedges

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=2, inflight=8)
        )
        batches = list(MicroBatcher(max_batch=4).batches(iter_wedges(wedges)))

        async def run():
            async with service.session() as session:
                futures = [await session.submit(b) for b in batches]
                emitted = [(r, p) async for r, p in session.results()]
                assert session.pending == 0
                for fut in futures:  # each unit's own future resolved too
                    assert fut.done()
                return emitted

        emitted = asyncio.run(run())
        assert [r.seq for r, _p in emitted] == list(range(len(batches)))

    def test_submit_after_close_rejected(self, model):
        service = StreamingCompressionService(model, ServiceConfig(workers=0))

        async def run():
            session = service.session()
            await session.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await session.submit(None)
            assert session.closed

        asyncio.run(run())

    def test_consumer_task_cancellation_cleans_up(self, model, wedges):
        """Cancelling the consuming task still shuts the backend down."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, max_delay_s=5.0, workers=0)
        )

        async def run():
            source = AsyncQueueSource()
            source.put_nowait(wedges[0])  # one wedge, then silence
            task = asyncio.ensure_future(service.run_async(source))
            await asyncio.sleep(0.1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(run())
        # Serviceable afterwards.
        payloads, stats = service.run(wedges)
        assert stats.n_wedges == len(wedges)


class TestSocketSource:
    def test_frames_round_trip_over_tcp(self, wedges):
        async def run():
            served = list(wedges[:5])

            async def handler(reader, writer):
                for w in served:
                    write_wedge_frame(writer, w)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            source = await AsyncSocketSource.connect("127.0.0.1", port)
            items = await _collect(aiter_wedges(source))
            server.close()
            await server.wait_closed()
            return items

        items = asyncio.run(run())
        assert [item.seq for item in items] == list(range(5))
        for item, w in zip(items, wedges[:5]):
            np.testing.assert_array_equal(item.wedge, w)

    def test_bad_magic_rejected(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"NOPE" + b"\x00" * 16)
            reader.feed_eof()
            with pytest.raises(ValueError, match="magic"):
                await read_wedge_frame(reader)

        asyncio.run(run())

    def test_truncation_anywhere_in_frame_is_valueerror(self, wedges):
        """A link dying mid-header or mid-payload is one error condition."""

        import io

        buffer = io.BytesIO()

        class _Writer:
            def write(self, data):
                buffer.write(data)

        write_wedge_frame(_Writer(), wedges[0])
        frame = buffer.getvalue()

        async def run(cut):
            reader = asyncio.StreamReader()
            reader.feed_data(frame[:cut])
            reader.feed_eof()
            with pytest.raises(ValueError, match="truncated"):
                await read_wedge_frame(reader)

        for cut in (2, 5, 8, len(frame) - 1):  # magic, dtype, shape, payload
            asyncio.run(run(cut))

    def test_clean_eof_ends_stream(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await read_wedge_frame(reader)

        assert asyncio.run(run()) is None

    def test_malformed_frames_raise_frame_protocol_error(self, wedges):
        """Every malformed condition is the single documented exception
        (a ValueError subclass, so older catch sites keep working), with
        the raw cause chained."""

        from repro.serve import FrameProtocolError

        import io

        buffer = io.BytesIO()

        class _Writer:
            def write(self, data):
                buffer.write(data)

        write_wedge_frame(_Writer(), wedges[0])
        frame = buffer.getvalue()

        async def run(data):
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            with pytest.raises(FrameProtocolError):
                await read_wedge_frame(reader)

        asyncio.run(run(frame[: len(frame) - 1]))      # truncated payload
        asyncio.run(run(b"NOPE" + frame[4:]))          # bad magic
        # Garbage dtype string: header decodes but numpy rejects it.
        bad = frame[:4] + b"\x03zzz" + frame[8:]
        asyncio.run(run(bad))

    def test_mid_frame_socket_close_is_frame_protocol_error(self, wedges):
        """A peer that dies mid-frame surfaces as FrameProtocolError and
        the source's transport is closed, not leaked."""

        from repro.serve import FrameProtocolError

        async def run():
            async def handler(reader, writer):
                write_wedge_frame(writer, wedges[0])
                # Second frame: cut the connection after the header.
                writer.write(b"WDG1\x03")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            source = await AsyncSocketSource.connect("127.0.0.1", port)
            got = []
            with pytest.raises(FrameProtocolError):
                async for item in source:
                    got.append(item)
            assert source._closed.is_set()  # transport closed by frames()
            server.close()
            await server.wait_closed()
            return got

        got = asyncio.run(run())
        assert len(got) == 1  # the complete first frame was delivered
        np.testing.assert_array_equal(got[0].wedge, wedges[0])

    def test_socket_gateway_to_payloads(self, model, wedges, serial_payloads):
        """Socket frames all the way through the compression gateway."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, max_delay_s=0.05, workers=0)
        )

        async def run():
            async def handler(reader, writer):
                for w in wedges:
                    write_wedge_frame(writer, w)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            source = await AsyncSocketSource.connect("127.0.0.1", port)
            payloads, stats = await service.run_async(source)
            server.close()
            await server.wait_closed()
            return payloads, stats

        payloads, stats = asyncio.run(run())
        assert stats.n_wedges == len(wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == b"".join(serial_payloads)
