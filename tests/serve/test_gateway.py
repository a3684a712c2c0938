"""The sharded gateway: multi-producer ingest, routing, shard loss, drain.

The promises under test are exact even where tolerances are loose:

* every delivered unit is **byte-identical** to the single-service inline
  path (batch invariance makes per-wedge code frames independent of how
  sessions were batched, sharded or spilled);
* producer faults — clean EOF, mid-frame death, malformed frames — are
  contained **per session**, never touching the shards or other sessions;
* a shard that exhausts its backend ladder is evicted: its innocent
  in-flight units re-route to survivors, only the poisoned unit's session
  fails, and the shard's slab ring is released at eviction;
* ``drain()`` quiesces shard-by-shard and is terminal.
"""

import asyncio
import gc
import logging
import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BCAECompressor, build_model
from repro.serve import (
    MAX_FRAME_BYTES,
    AsyncSocketSource,
    FrameProtocolError,
    GatewayConfig,
    MicroBatcher,
    ServiceConfig,
    ServingGateway,
    ShardLostError,
    StreamingCompressionService,
    StreamRouter,
    WorkerCrashError,
    iter_wedges,
    read_wedge_frame,
    write_wedge_frame,
)


@pytest.fixture(scope="module")
def model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


@pytest.fixture(scope="module")
def wedges():
    rng = np.random.default_rng(7)
    w = rng.integers(0, 1024, size=(12, 16, 24, 30)).astype(np.uint16)
    w[w < 500] = 0
    return w


@pytest.fixture(scope="module")
def ref_codes(model, wedges):
    compressor = BCAECompressor(model)
    return [compressor.compress(w[None]).codes()[0] for w in wedges]


POISON_VALUE = 1023


def _poison(wedges):
    return np.full_like(wedges[0], POISON_VALUE)


class CrashyService(StreamingCompressionService):
    """Crashes on any unit containing an all-POISON_VALUE wedge; a
    ``gate`` event (when set on the class instance) delays the crash so a
    test can stack innocent units behind the poisoned one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = None

    def _work(self, compressor, item):
        if bool((item.wedges == POISON_VALUE).all(axis=(1, 2, 3)).any()):
            if self.gate is not None:
                self.gate.wait(timeout=30.0)
            raise WorkerCrashError("poisoned wedge")
        return super()._work(compressor, item)


async def _produce(port, wedge_list, mode="clean"):
    """One producer session.  Returns the response frames it received.

    mode: "clean" sends every wedge then half-closes; "mid-frame" dies
    inside the last frame's body; "malformed" sends garbage after the
    first wedge.
    """

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if mode == "clean":
            for w in wedge_list:
                write_wedge_frame(writer, w)
                await writer.drain()
            writer.write_eof()
        elif mode == "mid-frame":
            for w in wedge_list[:-1]:
                write_wedge_frame(writer, w)
            await writer.drain()
            writer.write(b"WDG1\x03")  # header cut mid-dtype
            await writer.drain()
            writer.write_eof()
        elif mode == "malformed":
            write_wedge_frame(writer, wedge_list[0])
            writer.write(b"GARBAGE-NOT-A-FRAME")
            await writer.drain()
            writer.write_eof()
        out = []
        while True:
            frame = await read_wedge_frame(reader)
            if frame is None:
                return out
            out.append(frame)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _services(model, n, cfg=None, cls=StreamingCompressionService):
    cfg = cfg or ServiceConfig(max_batch=4, workers=0)
    return [cls(model, cfg) for _ in range(n)]


# ----------------------------------------------------------------------
# Frame-protocol regressions (the serve-layer correctness sweep)
# ----------------------------------------------------------------------


class TestFrameProtocol:
    def test_socket_ingested_wedges_are_writable(self, wedges):
        """np.frombuffer over received bytes is immutable — regression:
        the returned array must behave like every other source under
        in-place ops."""

        async def run():
            reader = asyncio.StreamReader()

            class _Writer:
                def write(self, data):
                    reader.feed_data(data)

            write_wedge_frame(_Writer(), wedges[0])
            reader.feed_eof()
            return await read_wedge_frame(reader)

        wedge = asyncio.run(run())
        assert wedge.flags.writeable
        wedge += 1  # must not raise
        np.testing.assert_array_equal(wedge, wedges[0].astype(wedge.dtype) + 1)

    def test_hostile_header_rejected_before_buffering(self):
        """A header claiming a huge body (255 dims × u32 each) must raise
        at the cap, not drive readexactly into unbounded buffering."""

        import struct

        header = b"WDG1" + struct.pack("<B", 3) + b"<u2"
        header += struct.pack("<B", 4) + struct.pack("<4I", *((2**31,) * 4))

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(header)
            # No body bytes at all: the cap must fire from the header
            # alone, without waiting for (or allocating) the claimed body.
            with pytest.raises(FrameProtocolError, match="cap"):
                await asyncio.wait_for(read_wedge_frame(reader), timeout=5.0)

        asyncio.run(run())

    def test_cap_is_configurable_and_default_generous(self, wedges):
        import io

        buffer = io.BytesIO()

        class _Writer:
            def write(self, data):
                buffer.write(data)

        write_wedge_frame(_Writer(), wedges[0])
        frame = buffer.getvalue()

        async def run(cap):
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_wedge_frame(reader, max_frame_bytes=cap)

        with pytest.raises(FrameProtocolError, match="cap"):
            asyncio.run(run(64))
        np.testing.assert_array_equal(asyncio.run(run(None)), wedges[0])
        np.testing.assert_array_equal(asyncio.run(run(MAX_FRAME_BYTES)), wedges[0])
        assert wedges[0].nbytes < MAX_FRAME_BYTES

    @pytest.mark.parametrize("array", [
        np.arange(2 * 3 * 5, dtype=np.uint16).reshape(2, 3, 5),
        np.linspace(0, 1, 7, dtype=np.float16),
        np.arange(24, dtype=np.int32).reshape(4, 6)[::2, 1::2],  # strided
        np.arange(24, dtype=np.float32).reshape(4, 6).T,         # F-order
        np.zeros((3, 0, 2), dtype=np.uint16),
        np.array([7, -2], dtype=">i4"),
    ], ids=["u2", "f2", "strided", "transposed", "empty", "bigendian"])
    def test_wire_bytes_are_the_parents_frame(self, array):
        """The frame is assembled with one copy now; the bytes on the wire
        are what ``header + wedge.tobytes()`` was, and the round trip still
        returns an owned, writable array."""

        import struct

        writes = []

        class _Writer:
            def write(self, data):
                writes.append(data)

        write_wedge_frame(_Writer(), array)
        dtype = array.dtype.str.encode("ascii")
        want = (b"WDG1" + struct.pack("<B", len(dtype)) + dtype
                + struct.pack("<B", array.ndim)
                + struct.pack(f"<{array.ndim}I", *array.shape)
                + array.tobytes())
        assert b"".join(bytes(w) for w in writes) == want

        async def run():
            reader = asyncio.StreamReader()
            for data in writes:
                reader.feed_data(data)
            reader.feed_eof()
            return await read_wedge_frame(reader)

        got = asyncio.run(run())
        np.testing.assert_array_equal(got, array)
        assert got.dtype == array.dtype and got.flags.writeable
        assert not np.shares_memory(got, array)

    def test_frame_is_one_write_of_a_snapshot(self, wedges):
        """One write (a separate header write costs the receiver an extra
        wake-up) holding a snapshot: a producer may overwrite its buffer
        right after the call, where a zero-copy view would alias it until
        the transport flushed."""

        writes = []

        class _Writer:
            def write(self, data):
                writes.append(data)

        buffer = wedges[0].copy()
        write_wedge_frame(_Writer(), buffer)
        buffer[:] = 0
        (frame,) = writes
        assert isinstance(frame, bytes)
        assert frame.endswith(wedges[0].tobytes())

    def test_write_frame_rejects_dims_over_u32(self):
        """Dims ≥ 2³² must raise FrameProtocolError, not struct.error.
        (Zero-width trailing axis keeps the array allocation-free.)"""

        huge = np.zeros((2**32, 0), dtype=np.uint16)
        with pytest.raises(FrameProtocolError, match="u32"):
            write_wedge_frame(None, huge)


# ----------------------------------------------------------------------
# Multi-producer round trips
# ----------------------------------------------------------------------


class TestGatewayRoundTrip:
    def _run(self, model, wedges, n_shards, producer_specs, cfg=None,
             gw_cfg=None, services=None):
        services = services or _services(model, n_shards, cfg)
        gateway = ServingGateway(services, gw_cfg or GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                *[_produce(gateway.port, ws, mode) for ws, mode in producer_specs]
            )
            await gateway.drain()
            await gateway.aclose()
            return results

        return asyncio.run(run()), gateway

    def test_concurrent_producers_clean_eof_byte_parity(
            self, model, wedges, ref_codes):
        """4 producers × 2 shards: every producer gets one response frame
        per wedge, in order, byte-identical to the inline path."""

        specs = [(list(wedges), "clean")] * 4
        results, gateway = self._run(model, wedges, 2, specs)
        for out in results:
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        stats = gateway.stats()
        assert stats.n_sessions == 4
        assert stats.n_wedges == 4 * len(wedges)
        assert stats.lost_shards == 0
        assert sum(s.n_wedges for s in stats.per_shard) == stats.n_wedges

    def test_mid_frame_death_contained_per_session(
            self, model, wedges, ref_codes):
        """A producer dying mid-frame fails its own session only; the
        concurrent clean session gets full byte parity."""

        specs = [(list(wedges), "clean"), (list(wedges[:4]), "mid-frame")]
        results, gateway = self._run(model, wedges, 2, specs)
        clean, dead = results
        assert len(clean) == len(wedges)
        for got, want in zip(clean, ref_codes):
            assert got.tobytes() == want.tobytes()
        # The dead session still gets responses for frames completed
        # before the cut (they were already routed), never more.
        assert len(dead) <= 3
        health = gateway.health()
        assert health.lost == []  # producer faults never evict shards

    def test_malformed_frame_contained_per_session(
            self, model, wedges, ref_codes):
        specs = [(list(wedges), "clean"), (list(wedges), "malformed"),
                 (list(wedges), "clean")]
        results, gateway = self._run(model, wedges, 2, specs)
        for out in (results[0], results[2]):
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        assert len(results[1]) <= 1
        assert gateway.stats().lost_shards == 0

    def test_sharded_bytes_match_single_service_inline(
            self, model, wedges, ref_codes):
        """Byte parity is invariant to shard count: 1 shard and 3 shards
        deliver identical frames for identical sessions."""

        specs = [(list(wedges), "clean")] * 2
        one, _ = self._run(model, wedges, 1, specs)
        three, _ = self._run(model, wedges, 3, specs)
        for a, b in zip(one, three):
            assert b"".join(f.tobytes() for f in a) == \
                b"".join(f.tobytes() for f in b)
            assert b"".join(f.tobytes() for f in a) == \
                b"".join(c.tobytes() for c in ref_codes)


# ----------------------------------------------------------------------
# Router policy: placement, backpressure, health-awareness
# ----------------------------------------------------------------------


class GatedService(StreamingCompressionService):
    """Blocks every unit on an event, so tests can hold units in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def _work(self, compressor, item):
        self.gate.wait(timeout=30.0)
        return super()._work(compressor, item)


class TestRouterPolicy:
    def test_sessions_stick_to_home_shard(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            router = StreamRouter(_services(model, 2))
            router.start()
            futs = [await router.submit(b, session=11) for b in batches]
            await asyncio.gather(*futs)
            per_shard = [s.n_batches for s in router.stats().per_shard]
            await router.drain()
            return per_shard

        per_shard = asyncio.run(run())
        # One session, healthy uncontended home: no spill.
        assert sorted(per_shard) == [0, len(batches)]

    def test_full_home_spills_to_least_loaded(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            services = [GatedService(model, ServiceConfig(max_batch=2, workers=0))
                        for _ in range(2)]
            router = StreamRouter(services, inflight_per_shard=1)
            router.start()
            f0 = await router.submit(batches[0], session=5)  # home assigned
            f1 = await router.submit(batches[1], session=5)  # home full: spill
            spilled = router.rerouted
            for service in services:
                service.gate.set()
            await asyncio.gather(f0, f1)
            await router.drain()
            return spilled

        assert asyncio.run(run()) == 1

    def test_backpressure_awaits_capacity(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:6])))

        async def run():
            services = [GatedService(model, ServiceConfig(max_batch=2, workers=0))]
            router = StreamRouter(services, inflight_per_shard=2)
            router.start()
            f0 = await router.submit(batches[0])
            f1 = await router.submit(batches[1])
            # Third submit must await capacity, not place over the bound.
            third = asyncio.ensure_future(router.submit(batches[2]))
            await asyncio.sleep(0.1)
            assert not third.done()
            services[0].gate.set()
            f2 = await asyncio.wait_for(third, timeout=30.0)
            await asyncio.gather(f0, f1, f2)
            await router.drain()

        asyncio.run(run())

    def test_routes_around_draining_shard(self, model, wedges):
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:8])))

        async def run():
            services = _services(model, 2)
            router = StreamRouter(services)
            router.start()
            # wait=False: the latch flips shard 1's health to draining;
            # its idle pump stream only observes the latch at its next
            # item, which health-aware placement ensures never comes.
            services[1].drain(wait=False)
            futs = [await router.submit(b, session=i)
                    for i, b in enumerate(batches)]
            await asyncio.gather(*futs)
            per_shard = [s.n_batches for s in router.stats().per_shard]
            await router.drain()
            return per_shard

        per_shard = asyncio.run(run())
        assert per_shard[1] == 0
        assert per_shard[0] == len(batches)


# ----------------------------------------------------------------------
# Shard loss
# ----------------------------------------------------------------------


class TestShardLoss:
    def test_innocent_inflight_units_reroute(self, model, wedges, ref_codes):
        """Units queued behind a poisoned unit on the dying shard re-route
        to the survivor and still deliver byte-correct results."""

        poison = _poison(wedges)
        batches = list(MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:6])))

        async def run():
            cfg = ServiceConfig(max_batch=2, workers=0, max_retries=0)
            services = [CrashyService(model, cfg) for _ in range(2)]
            services[0].gate = threading.Event()
            router = StreamRouter(services, inflight_per_shard=8)
            router.start()
            # Force everything onto shard 0 by making shard 1 look busy.
            router._homes[1] = router._shards[0]
            poison_batch = next(iter(
                MicroBatcher(max_batch=1).batches(iter_wedges([poison]))))
            bad = await router.submit(poison_batch, session=1)
            innocents = [await router.submit(b, session=1) for b in batches]
            await asyncio.sleep(0.1)  # let innocents queue behind the poison
            services[0].gate.set()     # now crash shard 0
            with pytest.raises(WorkerCrashError):
                await bad
            results = await asyncio.gather(*innocents)
            state = (router.lost_shards, router.rerouted,
                     [s.level for s in router.stats().per_shard])
            await router.drain()
            return results, state

        results, (lost, rerouted, levels) = asyncio.run(run())
        assert lost == 1
        assert rerouted >= len(batches)
        assert levels[0] == "lost"
        flat = [w for _r, payload in results for w in payload.codes()]
        for got, want in zip(flat, ref_codes):
            assert got.tobytes() == want.tobytes()

    def test_no_survivor_fails_per_session_not_globally(self, model, wedges):
        """Last shard lost: queued units fail with ShardLostError and new
        submits raise it too — no hang, no global crash."""

        poison = _poison(wedges)

        async def run():
            cfg = ServiceConfig(max_batch=2, workers=0, max_retries=0)
            services = [CrashyService(model, cfg)]
            services[0].gate = threading.Event()
            router = StreamRouter(services)
            router.start()
            poison_batch = next(iter(
                MicroBatcher(max_batch=1).batches(iter_wedges([poison]))))
            clean_batch = next(iter(
                MicroBatcher(max_batch=2).batches(iter_wedges(wedges[:2]))))
            bad = await router.submit(poison_batch)
            orphan = await router.submit(clean_batch)
            await asyncio.sleep(0.05)
            services[0].gate.set()
            with pytest.raises(WorkerCrashError):
                await bad
            with pytest.raises(ShardLostError):
                await orphan
            with pytest.raises(ShardLostError):
                await router.submit(clean_batch)
            await router.drain()

        asyncio.run(run())

    def test_socket_sessions_survive_shard_loss(self, model, wedges, ref_codes):
        """End-to-end: the poisoned producer's session fails alone; clean
        concurrent sessions get full byte parity from the survivors."""

        poison = _poison(wedges)
        cfg = ServiceConfig(max_batch=4, workers=0, max_retries=0)
        services = [CrashyService(model, cfg) for _ in range(2)]
        gateway = ServingGateway(services, GatewayConfig())

        async def run():
            await gateway.start()
            results = await asyncio.gather(
                _produce(gateway.port, [poison]),
                _produce(gateway.port, list(wedges)),
                _produce(gateway.port, list(wedges)),
            )
            health = gateway.health()
            stats = gateway.stats()
            await gateway.drain()
            await gateway.aclose()
            return results, health, stats

        (bad, *clean), health, stats = asyncio.run(run())
        assert bad == []
        for out in clean:
            assert len(out) == len(wedges)
            for got, want in zip(out, ref_codes):
                assert got.tobytes() == want.tobytes()
        assert stats.lost_shards == 1
        assert len(health.lost) == 1
        assert health.state == "degraded"
        lost_health = health.shards[health.lost[0]]
        assert lost_health.state == "lost"
        assert stats.faults.crashes >= 1

    def test_shard_loss_releases_ring_no_leaked_slabs(
            self, model, wedges, tmp_path):
        """A process-backend shard that exhausts its ladder releases its
        shared ring at eviction — zero leaked slabs while the gateway
        keeps serving."""

        from multiprocessing import shared_memory

        poison = _poison(wedges)
        # degrade_after=1: each crash steps the ladder down immediately,
        # so three crashed units walk process → thread → inline → lost.
        cfg = ServiceConfig(max_batch=2, workers=1, backend="process",
                            max_retries=0, degrade_after=1)
        services = [CrashyService(model, cfg), CrashyService(
            model, ServiceConfig(max_batch=2, workers=0))]
        # One batcher stream so every unit has a distinct seq: primer is
        # seq 0, the three poisons are seqs 1-3, the closer is seq 4.
        feed = [wedges[0], poison, poison, poison, wedges[1]]
        batches = list(MicroBatcher(max_batch=1).batches(iter_wedges(feed)))
        primer, poisons, closer = batches[0], batches[1:4], batches[4]
        # The process rung runs the *real* compressor inside the worker
        # (the subclass ``_work`` override only executes on the
        # thread/inline rungs), so the first crash must be a genuine
        # worker SIGKILL — armed via the kill-token hook for the first
        # poison's seq, before the pool forks.
        token = tmp_path / "kill-token"
        token.write_text("")
        os.environ["REPRO_SERVE_KILL_FILE"] = str(token)
        os.environ["REPRO_SERVE_KILL_SEQ"] = "1"

        async def run():
            router = StreamRouter(services)
            router.start()
            router._homes[1] = router._shards[0]
            # Prime the ring with one clean unit so a slab segment exists.
            await (await router.submit(primer, session=1))
            ring_name = services[0].last_shm.get("name") or (
                router._shards[0]._transport.ring.spec().name
                if router._shards[0]._transport.ring is not None else None)
            # SIGKILL at the process rung, then the ``_work`` override
            # crashes the thread and inline rungs.
            for batch in poisons:
                fut = await router.submit(batch, session=1)
                with pytest.raises(WorkerCrashError):
                    await fut
            assert router.lost_shards == 1
            # Survivor still serves.
            ok = await router.submit(closer, session=1)
            await ok
            leak_info = services[0].last_shm
            await router.drain()
            return ring_name, leak_info

        try:
            ring_name, leak_info = asyncio.run(run())
        finally:
            os.environ.pop("REPRO_SERVE_KILL_FILE", None)
            os.environ.pop("REPRO_SERVE_KILL_SEQ", None)
        # The ring is destroyed when the stream degrades below the
        # process rung (`leased_at_close` is only published when a ring
        # survives to transport close); either way nothing is leased and
        # the segment itself must be gone from the system.
        assert leak_info.get("leased_at_close", 0) == 0
        assert ring_name is not None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ring_name)
        if leak_info.get("name") and leak_info["name"] != ring_name:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=leak_info["name"])


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_quiesces_shard_by_shard_and_is_terminal(
            self, model, wedges, ref_codes):
        services = _services(model, 2)
        gateway = ServingGateway(services, GatewayConfig())

        async def run():
            await gateway.start()
            out = await _produce(gateway.port, list(wedges))
            drained = await gateway.drain()
            health = gateway.health()
            # Terminal: new units are refused on every shard.
            with pytest.raises((RuntimeError, ShardLostError)):
                await gateway.router.submit(None)
            await gateway.aclose()
            return out, drained, health

        out, drained, health = asyncio.run(run())
        assert drained is True
        assert health.state == "drained"
        assert not health.ok
        assert all(h.state == "drained" for h in health.shards)
        for got, want in zip(out, ref_codes):
            assert got.tobytes() == want.tobytes()
        # Per-service drains were issued shard-by-shard underneath.
        for service in services:
            assert service.health().state == "drained"

    def test_stats_aggregate_service_stats_across_shards(self, model, wedges):
        specs_batches = list(
            MicroBatcher(max_batch=3).batches(iter_wedges(wedges)))

        async def run():
            router = StreamRouter(_services(model, 3))
            router.start()
            futs = [await router.submit(b, session=i % 3)
                    for i, b in enumerate(specs_batches)]
            await asyncio.gather(*futs)
            stats = router.stats()
            await router.drain()
            return stats

        stats = asyncio.run(run())
        assert len(stats.per_shard) == 3
        assert stats.n_units == len(specs_batches)
        assert stats.n_wedges == len(wedges)
        assert stats.faults.total == 0
        assert "wedges=" in stats.row()


# ----------------------------------------------------------------------
# Adaptive slab sizing & fallback accounting
# ----------------------------------------------------------------------


class TestAdaptiveSlab:
    def test_adaptive_ring_fits_real_units_no_fallbacks(self, model, wedges):
        """Default shm_slab_mb=None sizes the ring from the first unit's
        arithmetic: real units fit, zero silent pickle degradations."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=1, backend="process"))
        payloads, stats = service.run(wedges)
        assert service.last_shm["transport"] == "shm"
        assert service.last_shm["input_fallbacks"] == 0
        assert service.last_shm["result_fallbacks"] == 0
        assert stats.faults.shm_fallbacks == 0
        # The ring's slab honours the service's own sizing arithmetic
        # (page-rounded).
        batch = next(iter(MicroBatcher(max_batch=4).batches(iter_wedges(wedges))))
        want = service._adaptive_slab_nbytes(batch)
        want = max(4096, -(-int(want) // 4096) * 4096)
        assert service.last_shm["slab_nbytes"] == want

    def test_undersized_slab_counts_fallbacks_on_stats(self, model, wedges):
        """An explicitly tiny slab degrades units to pickle — correct
        bytes, but now *counted* on ServiceStats and health totals."""

        serial = BCAECompressor(model).compress(wedges).codes()
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=1, backend="process",
                                 shm_slab_mb=0.001))  # ~1 KiB: nothing fits
        payloads, stats = service.run(wedges)
        got = np.concatenate([p.codes() for p in payloads])
        assert got.tobytes() == serial.tobytes()
        assert service.last_shm["input_fallbacks"] > 0
        assert stats.faults.shm_fallbacks > 0
        assert service.health().faults.shm_fallbacks > 0
        # Fallbacks are a throughput signal, not a fault.
        assert stats.faults.total == 0
        assert "shm_fallbacks=" in stats.faults.row()


# ----------------------------------------------------------------------
# The frame receiver: one BufferedProtocol ingest (AsyncSocketSource)
# ----------------------------------------------------------------------


def _frame_bytes(array) -> bytes:
    writes = []

    class _Writer:
        write = staticmethod(writes.append)

    write_wedge_frame(_Writer(), array)
    return b"".join(writes)


def _raw_frame(dtype: bytes, dims, body: bytes = b"") -> bytes:
    """A frame with an arbitrary (possibly hostile) header."""

    return (b"WDG1" + struct.pack("<B", len(dtype)) + dtype
            + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + body)


#: dtype strings outside the allow-list, each with a body of the size the
#: header claims (four elements), so only the dtype can be what is refused.
_BAD_DTYPES = {
    "object": _raw_frame(b"O", (4,), bytes(32)),
    "void": _raw_frame(b"|V8", (4,), bytes(32)),
    "unicode": _raw_frame(b"<U2", (4,), bytes(32)),
    "complex": _raw_frame(b"<c8", (4,), bytes(32)),
    "structured": _raw_frame(b"<u2,<f4", (4,), bytes(24)),
}

#: Headers no receiver may accept, whatever follows them.
_BAD_HEADERS = dict(
    _BAD_DTYPES,
    magic=b"WDG2" + _raw_frame(b"<u2", (2,), bytes(4))[4:],
    over_cap=_raw_frame(b"<u2", (2**31,) * 4),
    garbage_dtype=_raw_frame(b"zzz", (2,), bytes(4)),
    non_ascii_dtype=_raw_frame(b"\xff\xfe", (2,), bytes(4)),
)


class _FakeTransport:
    """What the receiver touches of a transport, minus the socket."""

    def __init__(self, protocol):
        self.protocol = protocol
        self.reading = True
        self.closing = False

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def is_closing(self):
        return self.closing

    def can_write_eof(self):
        return True

    def write_eof(self):
        pass

    def close(self):
        if not self.closing:
            self.closing = True
            self.protocol.connection_lost(None)


def _receive(chunks, eof=True):
    """Deliver ``chunks`` the way a selector transport does — one
    ``get_buffer`` / ``buffer_updated`` round per recv, never more than
    the offered buffer holds — then EOF.  Returns ``(arrays, errors,
    bytes the receiver left unread)``."""

    async def run():
        source = AsyncSocketSource()
        transport = _FakeTransport(source)
        source.connection_made(transport)
        unread = 0
        for chunk in chunks:
            chunk = memoryview(chunk)
            while len(chunk) and transport.reading:
                buffer = source.get_buffer(-1)
                assert len(buffer) > 0
                n = min(len(buffer), len(chunk))
                buffer[:n] = chunk[:n]
                chunk = chunk[n:]
                source.buffer_updated(n)
            unread += len(chunk)
        if eof and transport.reading:
            assert source.eof_received() is True  # half-close keeps writes
        got, errors = [], []
        try:
            async for item in source:
                got.append(item.wedge)
        except FrameProtocolError as exc:
            errors.append(exc)
        assert transport.closing  # a client source closes at stream end
        return got, errors, unread

    return asyncio.run(run())


def _cut(stream: bytes, sizes) -> list[bytes]:
    chunks, pos = [], 0
    for size in sizes:
        if pos >= len(stream):
            break
        chunks.append(stream[pos:pos + size])
        pos += size
    if pos < len(stream):
        chunks.append(stream[pos:])
    return chunks


_DTYPES = ["<u2", "|u1", "<f4", ">i4", "<f2", "|b1"]
#: 0-d, zero-size, bodies far smaller than the receiver's header scratch
#: (whole frame lands in it), and one larger than it.
_SHAPES = [(), (0,), (3, 0, 2), (5,), (2, 3), (4, 6, 7), (50, 60)]


@st.composite
def _frames(draw):
    arrays = []
    for _ in range(draw(st.integers(1, 3))):
        dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
        shape = draw(st.sampled_from(_SHAPES))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        arrays.append(rng.integers(0, 2, size=shape).astype(dtype)
                      if dtype.kind == "b"
                      else rng.integers(0, 200, size=shape).astype(dtype))
    return arrays


class TestFrameReceiver:
    @settings(max_examples=60, deadline=None)
    @given(arrays=_frames(),
           cutting=st.one_of(
               st.just("bytewise"), st.just("whole"),
               st.lists(st.integers(1, 5000), max_size=24)))
    def test_any_cut_of_the_stream_yields_the_sent_arrays(
            self, arrays, cutting):
        # Raw headers: write_wedge_frame sends a 0-d array as shape (1,).
        stream = b"".join(
            _raw_frame(a.dtype.str.encode(), a.shape, a.tobytes())
            for a in arrays)
        sizes = ([1] * len(stream) if cutting == "bytewise"
                 else [] if cutting == "whole" else cutting)
        got, errors, unread = _receive(_cut(stream, sizes))
        assert errors == [] and unread == 0
        assert len(got) == len(arrays)
        for have, want in zip(got, arrays):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.flags.writeable
        # Each array owns its memory: bump them all in place — aliasing
        # with the scratch or with one another would corrupt a neighbour.
        for have in got:
            have[...] = ~have if have.dtype.kind == "b" else have + 1
        for have, want in zip(got, arrays):
            np.testing.assert_array_equal(
                have, ~want if want.dtype.kind == "b" else want + 1)

    def test_small_frames_coalesced_inside_the_header_scratch(self):
        """Header + body + next header in one segment, and two whole
        frames landing in the scratch at once."""

        a = np.arange(6, dtype=np.uint16).reshape(2, 3)
        b = np.array(7.5, dtype=np.float32)
        c = np.arange(4000, dtype=np.uint16)
        stream = _frame_bytes(a) + _frame_bytes(b) + _frame_bytes(c)
        head_c = len(_frame_bytes(a)) + len(_frame_bytes(b)) + 10
        for chunks in ([stream], [stream[:head_c], stream[head_c:]]):
            got, errors, _ = _receive(chunks)
            assert errors == []
            for have, want in zip(got, (a, b, c), strict=True):
                np.testing.assert_array_equal(have, want)

    @pytest.mark.parametrize("victim", [
        np.arange(6, dtype=np.uint16).reshape(2, 3),   # inside the scratch
        np.arange(1500, dtype=np.uint16),               # body outgrows it
    ], ids=["small", "large"])
    def test_truncation_at_every_offset_is_one_error_and_no_partial_frame(
            self, victim):
        good = np.arange(10, dtype=np.float32)
        lead, frame = _frame_bytes(good), _frame_bytes(victim)
        stride = 1 if len(frame) < 100 else 89
        offsets = sorted({*range(1, len(frame), stride), len(frame) - 1})
        for cut in offsets:
            for chunks in ([lead + frame[:cut]],
                           [lead[:7], lead[7:] + frame[:cut]]):
                got, errors, _ = _receive(chunks)
                assert len(got) == 1, cut
                np.testing.assert_array_equal(got[0], good)
                assert len(errors) == 1, cut
                assert "truncated" in str(errors[0])
        # A cut *at* the frame boundary is a clean end of stream.
        got, errors, _ = _receive([lead])
        assert len(got) == 1 and errors == []

    def test_connection_reset_is_one_error_with_the_cause_chained(self):
        async def run(partial):
            source = AsyncSocketSource()
            source.connection_made(_FakeTransport(source))
            buffer = source.get_buffer(-1)
            buffer[:len(partial)] = partial
            source.buffer_updated(len(partial))
            source.connection_lost(ConnectionResetError("peer reset"))
            with pytest.raises(FrameProtocolError) as info:
                async for _item in source:
                    pass
            with pytest.raises(ConnectionResetError):
                await source.drain()
            return info.value

        for partial in (b"", b"WDG1\x03<u"):  # between frames, mid-header
            error = asyncio.run(run(partial))
            assert "connection lost" in str(error)
            assert isinstance(error.__cause__, ConnectionResetError)

    @pytest.mark.parametrize("bad", sorted(_BAD_HEADERS))
    def test_bad_header_is_one_error_after_the_frames_before_it(self, bad):
        good = np.arange(12, dtype=np.uint16).reshape(3, 4)
        tail = _frame_bytes(good)  # never looked at: nothing behind a
        stream = _frame_bytes(good) + _BAD_HEADERS[bad] + tail  # violation
        for sizes in ([], [1] * len(stream), [len(_frame_bytes(good)) + 3]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no ComplexWarning cast
                got, errors, unread = _receive(_cut(stream, sizes))
            assert len(got) == 1
            np.testing.assert_array_equal(got[0], good)
            assert len(errors) == 1
            if len(sizes) > 1:  # bytewise: reading stopped at the header
                assert unread >= len(tail)

    @pytest.mark.parametrize("bad", sorted(_BAD_HEADERS))
    def test_read_wedge_frame_refuses_the_same_headers(self, bad):
        """One decoder: the StreamReader helper clients use and the
        receiver accept and refuse exactly the same headers."""

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(_BAD_HEADERS[bad])
            reader.feed_eof()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FrameProtocolError):
                    await read_wedge_frame(reader)

        asyncio.run(run())

    def test_cap_fires_before_the_body_buffer_exists(self):
        """The header alone is refused: no body byte was offered a
        buffer, none was allocated."""

        header = _raw_frame(b"<u2", (2**31,) * 4)
        got, errors, unread = _receive([header, bytes(4096)], eof=False)
        assert got == [] and unread == 4096
        assert "cap" in str(errors[0])


def _capture_sources(gateway):
    """Record each session's AsyncSocketSource as the gateway accepts it."""

    sources, handle = [], gateway._handle_client

    def capture(source):
        sources.append(source)
        return handle(source)

    gateway._handle_client = capture
    return sources


class TestReceiverUnderTheGateway:
    def test_bad_dtype_fails_its_session_alone_and_charges_no_shard(
            self, model, wedges, ref_codes, caplog):
        """Regression: an ``O`` header escaped the session as a bare
        ValueError, and V/U/structured dtypes reached the worker and were
        charged to the shard as failures."""

        gateway = ServingGateway(_services(model, 1), GatewayConfig())

        async def bad_session(frame):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            writer.write(frame)
            await writer.drain()
            writer.write_eof()
            answer = await asyncio.wait_for(read_wedge_frame(reader), 10.0)
            writer.close()
            await writer.wait_closed()
            return answer

        async def run():
            await gateway.start()
            before = await _produce(gateway.port, [wedges[0]])
            answers = [await bad_session(frame)
                       for frame in _BAD_DTYPES.values()]
            health, stats = gateway.health(), gateway.stats()
            after = await _produce(gateway.port, [wedges[0]])
            await gateway.drain()
            await gateway.aclose()
            return before, answers, health, stats, after

        with caplog.at_level(logging.WARNING), warnings.catch_warnings():
            warnings.simplefilter("error")
            before, answers, health, stats, after = asyncio.run(run())
        assert answers == [None] * len(_BAD_DTYPES)  # clean EOF, no frame
        assert health.state == "healthy"
        assert stats.faults.failures == 0 and stats.faults.total == 0
        refused = [r for r in caplog.records
                   if "not a real numeric type" in r.getMessage()]
        assert len(refused) == len(_BAD_DTYPES)
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert before[0].tobytes() == ref_codes[0].tobytes()
        assert after[0].tobytes() == before[0].tobytes()

    def test_frames_before_a_bad_one_are_answered(
            self, model, wedges, ref_codes):
        """Two good wedges and garbage in ONE segment: both responses
        arrive, byte-identical, then EOF."""

        gateway = ServingGateway(_services(model, 1), GatewayConfig())

        async def run():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            writer.write(_frame_bytes(wedges[0]) + _frame_bytes(wedges[1])
                         + _BAD_HEADERS["magic"])
            await writer.drain()
            out = []
            while (frame := await asyncio.wait_for(
                    read_wedge_frame(reader), 10.0)) is not None:
                out.append(frame)
            writer.close()
            await writer.wait_closed()
            await gateway.drain()
            await gateway.aclose()
            return out

        out = asyncio.run(run())
        assert [f.tobytes() for f in out] == \
            [c.tobytes() for c in ref_codes[:2]]

    @pytest.mark.parametrize("policy", [None, "occupancy"],
                             ids=["bcae", "adaptive"])
    def test_fragmented_ingest_is_byte_identical_to_inline(
            self, model, wedges, policy):
        """Frames dribbled in odd-sized pieces (headers and bodies split
        anywhere) answer with the inline path's bytes on both routes."""

        from repro.rate.records import encode_record_frames

        mixed = wedges.copy()
        mixed[::2][mixed[::2] < 1015] = 0  # ~1 % occupancy: sparse route
        cfg = ServiceConfig(max_batch=4, workers=0, rate_policy=policy)
        payloads, _ = StreamingCompressionService(model, cfg).run(mixed)
        if policy is None:
            want = [c.tobytes() for p in payloads for c in p.codes_view()]
        else:
            want = [f.tobytes() for p in payloads
                    for f in encode_record_frames(p)]
            assert len({i for p in payloads for i in p.codec_ids}) > 1
        gateway = ServingGateway(
            [StreamingCompressionService(model, cfg)], GatewayConfig())

        async def run():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            stream = b"".join(_frame_bytes(w) for w in mixed)
            for pos in range(0, len(stream), 7919):
                writer.write(stream[pos:pos + 7919])
                await writer.drain()
                await asyncio.sleep(0)
            writer.write_eof()
            out = []
            while (frame := await asyncio.wait_for(
                    read_wedge_frame(reader), 10.0)) is not None:
                out.append(frame.tobytes())
            writer.close()
            await writer.wait_closed()
            await gateway.drain()
            await gateway.aclose()
            return out

        assert asyncio.run(run()) == want

    def test_stalled_shard_pauses_the_producer_at_the_read_ahead_bound(
            self, model, wedges, ref_codes):
        """With the shard stalled the session stops pulling frames; the
        receiver pauses its transport once complete frames pass
        ``max_frame_bytes`` — at most one frame over — and resumes when
        the batcher drains."""

        cap = 1 << 17
        n_frames = 40  # ~7× the bound
        service = GatedService(model, ServiceConfig(max_batch=1, workers=0))
        gateway = ServingGateway([service], GatewayConfig(
            inflight_per_shard=1, max_frame_bytes=cap))
        sources = _capture_sources(gateway)
        frame_bytes = wedges[0].nbytes
        assert frame_bytes < cap < n_frames * frame_bytes

        async def run():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            for i in range(n_frames):
                write_wedge_frame(writer, wedges[i % len(wedges)])
            writer.write_eof()
            peak, paused = 0, False
            for _ in range(100):
                await asyncio.sleep(0.01)
                (source,) = sources
                peak = max(peak, source._buffered)
                paused = paused or not source._transport.is_reading()
                if paused and source._buffered > cap:
                    break
            queued_while_stalled = len(source._frames)
            service.gate.set()
            out = []
            while (frame := await asyncio.wait_for(
                    read_wedge_frame(reader), 30.0)) is not None:
                out.append(frame)
            writer.close()
            await writer.wait_closed()
            await gateway.drain()
            await gateway.aclose()
            return peak, paused, queued_while_stalled, out, source._buffered

        peak, paused, queued, out, left = asyncio.run(run())
        assert paused and cap < peak <= cap + frame_bytes
        assert queued < n_frames - 2  # the rest waited in the kernel
        assert left == 0
        assert len(out) == n_frames
        for i, frame in enumerate(out):
            assert frame.tobytes() == ref_codes[i % len(wedges)].tobytes()

    def test_half_close_after_n_frames_returns_n_responses_then_eof(
            self, model, wedges, ref_codes):
        """What the e2e harness's ``hang_up`` asserts: ping-pong N wedges,
        then half-close and read a clean EOF."""

        gateway = ServingGateway(_services(model, 1), GatewayConfig())

        async def run():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            out = []
            for w in wedges[:5]:
                write_wedge_frame(writer, w)
                await writer.drain()
                out.append(await asyncio.wait_for(
                    read_wedge_frame(reader), 10.0))
            writer.write_eof()
            clean = await asyncio.wait_for(
                read_wedge_frame(reader), 10.0) is None
            writer.close()
            await writer.wait_closed()
            await gateway.drain()
            await gateway.aclose()
            return out, clean

        out, clean = asyncio.run(run())
        assert clean
        assert [f.tobytes() for f in out] == \
            [c.tobytes() for c in ref_codes[:5]]

    def test_teardown_with_a_session_mid_body_leaves_no_task(
            self, model, wedges, caplog):
        """drain() / aclose() while a producer sits halfway through a
        body: no session task is left pending and nothing is logged as a
        never-retrieved task exception."""

        gateway = ServingGateway(_services(model, 1), GatewayConfig())
        sources = _capture_sources(gateway)

        async def run():
            await gateway.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port)
            write_wedge_frame(writer, wedges[0])
            frame = _frame_bytes(wedges[1])
            writer.write(frame[:len(frame) // 2])
            await writer.drain()
            first = await asyncio.wait_for(read_wedge_frame(reader), 10.0)
            sessions = list(gateway._sessions)
            assert len(sessions) == 1 and not sessions[0].done()
            assert await gateway.drain(timeout=0.2)
            await gateway.aclose()
            assert sessions[0].done() and not gateway._sessions
            eof = await asyncio.wait_for(reader.read(), 10.0)
            writer.close()
            await writer.wait_closed()
            others = asyncio.all_tasks() - {asyncio.current_task()}
            return first, eof, others

        with caplog.at_level(logging.WARNING):
            first, eof, others = asyncio.run(run())
            gc.collect()
        assert first is not None and eof == b""
        assert others == set()
        (source,) = sources
        assert source._closed.is_set()
        assert [r for r in caplog.records
                if r.name == "asyncio" or r.levelno >= logging.ERROR] == []
