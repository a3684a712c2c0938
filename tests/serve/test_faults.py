"""Fault injection for the model-pool engine: containment and recovery.

A worker that raises mid-batch must (1) surface the error on the owning
unit — at that unit's position in run() or in serve_async's ordered
iteration — (2) release its slab and in-flight slot, and (3) leave the
service fully serviceable for subsequent submissions.  These paths were
previously untested; the :class:`HandoffProbeService` poison hook makes
the fault deterministic on every backend without corrupting model state.
"""

import asyncio
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import BCAECompressor, build_model
from repro.serve import (
    DecompressionService,
    HandoffProbeService,
    ServiceConfig,
    StreamingCompressionService,
)


def _arrays(n=6):
    return [np.full((3, 4), i, dtype=np.uint16) for i in range(n)]


def _checksums(arrays):
    return [float(a.sum()) for a in arrays]


BACKENDS = [
    pytest.param(ServiceConfig(max_batch=2, workers=0), id="inline"),
    pytest.param(ServiceConfig(max_batch=2, workers=2, inflight=3), id="thread"),
    pytest.param(
        ServiceConfig(max_batch=2, workers=1, backend="process", inflight=3,
                      shm_slab_mb=1.0),
        id="process-shm",
    ),
    pytest.param(
        ServiceConfig(max_batch=2, workers=1, backend="process", inflight=3,
                      transport="pickle"),
        id="process-pickle",
    ),
]


class TestWorkerFaultSurfaces:
    @pytest.mark.parametrize("config", BACKENDS)
    def test_error_raised_and_service_recovers(self, config):
        probe = HandoffProbeService(config)
        arrays = _arrays()
        with pytest.raises(RuntimeError, match="injected"):
            probe.run(probe.items(arrays, poison_seqs=[3]))
        # The pool engine is not poisoned: the same service serves again,
        # completely — every unit, in order.
        results, stats = probe.run(arrays, keep_results=True)
        assert results == _checksums(arrays)
        assert [r.seq for r in stats.records] == list(range(len(arrays)))

    @pytest.mark.parametrize("config", BACKENDS)
    def test_fault_on_first_and_last_unit(self, config):
        probe = HandoffProbeService(config)
        arrays = _arrays(4)
        for poisoned in (0, len(arrays) - 1):
            with pytest.raises(RuntimeError, match="injected"):
                probe.run(probe.items(arrays, poison_seqs=[poisoned]))
        results, _ = probe.run(arrays, keep_results=True)
        assert results == _checksums(arrays)

    def test_thread_pool_compressors_returned_after_fault(self):
        """The checkout protocol restores compressors even on error."""

        probe = HandoffProbeService(ServiceConfig(max_batch=2, workers=2))
        before = len(probe._idle)
        with pytest.raises(RuntimeError):
            probe.run(probe.items(_arrays(), poison_seqs=[1]))
        assert len(probe._idle) >= before

    def test_shm_slab_released_on_fault(self):
        """The poisoned unit's slab is freed; the ring never leaks."""

        probe = HandoffProbeService(
            ServiceConfig(max_batch=2, workers=1, backend="process",
                          inflight=2, shm_slab_mb=1.0)
        )
        with pytest.raises(RuntimeError, match="injected"):
            probe.run(probe.items(_arrays(), poison_seqs=[1]))
        assert probe.last_shm["transport"] == "shm"
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=probe.last_shm["name"])


class TestAsyncFaultOwnership:
    @pytest.mark.parametrize("config", BACKENDS)
    def test_error_surfaces_at_unit_position_in_ordered_iteration(self, config):
        probe = HandoffProbeService(config)
        arrays = _arrays(4)
        items = probe.items(arrays, poison_seqs=[2])

        async def run():
            emitted = []
            with pytest.raises(RuntimeError, match="injected"):
                async for record, result in probe.serve_async(items):
                    emitted.append(record.seq)
            return emitted

        emitted = asyncio.run(run())
        assert emitted == [0, 1]  # everything before the faulty unit emitted
        # ... and the service accepts new submissions afterwards.
        results, _ = probe.run(arrays, keep_results=True)
        assert results == _checksums(arrays)

    def test_early_close_after_poisoned_unit_destroys_ring(self):
        """Closing serve_async right after a poisoned unit was submitted
        still flushes the stream and destroys its slab ring."""

        probe = HandoffProbeService(
            ServiceConfig(workers=1, backend="process", inflight=4,
                          shm_slab_mb=1.0)
        )
        items = probe.items(_arrays(4), poison_seqs=[1])

        async def run():
            stream = probe.serve_async(items)
            record, _ = await stream.__anext__()
            await stream.aclose()
            return record

        assert asyncio.run(run()).seq == 0
        assert probe.health().active_streams == 0
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=probe.last_shm["name"])


class TestRealServiceFaults:
    """Faults through the production services (not just the probe)."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2,
                           seed=0)

    @pytest.fixture(scope="class")
    def wedges(self):
        rng = np.random.default_rng(5)
        w = rng.integers(0, 1024, size=(6, 16, 24, 30)).astype(np.uint16)
        w[w < 500] = 0
        return w

    @pytest.mark.parametrize("backend,transport", [
        ("thread", "shm"), ("process", "shm"), ("process", "pickle"),
    ])
    def test_precision_mismatch_fault_then_recovery(self, model, wedges,
                                                    backend, transport):
        """A payload in the wrong precision mode raises in the worker; the
        service then serves a valid stream untouched."""

        import dataclasses

        comp = BCAECompressor(model)
        good = comp.compress(wedges)
        bad = dataclasses.replace(good, half=False)  # worker will reject
        service = DecompressionService(
            model,
            ServiceConfig(max_batch=2, workers=1, backend=backend,
                          transport=transport, shm_slab_mb=1.0),
        )
        with pytest.raises(ValueError, match="precision"):
            service.run(bad)
        recons, stats = service.run(good)
        np.testing.assert_array_equal(
            np.concatenate(recons), comp.decompress(good)
        )
        assert stats.n_wedges == len(wedges)

    def test_compression_service_survives_fault_stream(self, model, wedges):
        """An upstream source raising mid-stream doesn't wedge the pool."""

        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, workers=2)
        )

        def broken_source():
            yield wedges[0]
            yield wedges[1]
            raise OSError("DAQ link dropped")

        with pytest.raises(OSError, match="DAQ link"):
            service.run(broken_source())
        payloads, stats = service.run(wedges)
        assert stats.n_wedges == len(wedges)
        reference = b"".join(BCAECompressor(model).compress(w).payload
                             for w in wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == reference
