"""The supervision layer: crash recovery, deadlines, retry, degrade, drain.

The full fault matrix on every backend — {kill, hang, poison,
corrupt-slab} × {retry-succeeds, retries-exhausted, degraded-fallback} —
through both entry points (sync ``run`` and async ``serve_async``, which
drive the same supervised stream), each case asserting the service
afterwards serves byte-identical results to the inline backend and that
the slab ring leaked nothing.  Faults are
injected deterministically through :class:`ProbeItem` (every backend) and
the ``REPRO_SERVE_KILL_FILE`` hook (a real SIGKILL inside a real
compress worker — the ISSUE's acceptance scenario).
"""

import asyncio
import json
import os
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import build_model
from repro.serve import (
    AsyncQueueSource,
    HandoffProbeService,
    ServiceConfig,
    StreamingCompressionService,
    UnitTimeoutError,
    WorkerCrashError,
    iter_wedges,
    start_health_server,
)


def _arrays(n=6):
    return [np.full((3, 4), i, dtype=np.uint16) for i in range(n)]


def _checksums(arrays):
    return [float(a.sum()) for a in arrays]


def _config(backend: str, **kw) -> ServiceConfig:
    base = dict(max_batch=2, backoff_base_s=0.0, inflight=3)
    if backend == "inline":
        base.update(workers=0)
    elif backend == "thread":
        base.update(workers=2)
    elif backend == "process-shm":
        base.update(workers=1, backend="process", shm_slab_mb=1.0)
    else:  # process-pickle
        base.update(workers=1, backend="process", transport="pickle")
    base.update(kw)
    return ServiceConfig(**base)


def _serve(probe: HandoffProbeService, items, entry: str):
    """Serve prebuilt probe units through the sync or the async entry
    point; returns ``(results, stats)``."""

    if entry == "sync":
        return probe.run(items, keep_results=True)
    return asyncio.run(probe._collect_async(probe.serve_async(items), keep=True))


def _assert_clean(probe: HandoffProbeService, arrays) -> None:
    """The post-fault invariant every matrix case ends on: the same
    service instance serves a full follow-up run identical to the inline
    backend, and no slab stayed leased."""

    results, stats = probe.run(arrays, keep_results=True)
    assert results == _checksums(arrays)
    assert [r.seq for r in stats.records] == list(range(len(arrays)))
    if probe.last_shm.get("transport") == "shm":
        assert probe.last_shm["leased_at_close"] == 0


BACKENDS = ["inline", "thread", "process-shm", "process-pickle"]
# On inline/thread the injected kill raises WorkerCrashError (threads
# cannot be SIGKILLed); on process it is a real SIGKILL -> broken pool.
# Either way the supervisor charges the owning unit the same way.
CRASH_FAULTS = ["kill", "corrupt-slab"]
ENTRIES = ["sync", "async"]


class TestRetrySucceeds:
    """Fault on the first attempt only -> the unit succeeds on retry."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault", ["poison", "kill", "corrupt-slab"])
    def test_one_shot_fault_retries_to_success(self, backend, fault, entry):
        probe = HandoffProbeService(_config(backend, max_retries=2))
        arrays = _arrays()
        items = probe.items(arrays, faults={2: fault}, fail_attempts=1)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        retried = [r for r in stats.records if r.seq == 2][0]
        assert retried.attempts == 2
        assert all(r.attempts == 1 for r in stats.records if r.seq != 2)
        assert stats.faults.retries == 1
        assert stats.faults.failures == 0
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hang_times_out_then_retry_succeeds(self, backend, entry):
        # Thread workers cannot be interrupted, so the hang must be short
        # enough to finish before interpreter exit joins the abandoned
        # pool; process workers are SIGKILLed, so any length works.
        hang_s = 10.0 if backend.startswith("process") else 0.5
        probe = HandoffProbeService(
            _config(backend, unit_timeout_s=0.15, max_retries=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={2: "hang"}, hang_s=hang_s,
                            fail_attempts=1)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        if backend == "inline":
            # Inline executes at submit time on the caller's thread: the
            # deadline is unenforceable, the unit just takes longer.
            assert stats.faults.timeouts == 0
        else:
            assert stats.faults.timeouts >= 1
            assert [r for r in stats.records if r.seq == 2][0].attempts == 2
        _assert_clean(probe, arrays)

    def test_async_sigkill_retries_instead_of_losing_the_stream(self):
        # serve_async used to emit units 0-1, raise BrokenProcessPool and
        # leave health() at zero faults on exactly this configuration.
        probe = HandoffProbeService(
            _config("process-shm", inflight=2, max_retries=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={2: "kill"}, fail_attempts=1)
        results, stats = _serve(probe, items, "async")
        assert results == _checksums(arrays)
        assert stats.faults.retries == 1
        assert stats.faults.failures == 0
        assert probe.health().faults.crashes == 1
        _assert_clean(probe, arrays)


class TestRetriesExhausted:
    """A persistent fault surfaces on the owning unit once the budget is
    spent — and only there; the service stays serviceable."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("fault,exc", [
        ("poison", RuntimeError),
        ("kill", WorkerCrashError),
        ("corrupt-slab", WorkerCrashError),
    ])
    def test_persistent_fault_surfaces_on_owner(self, backend, fault, exc,
                                                entry):
        probe = HandoffProbeService(_config(backend, max_retries=1))
        arrays = _arrays()
        items = probe.items(arrays, faults={3: fault})
        with pytest.raises(exc):
            _serve(probe, items, entry)
        totals = probe.health().faults
        assert totals.failures == 1
        assert totals.retries == 1
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", ["thread", "process-shm",
                                         "process-pickle"])
    def test_persistent_hang_raises_unit_timeout(self, backend, entry):
        hang_s = 10.0 if backend.startswith("process") else 0.3
        probe = HandoffProbeService(
            _config(backend, unit_timeout_s=0.15, max_retries=1,
                    degrade_after=10)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "hang"}, hang_s=hang_s)
        with pytest.raises(UnitTimeoutError, match="deadline"):
            _serve(probe, items, entry)
        assert probe.health().faults.timeouts >= 2  # initial + retry
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_zero_retries_is_fail_fast(self, entry):
        probe = HandoffProbeService(_config("process-shm"))
        arrays = _arrays()
        with pytest.raises(WorkerCrashError):
            _serve(probe, probe.items(arrays, faults={0: "kill"}), entry)
        assert probe.health().faults.retries == 0
        _assert_clean(probe, arrays)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", ["process-shm", "process-pickle"])
    def test_crash_charged_only_to_owner(self, backend, entry):
        # A broken pool fails every in-flight future; units other than
        # the killer must be re-driven uncharged and emit attempts=1.
        probe = HandoffProbeService(_config(backend, max_retries=1))
        arrays = _arrays(6)
        items = probe.items(arrays, faults={2: "kill"}, fail_attempts=1)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        assert all(r.attempts == 1 for r in stats.records if r.seq != 2)

    @pytest.mark.parametrize("backend", ["process-shm", "process-pickle"])
    def test_pool_death_seen_at_submit_is_charged_to_its_unit(self, backend):
        # The source stalls before unit 3 until unit 2 has killed the only
        # worker, so the next submit, not unit 2's own wait, meets the
        # broken pool.  Unit 2 must still be charged for the one death;
        # a free re-run at attempt 0 would fire its fault a second time.
        probe = HandoffProbeService(
            _config(backend, inflight=2, max_retries=2)
        )
        arrays = _arrays(6)
        items = probe.items(arrays, faults={2: "kill"}, fail_attempts=1)

        def source():
            for item in items:
                if item.seq == 3:
                    time.sleep(0.5)
                yield item

        results, stats = probe._collect(probe._serve(source()), keep=True)
        assert results == _checksums(arrays)
        assert stats.faults.crashes == 1
        assert stats.faults.retries == 1
        assert [r.attempts for r in stats.records] == [1, 1, 2, 1, 1, 1]


class TestDegradedFallback:
    """The circuit breaker steps the backend down instead of dying."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("backend", ["process-shm", "process-pickle"])
    @pytest.mark.parametrize("fault", CRASH_FAULTS)
    def test_process_degrades_to_thread_and_succeeds(self, backend, fault,
                                                     entry):
        probe = HandoffProbeService(
            _config(backend, max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        # Crashes twice (trips the breaker at degrade_after=2), then the
        # third attempt runs on the thread level and succeeds.
        items = probe.items(arrays, faults={1: fault}, fail_attempts=2)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        assert stats.faults.degraded == 1
        assert stats.level == "thread"
        health = probe.health()
        assert health.state == "degraded"
        assert health.level == "thread"
        # The step-down is sticky: the follow-up stream reports it too.
        results, stats = _serve(probe, probe.items(arrays), entry)
        assert results == _checksums(arrays)
        assert stats.level == "thread"

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_thread_degrades_to_inline(self, entry):
        probe = HandoffProbeService(
            _config("thread", max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "kill"}, fail_attempts=2)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        assert stats.level == "inline"
        assert probe.health().state == "degraded"

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_inline_has_no_lower_level(self, entry):
        probe = HandoffProbeService(
            _config("inline", max_retries=4, degrade_after=2)
        )
        arrays = _arrays()
        items = probe.items(arrays, faults={1: "kill"}, fail_attempts=3)
        results, stats = _serve(probe, items, entry)
        assert results == _checksums(arrays)
        assert stats.faults.degraded == 0
        assert stats.level == "inline"


class TestRealServiceCrashRecovery:
    """The ISSUE's acceptance scenario: a real compress worker SIGKILLed
    mid-batch, on both process transports."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)

    @pytest.fixture(scope="class")
    def wedges(self):
        rng = np.random.default_rng(7)
        w = rng.integers(0, 1024, size=(10, 16, 24, 32)).astype(np.uint16)
        w[w < 700] = 0
        return w

    @pytest.fixture(scope="class")
    def inline_payloads(self, model, wedges):
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0)
        )
        payloads, _ = service.run(wedges)
        return payloads

    def _kill_token(self, tmp_path, seq: int):
        path = tmp_path / "kill-token"
        path.write_text("")
        os.environ["REPRO_SERVE_KILL_FILE"] = str(path)
        os.environ["REPRO_SERVE_KILL_SEQ"] = str(seq)

    def _clear_token(self):
        os.environ.pop("REPRO_SERVE_KILL_FILE", None)
        os.environ.pop("REPRO_SERVE_KILL_SEQ", None)

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_sigkill_mid_batch_recovers_byte_identical(
        self, model, wedges, inline_payloads, transport, tmp_path
    ):
        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=4, workers=1, backend="process", transport=transport,
            max_retries=1, backoff_base_s=0.0,
        ))
        self._kill_token(tmp_path, seq=1)
        try:
            payloads, stats = service.run(wedges)
        finally:
            self._clear_token()
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]
        killed = [r for r in stats.records if r.seq == 1][0]
        assert killed.attempts == 2
        assert stats.faults.crashes >= 1
        if transport == "shm":
            assert service.last_shm["leased_at_close"] == 0
            assert service.last_shm["ring_rebuilds"] >= 1
        # Same instance, full follow-up run, byte-identical, no leaks.
        payloads, stats = service.run(wedges)
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]
        assert stats.faults.crashes == 0
        if transport == "shm":
            assert service.last_shm["leased_at_close"] == 0

    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_sigkill_without_retry_budget_fails_owner_only(
        self, model, wedges, inline_payloads, transport, tmp_path
    ):
        service = StreamingCompressionService(model, ServiceConfig(
            max_batch=4, workers=1, backend="process", transport=transport,
        ))
        self._kill_token(tmp_path, seq=1)
        try:
            with pytest.raises(WorkerCrashError, match="seq=1"):
                service.run(wedges)
        finally:
            self._clear_token()
        if transport == "shm":
            assert service.last_shm["leased_at_close"] == 0
        payloads, _ = service.run(wedges)
        assert [bytes(p.payload) for p in payloads] == [
            bytes(p.payload) for p in inline_payloads
        ]


class TestDrain:
    def test_drain_stops_intake_and_flushes(self):
        probe = HandoffProbeService(_config("inline"))
        arrays = _arrays(8)

        def source():
            for i, item in enumerate(probe.items(arrays)):
                if i == 3:
                    probe.drain(wait=False)
                yield item

        emitted = list(probe._serve(source()))
        assert 0 < len(emitted) < len(arrays)
        assert probe.health().state == "drained"
        assert not probe.health().ok
        with pytest.raises(RuntimeError, match="drain"):
            probe.run(probe.items(arrays))

    def test_drain_flushes_partial_batch_as_drain(self):
        model = build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0)
        )
        rng = np.random.default_rng(0)
        wedges = rng.integers(0, 1024, size=(10, 16, 24, 32)).astype(np.uint16)

        def source():
            for i, item in enumerate(iter_wedges(wedges)):
                if i == 5:
                    service.drain(wait=False)
                yield item

        records = [record for record, _ in service.compress_stream(source())]
        assert records[-1].closed_by == "drain"
        assert sum(r.n_wedges for r in records) < len(wedges)
        assert service.health().state == "drained"

    def test_drain_stops_async_intake(self):
        probe = HandoffProbeService(_config("process-shm"))
        arrays = _arrays(12)
        verdicts = []
        pulled = []

        def source():
            for item in probe.items(arrays):
                pulled.append(item.seq)
                yield item

        async def run():
            emitted = []
            async for record, _ in probe.serve_async(source()):
                if not emitted:
                    verdicts.append(probe.drain(wait=False))
                emitted.append(record.seq)
            return emitted

        emitted = asyncio.run(run())
        # The stream was still running when drain was requested ...
        assert verdicts == [False]
        # ... stopped pulling (at most 2 * inflight units sit between the
        # source and the consumer, so most of the 12 never started), and
        # served every unit it did pull.
        assert emitted == pulled == list(range(len(emitted)))
        assert 0 < len(emitted) < len(arrays)
        assert probe.drain(wait=True, timeout=5.0)
        assert probe.health().state == "drained"
        assert probe.last_shm["leased_at_close"] == 0
        with pytest.raises(RuntimeError, match="drain"):
            _serve(probe, probe.items(arrays), "async")

    def test_async_drain_flushes_partial_batch_as_drain(self):
        model = build_model("bcae_2d", wedge_spatial=(16, 24, 32), seed=0)
        # A budget long enough that only "full" and "drain" close batches.
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=4, workers=0, max_delay_s=60.0)
        )
        rng = np.random.default_rng(0)
        wedges = rng.integers(0, 1024, size=(10, 16, 24, 32)).astype(np.uint16)
        source = AsyncQueueSource()  # never closed: only the drain ends it

        async def produce():
            for wedge in wedges[:6]:
                source.put_nowait(wedge)
            # Wedges 4-5 taken: the stream is pulling its second batch.
            while source._queue.qsize():
                await asyncio.sleep(0.005)
            service.drain(wait=False)
            for wedge in wedges[6:]:
                source.put_nowait(wedge)

        async def run():
            producer = asyncio.create_task(produce())
            records = [record async for record, _ in
                       service.compress_stream_async(source)]
            await producer
            return records, len(wedges) - source._queue.qsize()

        records, pulled = asyncio.run(run())
        assert records[-1].closed_by == "drain"
        assert sum(r.n_wedges for r in records) == pulled < len(wedges)
        assert service.health().state == "drained"

    def test_drain_releases_async_stream_parked_on_idle_source(self):
        probe = HandoffProbeService(_config("process-shm"))
        arrays = _arrays(2)

        async def feed(source):
            for item in probe.items(arrays):
                yield item
            await source.frames().__anext__()  # idle: nothing ever arrives

        async def run():
            emitted = []
            stream = probe.serve_async(feed(AsyncQueueSource()))
            async for record, _ in stream:
                emitted.append(record.seq)
                if len(emitted) == len(arrays):
                    # Both units are out; the stream now waits on a source
                    # that never produces.  A waiting drain runs off the loop.
                    loop = asyncio.get_running_loop()
                    assert await loop.run_in_executor(
                        None, lambda: probe.drain(wait=True, timeout=5.0))
            return emitted

        assert asyncio.run(asyncio.wait_for(run(), 10.0)) == [0, 1]
        assert probe.health().state == "drained"
        assert probe.last_shm["leased_at_close"] == 0

    def test_drain_wait_returns_true_when_idle(self):
        probe = HandoffProbeService(_config("inline"))
        probe.run(probe.items(_arrays(2)))
        assert probe.drain(wait=True, timeout=1.0)
        assert probe.health().state == "drained"


class TestHealth:
    def test_healthy_service_reports_state(self):
        probe = HandoffProbeService(_config("process-shm"))
        health = probe.health()
        assert health.state == "healthy"
        assert health.ok
        assert health.backend == "process"
        assert health.level == "process"
        probe.run(probe.items(_arrays(2)))
        health = probe.health()
        assert health.last_unit_latency_s >= 0.0
        assert health.ring_leased == 0
        assert health.faults.total == 0

    def test_health_sees_async_stream(self):
        probe = HandoffProbeService(_config("process-shm"))
        arrays = _arrays(12)

        async def run():
            seen = []
            async for record, _ in probe.serve_async(probe.items(arrays)):
                if record.seq == 0:
                    seen.append(probe.health())
            return seen[0]

        # 12 units against an intake bound of 2 * inflight = 6: the stream
        # cannot have finished when the consumer holds unit 0.
        health = asyncio.run(run())
        assert health.active_streams == 1
        assert health.ring_slabs > 0
        after = probe.health()
        assert (after.active_streams, after.ring_slabs) == (0, 0)

    def test_health_counts_faults_across_streams(self):
        probe = HandoffProbeService(_config("inline", max_retries=1))
        arrays = _arrays()
        probe.run(probe.items(arrays, faults={1: "poison"}, fail_attempts=1))
        probe.run(probe.items(arrays, faults={2: "poison"}, fail_attempts=1))
        totals = probe.health().faults
        assert totals.retries == 2

    def test_health_server_serves_json_and_503_on_drain(self):
        probe = HandoffProbeService(_config("inline"))
        server = start_health_server(probe)
        port = server.server_address[1]
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ) as response:
                assert response.status == 200
                body = json.loads(response.read())
            assert body["state"] == "healthy"
            assert body["faults"]["crashes"] == 0
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/nope", timeout=5
                )
            assert err.value.code == 404
            probe.drain()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/health", timeout=5
                )
            assert err.value.code == 503
            assert json.loads(err.value.read())["state"] == "drained"
        finally:
            server.shutdown()


class TestSlabRingAccessors:
    def test_stats_and_leak_assertion(self):
        from repro.serve import SlabRing

        ring = SlabRing.create(n_slabs=3, slab_nbytes=64)
        try:
            assert ring.stats() == {
                "n_slabs": 3, "slab_nbytes": 64, "leased": 0, "free": 3,
            }
            ring.assert_no_leaks()
            slab = ring.try_lease()
            assert ring.leased_count() == 1
            assert ring.stats()["free"] == 2
            with pytest.raises(AssertionError, match="leaked 1 lease"):
                ring.assert_no_leaks("test stream")
            ring.release(slab)
            ring.assert_no_leaks()
        finally:
            ring.destroy()

    def test_release_after_crash_recovery_balances(self):
        # The regression the ring_rebuild guard exists for: a crash with
        # leases outstanding must not leak them into the replacement ring.
        probe = HandoffProbeService(
            _config("process-shm", max_retries=2, inflight=3)
        )
        arrays = _arrays(8)
        items = probe.items(arrays, faults={3: "kill"}, fail_attempts=1)
        results, _ = probe.run(items, keep_results=True)
        assert results == _checksums(arrays)
        assert probe.last_shm["leased_at_close"] == 0
        assert probe.last_shm["ring_rebuilds"] >= 1


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"unit_timeout_s": 0.0},
        {"unit_timeout_s": -1.0},
        {"max_retries": -1},
        {"backoff_base_s": -0.1},
        {"degrade_after": 0},
    ])
    def test_supervision_fields_validate(self, kw):
        with pytest.raises(ValueError):
            ServiceConfig(**kw)

    def test_bad_fault_kind_rejected(self):
        probe = HandoffProbeService(_config("inline"))
        items = probe.items(_arrays(2))
        items[0].fault = "segfault"
        with pytest.raises(ValueError, match="fault must be one of"):
            probe.run(items)
