"""The derived panel width across the serving stack: fork safety, health.

A plan's panel executor is a thread pool, and threads do not survive
``fork``: a process-backend worker (or any forked child) that inherited a
plan whose pool already ran must build a fresh pool, never submit to the
parent's.  Both cases run at width 2 through the private width hook, under
a deadline, so a regression fails instead of hanging the suite.
"""

import concurrent.futures
import json
import multiprocessing
import os
import urllib.request

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.core import BCAECompressor, build_model
from repro.serve import ServiceConfig, StreamingCompressionService, start_health_server

SPATIAL = (8, 16, 14)

#: The parent's already-run compressor, inherited by a forked child.
_INHERITED: BCAECompressor | None = None


@pytest.fixture
def width_two(monkeypatch):
    """Width 2 through the private hook, with the blocked-GEMM thresholds
    shrunk so the slot-parallel panels run at test scale.  Module state
    crosses ``fork``, so forked workers compile at the same width."""

    monkeypatch.setattr(fp, "_FORCED_WIDTH", 2)
    monkeypatch.setattr(fp, "_BLOCKED_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 12)


def _model_and_wedges():
    model = build_model("bcae_ht", wedge_spatial=SPATIAL, seed=3)
    model.eval()
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 1024, size=(4,) + SPATIAL, dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


def _threaded_sites(plan):
    return [g for g in plan.plan_stats()["gemms"].values() if g["threads"] > 1]


def _payload(service, wedges):
    payloads, _stats = service.run(wedges)
    return b"".join(bytes(p.payload) for p in payloads)


def _inherited_compress(wedges):
    """Forked-child body: run the parent's compressor, report whether the
    panel executor it ran on was built in this process."""

    payload = bytes(_INHERITED.compress_into(wedges).payload)
    return payload, _INHERITED._fast_encoder().plan._panel_executor[0] == os.getpid()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestForkSafety:
    def test_process_backend_after_parent_ran_a_plan(self, width_two):
        """The parent compiles and runs a width-2 plan, then starts a
        process-backend service: its payload equals the inline service's,
        and the unit deadline turns a hung worker into a failure."""

        model, wedges = _model_and_wedges()
        parent = BCAECompressor(model)
        expected = bytes(parent.compress_into(wedges).payload)
        plan = parent._fast_encoder().plan
        assert plan._panel_executor is not None and _threaded_sites(plan)

        inline = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, workers=0))
        process = StreamingCompressionService(model, ServiceConfig(
            max_batch=2, workers=1, backend="process", unit_timeout_s=60.0))
        assert _payload(inline, wedges) == expected
        assert _payload(process, wedges) == expected

    def test_inherited_pool_is_never_reused(self, width_two):
        """A forked child running the parent's own plan builds its own
        panel executor instead of queueing work on threads it has not got."""

        global _INHERITED
        model, wedges = _model_and_wedges()
        _INHERITED = BCAECompressor(model)
        try:
            expected = bytes(_INHERITED.compress_into(wedges).payload)
            assert _threaded_sites(_INHERITED._fast_encoder().plan)
            pool = concurrent.futures.ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork"))
            try:
                payload, rebuilt = pool.submit(
                    _inherited_compress, wedges).result(timeout=60)
            finally:
                for proc in list(pool._processes.values()):
                    proc.kill()
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            _INHERITED = None
        assert payload == expected
        assert rebuilt


class TestHealthReportsWidth:
    def test_health_endpoint_serves_panel_width(self, monkeypatch):
        monkeypatch.setattr(fp.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        for name in fp._BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        model, _wedges = _model_and_wedges()
        for workers, width in ((0, 4), (2, 2), (4, 1)):
            service = StreamingCompressionService(
                model, ServiceConfig(workers=workers))
            assert service.health().panel_width == width
            server = start_health_server(service)
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.server_address[1]}/health",
                    timeout=5,
                ) as response:
                    assert json.loads(response.read())["panel_width"] == width
            finally:
                server.shutdown()
