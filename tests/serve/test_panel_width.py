"""The derived panel width across the serving stack: fork safety, health.

Above width 1 a plan's panel slots are processes forked over its shared
workspace.  A process-backend worker (or any forked child) that inherited a
plan whose slots already ran must fork slots of its own over buffers of its
own, never command the parent's slots or write the parent's buffers.  Both
cases run at width 2 through the private width hook, under a deadline, so
a regression fails instead of hanging the suite.  A gateway's shards split
the cores between them, so two shards on two cores fork nothing.
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
from repro.serve import (
    ServiceConfig,
    ServingGateway,
    StreamingCompressionService,
    start_health_server,
)

SPATIAL = (8, 16, 14)

#: The parent's already-run compressor, inherited by a forked child.
_INHERITED: BCAECompressor | None = None


@pytest.fixture
def width_two(monkeypatch):
    """Width 2 through the private hook, with the panel slab shrunk so the
    slot-parallel panels run at test scale (a site is blocked where its
    whole-sample slab exceeds ``_PANEL_BYTES``).  Module state crosses
    ``fork``, so forked workers compile at the same width."""

    monkeypatch.setattr(fp, "_FORCED_WIDTH", 2)
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


def _slot_pids(compressor):
    group = compressor._fast_encoder().plan.workspace._slots
    return [] if group is None else [pid for pid, *_ in group.slots]


def _inherited_compress(wedges):
    """Forked-child body: run the parent's compressor; report its payload,
    the slots it ran on and whether each is this process's own child."""

    plan = _INHERITED._fast_encoder().plan
    inherited = plan.workspace._slots
    payload = bytes(_INHERITED.compress_into(wedges).payload)
    pids = _slot_pids(_INHERITED)
    own = [os.waitpid(pid, os.WNOHANG) == (0, 0) for pid in pids]
    return payload, pids, own, inherited is None or not inherited.slots


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
        assert _slot_pids(parent) and _threaded_sites(plan)

        inline = StreamingCompressionService(
            model, ServiceConfig(max_batch=2, workers=0))
        process = StreamingCompressionService(model, ServiceConfig(
            max_batch=2, workers=1, backend="process", unit_timeout_s=60.0))
        assert _payload(inline, wedges) == expected
        assert _payload(process, wedges) == expected

    def test_inherited_pool_is_never_reused(self, width_two):
        """A forked child running the parent's own plan forks slots of its
        own instead of commanding the parent's: it disowned the parent's
        group, its slots are its own children, and the parent's slots are
        untouched — they run the parent's next wedges in step, bit for bit,
        without a re-fork.  Had the child written to their pipes, they
        would have run its commands and fallen out of step."""

        global _INHERITED
        model, wedges = _model_and_wedges()
        _INHERITED = BCAECompressor(model)
        try:
            expected = bytes(_INHERITED.compress_into(wedges).payload)
            assert _threaded_sites(_INHERITED._fast_encoder().plan)
            parent_slots = _slot_pids(_INHERITED)
            assert parent_slots
            pool = concurrent.futures.ProcessPoolExecutor(
                1, mp_context=multiprocessing.get_context("fork"))
            try:
                payload, child_slots, own, disowned = pool.submit(
                    _inherited_compress, wedges).result(timeout=60)
            finally:
                for proc in list(pool._processes.values()):
                    proc.kill()
                pool.shutdown(wait=True, cancel_futures=True)
            assert payload == expected
            assert disowned and child_slots and all(own)
            assert not set(child_slots) & set(parent_slots)
            for _ in range(2):
                assert bytes(_INHERITED.compress_into(wedges).payload) \
                    == expected
            assert _slot_pids(_INHERITED) == parent_slots
        finally:
            _INHERITED = None


class TestShardsShareTheCores:
    def test_two_shards_on_two_cores_fork_nothing(self, monkeypatch):
        """Two gateway shards on two cores (BLAS pinned) each count both
        shards: width 1 in ``/health`` and in their plans, and a served
        dense wedge forks no panel slot."""

        monkeypatch.setattr(fp.os, "sched_getaffinity", lambda pid: {0, 1})
        for name in fp._BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        model, wedges = _model_and_wedges()
        services = [StreamingCompressionService(model, ServiceConfig(
            max_batch=2, workers=0)) for _ in range(2)]
        assert services[0].health().panel_width == 2  # alone: both cores
        ServingGateway(services)
        for service in services:
            assert service.health().panel_width == 1
            assert _payload(service, wedges) == bytes(
                BCAECompressor(model).compress(wedges).payload)
            compressor = service._idle[0]
            plan = compressor._fast_encoder().plan
            assert plan.budget == fp.PanelBudget(
                width=1, cores=2, blas_threads=1, workers=2)
            assert not plan.workspace._shared and not _slot_pids(compressor)

    def test_gateway_serves_with_one_shard(self, monkeypatch):
        """One shard keeps every core: its width is the service's own."""

        monkeypatch.setattr(fp.os, "sched_getaffinity", lambda pid: {0, 1})
        for name in fp._BLAS_THREAD_VARS:
            monkeypatch.setenv(name, "1")
        model, _wedges = _model_and_wedges()
        service = StreamingCompressionService(model, ServiceConfig(workers=0))
        ServingGateway([service])
        assert service.health().panel_width == 2


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
