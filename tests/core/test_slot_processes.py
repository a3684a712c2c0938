"""Panel slots as forked processes over shared workspaces.

Above width 1 a plan's workspace is shared anonymous memory and slots
``1 … width − 1`` are processes forked over it after a dry pass; slot 0 is
the caller.  These tests hold the process side of the contract: the bytes
equal width 1's, a failed slot fails one run with a typed error and the
next run forks afresh, no slot outlives its plan, a slot never allocates,
and a fork waits until no other thread of the process computes.  Widths
are forced through the private ``_FORCED_WIDTH`` hook and the panel slab
shrunk, so the slot-parallel panels run at test scale.
"""

import gc
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.core import BCAECompressor, build_model
from repro.core.model_zoo import MODEL_NAMES
from repro.serve import ServiceConfig, StreamingCompressionService

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="slot processes need os.fork")


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 12)


def _build(name, seed=3):
    kw = (dict(wedge_spatial=(16, 24, 30), m=2, n=2, d=2)
          if name == "bcae_2d" else dict(wedge_spatial=(8, 16, 14)))
    model = build_model(name, seed=seed, **kw)
    model.eval()
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 1024, size=(2,) + kw["wedge_spatial"],
                       dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


def _compressor_at(monkeypatch, model, width, **kw):
    monkeypatch.setattr(fp, "_FORCED_WIDTH", width)
    comp = BCAECompressor(model, **kw)
    comp._fast_encoder(), comp._fast_decoder()
    monkeypatch.setattr(fp, "_FORCED_WIDTH", None)
    return comp


def _workspaces(comp):
    return [comp._fast_encoder().plan.workspace, comp._fast_decoder()._ws]


def _slot_pids(comp):
    return [pid for ws in _workspaces(comp) if ws._slots is not None
            for pid, *_ in ws._slots.slots]


def _round_trip(comp, raw):
    cw = comp.compress_into(raw)
    return bytes(cw.payload), np.array(comp.decompress_into(cw), copy=True)


def _children() -> set[int]:
    """This process's live child pids, over all of its threads."""

    return {int(pid) for task in Path("/proc/self/task").iterdir()
            for pid in (task / "children").read_text().split()}


def _gone(pid: int) -> bool:
    """Reaped — no longer a child of this process."""

    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _batches(raw):
    """Three different batches of ``raw``'s shape: every run's bytes differ
    from the last one's, so a process that read a block before its writer
    finished would meet a previous run's values."""

    rng = np.random.default_rng(11)
    more = rng.integers(0, 1024, size=(2,) + raw.shape, dtype=raw.dtype)
    more[more < 600] = 0
    return [raw, *more]


class TestBytesAcrossWidths:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_slot_processes_reproduce_width_one(self, small_blocks,
                                                monkeypatch, name, half):
        """Payloads and reconstructions at widths 2, 3 and 4 — run by
        ``width − 1`` forked slots per workspace, every write outside the
        panels split into channel blocks (uneven at width 3) — equal width
        1's: three runs per direction per compressor, the first of them
        the first (parallel) run, each on a different batch."""

        model, raw = _build(name)
        batches = _batches(raw)
        comp = _compressor_at(monkeypatch, model, 1, half=half)
        want = [_round_trip(comp, batch) for batch in batches]
        for width in (2, 3, 4):
            comp = _compressor_at(monkeypatch, model, width, half=half)
            for i, batch in enumerate(batches):
                payload, recon = _round_trip(comp, batch)
                assert payload == want[i][0], (name, half, width, i)
                assert np.array_equal(recon, want[i][1]), (name, half,
                                                           width, i)
            assert all(ws._shared for ws in _workspaces(comp))
            assert len(_slot_pids(comp)) == 2 * (width - 1)

    def test_channel_blocks_tile_every_channel_count(self):
        """One rule for every writer outside the panels: near-equal
        contiguous blocks, the larger first, empty where channels run out
        (32 channels at width 3 split 11/11/10, 16 split 6/5/5)."""

        def sizes(c, width):
            blocks = [fp._channel_block(c, width, s) for s in range(width)]
            assert blocks[0].start == 0 and blocks[-1].stop == c
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            return [b.stop - b.start for b in blocks]

        assert sizes(32, 3) == [11, 11, 10] and sizes(16, 3) == [6, 5, 5]
        for c in range(40):
            for width in range(1, 6):
                got = sizes(c, width)
                assert got == sorted(got, reverse=True)
                assert got[0] - got[-1] <= 1


class TestDryPass:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_dry_pass_leaves_every_buffer_unchanged(self, small_blocks,
                                                    monkeypatch, name):
        """The dry pass every fork follows — leases, probes, partitions,
        slab carving and maps, every channel block empty — writes no byte
        of a warm shared workspace and allocates nothing."""

        model, raw = _build(name)
        comp = _compressor_at(monkeypatch, model, 3)
        runs = {}
        real = fp.CompiledStagePlan.run

        def run(plan, canvas, spatial, bound):
            runs[plan] = (canvas, spatial, bound)
            return real(plan, canvas, spatial, bound)

        monkeypatch.setattr(fp.CompiledStagePlan, "run", run)
        _round_trip(comp, raw)
        monkeypatch.setattr(fp.CompiledStagePlan, "run", real)
        assert len(runs) == 3
        for ws in _workspaces(comp):
            assert ws._shared
            gen = ws._gen
            before = {key: buf.tobytes() for key, buf in ws._bufs.items()}
            for plan, args in runs.items():
                if plan.workspace is ws:
                    plan._execute(*args, fp._DRY, None)
            assert ws._gen == gen
            assert {key: buf.tobytes() for key, buf in ws._bufs.items()} \
                == before

    def test_width_one_forks_nothing(self, small_blocks, monkeypatch):
        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 1)
        gc.collect()  # earlier tests' garbage reaps its slots now, not later
        before = _children()
        _round_trip(comp, raw)
        assert not any(ws._shared for ws in _workspaces(comp))
        assert not _slot_pids(comp) and _children() == before


class TestSlotFailure:
    def test_killed_slot_fails_one_run_then_reforks(self, small_blocks,
                                                    monkeypatch):
        """A slot SIGKILLed between runs: the next run raises
        ``SlotProcessError`` naming the slot, the run after that forks new
        slots and is bit-identical."""

        model, raw = _build("bcae_2d")
        comp = _compressor_at(monkeypatch, model, 2)
        want = _round_trip(comp, raw)
        ws = comp._fast_decoder()._ws
        (pid, *_), = ws._slots.slots
        os.kill(pid, signal.SIGKILL)
        cw = comp.compress_into(raw)
        with pytest.raises(fp.SlotProcessError) as err:
            comp.decompress_into(cw)
        assert err.value.slot == 1 and str(pid) in str(err.value)
        assert ws._slots is None and _gone(pid)
        payload, recon = _round_trip(comp, raw)
        assert payload == want[0] and np.array_equal(recon, want[1])
        (new, *_), = ws._slots.slots
        assert new != pid

    def test_post_fork_allocation_is_caught(self, small_blocks, monkeypatch):
        """A slot that would allocate a workspace buffer — one the dry pass
        did not — fails the run with the allocation named; the lead never
        computes on buffers the slots cannot see."""

        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 2)
        want = _round_trip(comp, raw)
        lead = os.getpid()
        real = fp.Workspace.carve

        def carve(ws, key, *specs):
            if os.getpid() != lead:
                key = ("stray", key)
            return real(ws, key, *specs)

        monkeypatch.setattr(fp.Workspace, "carve", carve)
        comp._fast_encoder().plan.workspace._close_slots()  # fork patched
        with pytest.raises(fp.SlotProcessError, match="allocated while"):
            comp.compress_into(raw)
        monkeypatch.setattr(fp.Workspace, "carve", real)
        assert _round_trip(comp, raw)[0] == want[0]

    def test_stopped_slot_misses_the_barrier(self, small_blocks,
                                             monkeypatch):
        """A slot that neither arrives nor dies (stopped here; stuck on a
        lock alike) fails the run at the barrier's deadline instead of
        hanging it; the next run forks afresh and is bit-identical."""

        model, raw = _build("bcae_2d")
        comp = _compressor_at(monkeypatch, model, 2)
        want = _round_trip(comp, raw)
        ws = comp._fast_encoder().plan.workspace
        (pid, *_), = ws._slots.slots
        monkeypatch.setattr(fp, "_BARRIER_TIMEOUT_S", 0.5)
        os.kill(pid, signal.SIGSTOP)
        with pytest.raises(fp.SlotProcessError, match="missed a barrier") \
                as err:
            comp.compress_into(raw)
        assert err.value.slot == 1 and ws._slots is None and _gone(pid)
        assert _round_trip(comp, raw)[0] == want[0]
        assert ws._slots.slots[0][0] != pid

    def test_slot_ignores_sigint_and_exits_on_eof(self, small_blocks,
                                                  monkeypatch):
        model, raw = _build("bcae_2d")
        comp = _compressor_at(monkeypatch, model, 2)
        want = _round_trip(comp, raw)
        ws = comp._fast_encoder().plan.workspace
        (pid, cmd_w, _ack_r), = ws._slots.slots
        os.kill(pid, signal.SIGINT)
        assert _round_trip(comp, raw)[0] == want[0]
        assert ws._slots.slots[0][0] == pid
        os.close(cmd_w)  # the slot reads EOF where its next command goes
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0):
            assert time.monotonic() < deadline, "slot outlived its pipe"
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0
        ws._slots.slots[0] = (0, -1, _ack_r)  # reaped here
        ws._close_slots()


class TestSlotLifetime:
    def test_no_slot_outlives_its_plan(self, small_blocks, monkeypatch):
        """Slots never exceed ``(width − 1)`` per live workspace, across
        new geometries and re-forks, and none remains once the compressor
        is collected."""

        width = 3
        model, raw = _build("bcae_2d")
        comp = _compressor_at(monkeypatch, model, width)
        gc.collect()
        before = _children()
        seen: set[int] = set()

        def check():
            live = _children() - before
            seen.update(live)
            assert len(live) <= (width - 1) * len(_workspaces(comp))
            assert live == set(_slot_pids(comp))

        _round_trip(comp, raw)
        check()
        stride = comp.geometry.stride
        wider = np.zeros(raw.shape[:2] + (raw.shape[2] + stride,)
                         + raw.shape[3:], raw.dtype)
        wider[:, :, :raw.shape[2]] = raw
        first = set(_slot_pids(comp))
        _round_trip(comp, wider)  # a new geometry re-warms and re-forks
        check()
        assert not first & set(_slot_pids(comp))
        assert all(_gone(pid) for pid in first)
        del comp
        gc.collect()
        assert _children() == before
        assert all(_gone(pid) for pid in seen)


class TestForkBesideThreads:
    def test_two_thread_workers_at_forced_width_two(self, small_blocks,
                                                    monkeypatch):
        """Two thread-backend workers, each compressor at width 2, compile,
        warm and fork their slots from two threads at once: every fork
        waits for the other thread's computation, each slot keeps the
        workspace it serves, and the payload equals width 1's."""

        model, raw = _build("bcae_ht")
        wedges = np.concatenate([raw] * 4)
        want = _compressor_at(monkeypatch, model, 1).compress_into(wedges)
        monkeypatch.setattr(fp, "_FORCED_WIDTH", 2)
        service = StreamingCompressionService(
            model, ServiceConfig(max_batch=1, workers=2))
        gc.collect()
        before = _children()
        for _ in range(2):
            payloads, _stats = service.run(wedges)
            assert b"".join(bytes(p.payload) for p in payloads) \
                == bytes(want.payload)
        pids = [pid for comp in service._idle for pid in _slot_pids(comp)]
        assert 1 <= len(pids) <= 2 and set(pids) <= _children() - before

    def test_two_threads_fork_at_once(self, small_blocks, monkeypatch):
        """Two width-2 compressors make their first runs — and, on a new
        geometry, their re-forks — from two threads released together:
        both round trips equal width 1's every time."""

        model, raw = _build("bcae_2d")
        wider = np.concatenate([raw, raw[:, :, :8]], axis=2)
        want = {n: _round_trip(_compressor_at(monkeypatch, model, 1), w)
                for n, w in (("raw", raw), ("wider", wider))}
        comps = [_compressor_at(monkeypatch, model, 2) for _ in range(2)]
        start = threading.Barrier(2)
        same: list[tuple] = []

        def drive(i):
            for name, wedges in (("raw", raw), ("wider", wider)) * 4:
                start.wait(30)
                payload, recon = _round_trip(comps[i], wedges)
                same.append((i, name, payload == want[name][0]
                             and np.array_equal(recon, want[name][1])))

        threads = [threading.Thread(target=drive, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert len(same) == 16 and all(ok for *_, ok in same), same
        assert all(len(_slot_pids(c)) == 2 for c in comps)

    def test_fork_waits_for_another_threads_computation(self, small_blocks,
                                                        monkeypatch):
        """While another thread computes, a first run warms but forks no
        slot; once that computation ends, the run forks and finishes with
        width 1's payload."""

        model, raw = _build("bcae_ht")
        want = _compressor_at(monkeypatch, model, 1).compress_into(raw)
        comp = _compressor_at(monkeypatch, model, 2)
        ws = comp._fast_encoder().plan.workspace
        computing, release = threading.Event(), threading.Event()

        def other():
            with fp._GATE.compute():
                computing.set()
                release.wait(30)

        holder = threading.Thread(target=other)
        holder.start()
        assert computing.wait(30)
        got = []
        runner = threading.Thread(
            target=lambda: got.append(comp.compress_into(raw)))
        gc.collect()
        before = _children()
        runner.start()
        try:
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                assert ws._slots is None and _children() == before
                time.sleep(0.02)
            assert runner.is_alive()
        finally:
            release.set()
            holder.join(30)
            runner.join(60)
        assert bytes(got[0].payload) == bytes(want.payload)
        assert len(_slot_pids(comp)) == 1
