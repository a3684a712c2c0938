"""The GEMM calibration probe's operands keep its power.

Every probe tiles its dense-random operands from one per-process pool of
prime period (``fast_plan._probe_pool``) instead of drawing them per shape.
These tests pin what that must not change: the probe still rejects a
contraction that differs from the reference only in summation order, still
accepts the genuine partitions, rows stay pairwise distinct within a
period, its verdicts are the ones a fresh per-shape draw gives, and one
draw serves every candidate of a site's formulation chain.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.core import MODEL_NAMES, BCAECompressor, build_model
from repro.core import fast_plan as fp

L = fp._PROBE_POOL_LEN

#: ``(rows, K, o, ow)`` probe shapes whose ``rows·K`` spans several pool
#: periods; the last has O = 1, whose transposed orientation this BLAS
#: contracts differently from the reference (a rejecting shape).
SHAPES = [(9600, 384, 8, 48), (4800, 1536, 8, 48),
          (8192, 300, 2, 64), (8192, 300, 1, 64)]
#: The shapes every formulation reproduces at the partitions of
#: :data:`ACCEPTED_BUDGET`.  The probe's power does not depend on the slab
#: budget, but which formulations this BLAS contracts like the reference
#: does: at the 1 MB budget the engine runs, some panels of these shapes
#: are narrow enough to change the dispatch, and pooled and fresh draws
#: both reject them (``test_verdicts_equal_a_fresh_draw`` checks both).
ACCEPTED = SHAPES[:3]
ACCEPTED_BUDGET = 6 << 20


def _fresh_problem(rows, K, o):
    """A per-shape draw of the probe's operands and reference: a dense
    ``standard_normal`` operand and kernel from one seeded generator."""

    rng = np.random.default_rng(0xB10C)
    a = rng.standard_normal((rows, K), dtype=np.float32)
    b = np.asfortranarray(rng.standard_normal((K, o), dtype=np.float32))
    return a, b, np.dot(a, b)


def _formulations(rows, K, o, ow, budget=ACCEPTED_BUDGET):
    """``(partition, reference orientation)`` of every formulation a site
    of this shape may run under slab budget ``budget``: the blocked
    partitions at widths 1–3 and at the width this host derives, and the
    whole-result panel, each in both orientations."""

    widths = sorted({1, 2, 3, fp.panel_budget().width})
    whole = fp._Partition(ow, rows // ow, (rows // ow,))
    with mock.patch.object(fp, "_PANEL_BYTES", budget):
        parts = [fp._partition(K, o, ow, rows, w) for w in widths]
    return [(part, ref) for part in parts + [whole] for ref in (False, True)]


class TestPool:
    def test_length_is_a_prime_above_every_zoo_k(self):
        assert all(L % p for p in range(2, math.isqrt(L) + 1))
        ks = set()
        for name in MODEL_NAMES:
            model = build_model(name, wedge_spatial=(16, 24, 30), seed=0)
            model.eval()
            comp = BCAECompressor(model)
            comp.decompress_into(comp.compress_into(
                np.zeros((1, 16, 24, 30), np.float32)))
            for plan in [comp._fast_encoder().plan,
                         *comp._fast_decoder().plans.values()]:
                ks |= {g["K"] for g in plan.plan_stats()["gemms"].values()}
        assert max(ks) == 1536 < L

    def test_pool_is_drawn_once_and_read_only(self):
        pool = fp._probe_pool()
        assert fp._probe_pool() is pool
        assert pool.shape == (L,) and pool.dtype == np.float32
        assert not pool.flags.writeable

    @pytest.mark.parametrize("K", [36, 384, 1536])
    def test_row_offsets_are_distinct_within_a_period(self, K):
        """Row ``i`` starts at ``i·K mod L``: ``L`` consecutive rows start
        at ``L`` distinct offsets."""

        starts = np.arange(L, dtype=np.int64) * K % L
        assert np.bincount(starts, minlength=L).max() == 1

    @pytest.mark.parametrize("K", [36, 1536])
    def test_rows_are_pairwise_distinct(self, K):
        rows = 3 * L // K  # an operand three periods long
        a, b, _ = fp._probe_problem(rows, K, 4)
        assert np.unique(a, axis=0).shape[0] == rows
        assert np.isfinite(a).all() and np.isfinite(b).all()
        assert b.flags.f_contiguous


class TestProbePower:
    @pytest.mark.parametrize("shape", ACCEPTED, ids=str)
    def test_accepts_the_genuine_partitions(self, shape):
        rows, K, o, ow = shape
        a, b, want = fp._probe_problem(rows, K, o)
        assert rows * K > 2 * L
        for part, ref in _formulations(*shape):
            assert fp._panels_match(a, b, want, part, ref)

    @pytest.mark.parametrize("budget", [ACCEPTED_BUDGET, fp._PANEL_BYTES],
                             ids=["accepted_budget", "engine_budget"])
    @pytest.mark.parametrize("order", ["split", "reversed", "last_row"])
    @pytest.mark.parametrize("shape", ACCEPTED, ids=str)
    def test_rejects_another_summation_order(self, shape, order, budget):
        """The same K products summed as two halves, or in reverse order,
        are a different contraction; so is one that sums only the last
        row, periods past the first, as two halves.  Rejection holds at
        the engine's partitions too, whatever this BLAS accepts there."""

        rows, K, o, ow = shape
        a, b, want = fp._probe_problem(rows, K, o)
        h = K // 2
        if order == "reversed":
            other = (np.ascontiguousarray(a[:, ::-1])
                     @ np.asfortranarray(b[::-1]))
        else:
            other = a[:, :h] @ b[:h] + a[:, h:] @ b[h:]
        if order == "last_row":
            other = np.concatenate([want[:-1], other[-1:]])
        assert not np.array_equal(other, want)
        for part, ref in _formulations(*shape, budget):
            assert not fp._panels_match(a, b, other, part, ref)

    @pytest.mark.parametrize("budget", [ACCEPTED_BUDGET, fp._PANEL_BYTES],
                             ids=["accepted_budget", "engine_budget"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_verdicts_equal_a_fresh_draw(self, shape, budget):
        pooled = fp._probe_problem(*shape[:3])
        fresh = _fresh_problem(*shape[:3])
        verdicts = [fp._panels_match(*pooled, part, ref)
                    for part, ref in _formulations(*shape, budget)]
        assert verdicts == [fp._panels_match(*fresh, part, ref)
                            for part, ref in _formulations(*shape, budget)]
        if budget == ACCEPTED_BUDGET:
            assert all(verdicts) == (shape in ACCEPTED)


class TestOneDrawPerChain:
    """``_gemm`` draws one probe problem per shape and hands it to every
    candidate of its chain (``blocked`` → ``blocked_ref`` →
    ``transposed``); a cache hit draws nothing."""

    ROWS, OW, K, O = 120, 10, 36, 4

    def _run(self, plan):
        rows, ow, K, o = self.ROWS, self.OW, self.K, self.O
        spec = SimpleNamespace(out_spatial=lambda spatial: (rows // ow, ow),
                               kernel=(3, 3), out_channels=o, members=None)
        canvas = np.empty((K // 9, 1, 1), np.float32)
        fp.CompiledStagePlan._gemm(plan, "site", spec, canvas, 1.0, None,
                                   "store")

    def test_one_draw_serves_the_chain(self, monkeypatch):
        rows, ow, K, o = self.ROWS, self.OW, self.K, self.O
        monkeypatch.setattr(fp, "_GEMM_OK", {})
        monkeypatch.setattr(fp, "_PANEL_BYTES", 2 * ow * fp._column_bytes(K, o))
        blocked = fp._partition(K, o, ow, rows, 2)
        whole = fp._Partition(ow, rows // ow, (rows // ow,))
        assert len(blocked.panels()) > 1

        draws, seen = [], []
        real_problem, real_match = fp._probe_problem, fp._panels_match

        def problem(*args):
            draws.append(args)
            return real_problem(*args)

        def match(a, b, want, part, ref):
            """``blocked`` is forced to reject and ``blocked_ref`` rejects
            after its real verdict is recorded, so the chain reaches
            ``transposed``."""

            verdict = real_match(a, b, want, part, ref)
            seen.append(((part, ref), id(a), verdict))
            return verdict and (part, ref) == (whole, False)

        monkeypatch.setattr(fp, "_probe_problem", problem)
        monkeypatch.setattr(fp, "_panels_match", match)
        ran = []
        plan = SimpleNamespace(
            budget=SimpleNamespace(width=2), _gemm_stats={},
            _panels=lambda key, spec, canvas, out_spatial, part, ref, *rest:
                ran.append((part, ref)))
        self._run(plan)

        assert draws == [(rows, K, o, None)]
        assert [c for c, _, _ in seen] == [
            (blocked, False), (blocked, True), (whole, False)]
        assert len({ident for _, ident, _ in seen}) == 1
        for (part, ref), _, verdict in seen:
            assert verdict == real_match(*real_problem(rows, K, o), part, ref)
        assert ran == [(whole, not seen[-1][2])]

        seen.clear()
        self._run(plan)  # every candidate's verdict is cached now
        assert len(draws) == 1 and not seen


class TestOneVerdictPerSite:
    """A plan runs one wedge at a time, so a batch of any size meets the
    site shapes, probe verdicts, canvases and slabs of one wedge."""

    MID = {"bcae_2d": dict(wedge_spatial=(16, 64, 64), m=1, n=2, d=1),
           "bcae_pp": dict(wedge_spatial=(8, 32, 48))}

    @pytest.mark.parametrize("name", sorted(MID))
    def test_batch_sizes_probe_and_allocate_nothing(self, monkeypatch, name):
        """After a one-wedge warm-up, batches of 2, 3 and 4 wedges in both
        directions run no probe, add no verdict, and grow no plan buffer:
        only the batch-sized outputs follow the batch."""

        model = build_model(name, seed=0, **self.MID[name])
        model.eval()
        comp = BCAECompressor(model)
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 1024, (4,) + self.MID[name]["wedge_spatial"],
                           dtype=np.uint16)
        raw[raw < 500] = 0
        probes = []
        real = fp._panels_match
        monkeypatch.setattr(fp, "_GEMM_OK", {})
        monkeypatch.setattr(fp, "_panels_match",
                            lambda *args: probes.append(args[3:]) or real(*args))

        comp.decompress_into(comp.compress_into(raw[:1]))
        workspaces = [comp._fast_encoder().plan.workspace,
                      comp._fast_decoder()._ws]

        def plan_buffers():
            return [{k: b.nbytes for k, b in ws._bufs.items()
                     if k not in ("code16", "recon")} for ws in workspaces]

        assert probes and fp._GEMM_OK
        probes.clear()
        verdicts, buffers = len(fp._GEMM_OK), plan_buffers()
        for n in (2, 3, 4):
            comp.decompress_into(comp.compress_into(raw[:n]))
        assert not probes
        assert len(fp._GEMM_OK) == verdicts
        assert plan_buffers() == buffers
