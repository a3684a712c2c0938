"""The GEMM calibration probe's operands keep its power.

Every probe tiles its dense-random operands from one per-process pool of
prime period (``fast_plan._probe_pool``) instead of drawing them per shape,
and builds neither its operand nor its reference whole: it tiles the rows
each executor panel needs and computes the reference as the oracle's own
chunk calls (``repro.nn.convolution.gemm_chunk_rows``), one chunk at a
time.  These tests pin what that must not change: the probe still rejects
a contraction that differs from the reference only in summation order,
still accepts the genuine partitions, rows stay pairwise distinct within a
period, its verdicts are the ones a fresh per-shape draw gives, one
problem serves every candidate of a site's formulation chain — and a
probe, like the oracle, holds a few chunks of memory, not a whole-sample
im2col.
"""

import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.core import MODEL_NAMES, BCAECompressor, build_model
from repro.core import fast_plan as fp
from repro.nn.convolution import conv_forward, gemm_chunk_rows

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


class _FreshProblem(fp._ProbeProblem):
    """A per-shape draw of the probe's operands: a dense
    ``standard_normal`` operand and kernel from one seeded generator,
    contracted by the oracle's chunk calls like the pooled problem."""

    def __init__(self, rows, K, o, ow):
        super().__init__(rows, K, o, ow)
        rng = np.random.default_rng(0xB10C)
        self.a = rng.standard_normal((rows, K), dtype=np.float32)
        self.b = np.asfortranarray(rng.standard_normal((K, o),
                                                       dtype=np.float32))

    def _fill(self, out, r0):
        np.copyto(out, self.a[r0:r0 + len(out)])


def _operand(problem):
    """The whole ``(rows, K)`` operand a probe's walks see."""

    K = problem.b.shape[0]
    a = np.empty((problem.rows, K), np.float32)
    problem.panel(a, np.empty((problem.rows, problem.b.shape[1]), np.float32),
                  0, problem.rows, True)
    return a


def _reference(problem):
    """The whole reference, chunk by chunk, as the probe computes it."""

    chunks = -(-problem.rows // problem.span)
    return np.concatenate([problem._chunk(j)[1].copy() for j in range(chunks)])


def _formulations(rows, K, o, ow, budget=ACCEPTED_BUDGET):
    """``(partition, reference orientation)`` of every formulation a site
    of this shape may run under slab budget ``budget``: the blocked
    partitions at widths 1–3 and at the width this host derives, and the
    whole-result panel, each in both orientations, and the oracle's own
    chunk partition (the ``reference`` formulation)."""

    widths = sorted({1, 2, 3, fp.panel_budget().width})
    whole = fp._Partition(ow, rows // ow, (rows // ow,))
    chunks = fp._Partition(ow, gemm_chunk_rows(K, ow), (rows // ow,))
    with mock.patch.object(fp, "_PANEL_BYTES", budget):
        parts = [fp._partition(K, o, ow, rows, w) for w in widths]
    return [(part, ref) for part in parts + [whole] for ref in (False, True)
            ] + [(chunks, True)]


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
        problem = fp._ProbeProblem(rows, K, 4, 1)
        a, b = _operand(problem), problem.b
        assert np.unique(a, axis=0).shape[0] == rows
        assert np.isfinite(a).all() and np.isfinite(b).all()
        assert b.flags.f_contiguous

    def test_chunks_tile_the_pool_and_contract_like_the_oracle(self):
        """The operand is the pool's periodic repetition (row ``i`` starts
        at ``i·K mod L``, the kernel follows the operand), and the
        reference is ``conv_forward``'s chunk calls — over several
        chunks, the last narrower, and several pool periods."""

        rows, K, o, ow = 9600, 384, 8, 48
        problem = fp._ProbeProblem(rows, K, o, ow)
        flat = np.resize(fp._probe_pool(), rows * K + K * o)
        a = _operand(problem)
        assert np.array_equal(a.reshape(-1), flat[:rows * K])
        assert np.array_equal(problem.b, flat[rows * K:].reshape(K, o))
        assert problem.span == gemm_chunk_rows(K, ow) * ow < rows
        assert rows % problem.span
        # The same contraction as a 1×1 convolution over a (K, rows/ow,
        # ow) input, which conv_forward runs in the same chunks.
        x = a.T.reshape(1, K, rows // ow, ow)
        w = np.ascontiguousarray(problem.b.T).reshape(o, K, 1, 1)
        oracle = conv_forward(x, w, 1, 0)[0].reshape(o, rows).T
        assert np.array_equal(_reference(problem), oracle)


class TestProbePower:
    @pytest.mark.parametrize("shape", ACCEPTED, ids=str)
    def test_accepts_the_genuine_partitions(self, shape):
        rows, K, o, ow = shape
        problem = fp._ProbeProblem(rows, K, o, ow)
        assert rows * K > 2 * L and rows > problem.span
        for part, ref in _formulations(*shape):
            assert fp._panels_match(problem, part, ref)

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
        h = K // 2

        def halves(a, b):
            return a[:, :h] @ b[:h] + a[:, h:] @ b[h:]

        class Other(fp._ProbeProblem):
            """The same operands under another contraction."""

            def _contract(self, a, want):
                if order == "reversed":
                    want[...] = (np.ascontiguousarray(a[:, ::-1])
                                 @ np.asfortranarray(self.b[::-1]))
                elif order == "split":
                    want[...] = halves(a, self.b)
                else:
                    super()._contract(a, want)

            def _chunk(self, j):
                a, want = super()._chunk(j)
                if order == "last_row" and (j + 1) * self.span >= self.rows:
                    want[-1:] = halves(a[-1:], self.b)
                return a, want

        other = Other(rows, K, o, ow)
        assert not np.array_equal(
            _reference(other), _reference(fp._ProbeProblem(rows, K, o, ow)))
        for part, ref in _formulations(*shape, budget):
            assert not fp._panels_match(other, part, ref)

    @pytest.mark.parametrize("budget", [ACCEPTED_BUDGET, fp._PANEL_BYTES],
                             ids=["accepted_budget", "engine_budget"])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_verdicts_equal_a_fresh_draw(self, shape, budget):
        pooled = fp._ProbeProblem(*shape)
        fresh = _FreshProblem(*shape)
        verdicts = [fp._panels_match(pooled, part, ref)
                    for part, ref in _formulations(*shape, budget)]
        assert verdicts == [fp._panels_match(fresh, part, ref)
                            for part, ref in _formulations(*shape, budget)]
        if budget == ACCEPTED_BUDGET:
            assert all(verdicts) == (shape in ACCEPTED)


class TestOneDrawPerChain:
    """``_gemm`` builds one probe problem per shape and hands it to every
    candidate of its chain (``blocked`` → ``blocked_ref`` →
    ``transposed``); a cache hit builds nothing."""

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
        real_problem, real_match = fp._ProbeProblem, fp._panels_match

        def problem(*args):
            draws.append(args)
            return real_problem(*args)

        def match(problem, part, ref):
            """``blocked`` is forced to reject and ``blocked_ref`` rejects
            after its real verdict is recorded, so the chain reaches
            ``transposed``."""

            verdict = real_match(problem, part, ref)
            seen.append(((part, ref), id(problem), verdict))
            return verdict and (part, ref) == (whole, False)

        monkeypatch.setattr(fp, "_ProbeProblem", problem)
        monkeypatch.setattr(fp, "_panels_match", match)
        ran = []
        plan = SimpleNamespace(
            budget=SimpleNamespace(width=2), _gemm_stats={},
            _panels=lambda key, spec, canvas, out_spatial, part, ref, *rest:
                ran.append((part, ref)))
        self._run(plan)

        assert draws == [(rows, K, o, ow, None)]
        assert [c for c, _, _ in seen] == [
            (blocked, False), (blocked, True), (whole, False)]
        assert len({ident for _, ident, _ in seen}) == 1
        for (part, ref), _, verdict in seen:
            assert verdict == real_match(real_problem(rows, K, o, ow), part,
                                         ref)
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
                            lambda *args: probes.append(args[1:]) or real(*args))

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


class TestChunkMemory:
    """A probe and the oracle hold a few chunks, never a whole-sample
    im2col: at BCAE-2D's paper-geometry entry convolution (49 152 output
    columns, K = 784, 147 MiB of im2col) each call's ``tracemalloc`` peak
    stays under 40 MB."""

    ROWS, K, O, OW = 49152, 784, 32, 256
    BOUND = 40 << 20

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_probe_cache_miss(self, monkeypatch):
        rows, K, o, ow = self.ROWS, self.K, self.O, self.OW
        monkeypatch.setattr(fp, "_GEMM_OK", {})
        fp._probe_pool()  # the per-process pool is drawn once, beforehand
        part = fp._partition(K, o, ow, rows, fp.panel_budget().width)
        assert len(part.panels()) > 1
        peak = self._peak(lambda: fp._gemm_matches(rows, K, o, part, False))
        assert (rows, K, o, part, False) in fp._GEMM_OK
        assert peak < self.BOUND < rows * K * 4

    def test_conv_forward_entry_conv(self):
        rows, K, o, ow = self.ROWS, self.K, self.O, self.OW
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 16, rows // ow, ow), dtype=np.float32)
        w = rng.standard_normal((o, 16, 7, 7), dtype=np.float32)
        b = rng.standard_normal(o, dtype=np.float32)
        out = []
        peak = self._peak(lambda: out.append(conv_forward(x, w, 1, 3, b)))
        assert out[0].shape == (1, o, rows // ow, ow)
        assert peak < self.BOUND < rows * K * 4
