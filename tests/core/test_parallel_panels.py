"""Slot-parallel panel executor: determinism at every width.

The executor's contract is *bit-identity at any width*: slot ``s`` of ``T``
owns panels ``s, s+T, …`` with per-slot workspace slabs and deterministic
output placement, so the payload and reconstruction bytes cannot depend on
the thread count.  There is one numerics contract: a formulation whose
probe sees any deviation, however small, is not compiled.

The width is derived from the host (:func:`panel_budget`), so the rule is
tested against faked affinity and BLAS variables, and the width-dependent
cases force a width through the private ``_FORCED_WIDTH`` hook.
"""

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.core import BCAECompressor, build_model
from repro.core.fast_decode import make_fast_decoder
from repro.core.fast_encode import make_fast_encoder
from repro.core.model_zoo import MODEL_NAMES
from repro.nn.norm import BatchNormNd
from repro.serve import ServiceConfig, StreamingCompressionService


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the blocked-GEMM engagement thresholds so the panel-blocked
    im2col paths (and with them the parallel executor) run at test scale."""

    monkeypatch.setattr(fp, "_BLOCKED_MIN_BYTES", 1 << 10)
    monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 12)


def _build(name, seed=3):
    kw = (dict(wedge_spatial=(16, 24, 30), m=2, n=2, d=2)
          if name == "bcae_2d" else dict(wedge_spatial=(8, 16, 14)))
    model = build_model(name, seed=seed, **kw)
    model.eval()
    sp = (3, 16, 24, 30) if name == "bcae_2d" else (3, 8, 16, 14)
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 1024, size=sp, dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


def _all_plans(comp):
    """(label, plan) for the compressor's compiled encoder + decoder heads."""

    plans = [("encoder", comp._fast_encoder().plan)]
    plans += [(f"decoder.{head}", plan)
              for head, plan in comp._fast_decoder().plans.items()]
    return plans


def _mild_bn_statistics(model, seed=5):
    """Running variances a few fp32 ulps off 1: the fold probe sees a
    nonzero-but-tiny deviation on the original BCAE's BatchNorm sites."""

    rng = np.random.default_rng(seed)
    bns = [m for _name, m in model.named_modules()
           if isinstance(m, BatchNormNd)]
    assert bns, "model must carry BatchNorm stages"
    for bn in bns:
        rv = bn.running_var
        rv[...] = (1.0 + rng.random(size=rv.shape) * 3e-7).astype(rv.dtype)
    model.eval()


def _compressor_at(monkeypatch, model, width, **kw):
    """A compressor whose plans compile at ``width``, set through the
    private width hook (plans compile on their first call)."""

    monkeypatch.setattr(fp, "_FORCED_WIDTH", width)
    comp = BCAECompressor(model, **kw)
    comp._fast_encoder(), comp._fast_decoder()
    monkeypatch.setattr(fp, "_FORCED_WIDTH", None)
    return comp


class TestThreadInvariance:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bits_identical_across_widths(self, small_blocks, monkeypatch,
                                          name, half):
        """Payload and reconstruction bytes match at widths 1/2/4 for
        every Table-1 model in both inference modes."""

        model, raw = _build(name)
        payloads, recons = [], []
        for t in (1, 2, 4):
            comp = _compressor_at(monkeypatch, model, t, half=half)
            assert comp._fast_encoder().plan.budget.width == t
            cw = comp.compress_into(raw)
            payloads.append(bytes(cw.payload))
            recons.append(np.array(comp.decompress_into(cw), copy=True))
        assert all(p == payloads[0] for p in payloads[1:]), \
            f"{name}/half={half}: payload depends on panel width"
        assert all(np.array_equal(r, recons[0]) for r in recons[1:]), \
            f"{name}/half={half}: reconstruction depends on panel width"

    def test_repeated_runs_stable(self, small_blocks, monkeypatch):
        """The threaded path is deterministic run to run, not just
        width to width."""

        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 4, half=True)
        first = bytes(comp.compress_into(raw).payload)
        for _ in range(3):
            assert bytes(comp.compress_into(raw).payload) == first


@pytest.fixture
def host(monkeypatch):
    """A host shape for the width rule: ``host(cores, **env)`` pins the
    usable cores and sets exactly the given BLAS variables."""

    def shape(cores, **env):
        monkeypatch.setattr(fp.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        for name in fp._BLAS_THREAD_VARS + ("REPRO_PANEL_THREADS",):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)

    return shape


class TestPanelBudget:
    """The width rule: usable cores // (BLAS threads × workers), ≥ 1."""

    def test_two_cores_pinned_blas(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget() == fp.PanelBudget(
            width=2, cores=2, blas_threads=1, workers=1)

    def test_unpinned_blas_owns_every_core(self, host):
        host(2)
        assert fp.panel_budget() == fp.PanelBudget(
            width=1, cores=2, blas_threads=2, workers=1)

    def test_one_core_affinity(self, host):
        """What a ``taskset -c 0`` process sees."""

        host(1, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget().width == 1

    def test_two_blas_threads_on_two_cores(self, host):
        host(2, OMP_NUM_THREADS="2")
        assert fp.panel_budget().width == 1

    def test_workers_share_the_cores(self, host):
        host(4, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget(workers=2).width == 2
        assert fp.panel_budget(workers=0).width == 4  # inline counts as 1

    def test_largest_blas_variable_wins(self, host):
        host(4, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="2")
        assert fp.panel_budget().blas_threads == 2
        assert fp.panel_budget().width == 2

    @pytest.mark.parametrize("value", ["auto", "0", "-1", "1.5", ""])
    def test_bad_blas_value_is_not_an_error(self, host, value):
        """These are BLAS's variables: a value the rule cannot read means
        BLAS owns every core, and nothing raises."""

        host(2, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS=value)
        assert fp.panel_budget().width == 1

    def test_old_environment_knob_is_ignored(self, host):
        host(2, OPENBLAS_NUM_THREADS="1", REPRO_PANEL_THREADS="4")
        assert fp.panel_budget().width == 2
        host(2, REPRO_PANEL_THREADS="4")
        assert fp.panel_budget().width == 1

    def test_budget_reaches_plans(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        model, _raw = _build("bcae_ht")
        comp = BCAECompressor(model, half=True)
        assert comp._fast_encoder().plan.budget.width == 2
        assert {p.budget.width for p in comp._fast_decoder().plans.values()} \
            == {2}

    def test_service_workers_reach_plans(self, host):
        """A pooled compressor's plans divide by the service's workers."""

        host(4, OPENBLAS_NUM_THREADS="1")
        model, _raw = _build("bcae_2d")
        for workers, width in ((0, 4), (2, 2)):
            service = StreamingCompressionService(
                model, ServiceConfig(workers=workers))
            plan = service._idle[0]._fast_encoder().plan
            assert plan.budget == fp.PanelBudget(
                width=width, cores=4, blas_threads=1, workers=max(1, workers))


class TestOneNumericsContract:
    """Every compiled formulation is probe-proven bit-identical; there is
    no relaxed tier to opt into."""

    @pytest.mark.parametrize("half", [True, False])
    def test_mild_bn_statistics_stay_bit_exact(self, small_blocks, half):
        """Folds whose probe sees only a tiny deviation are refused, and
        the kept affine stages reproduce the module graph byte for byte."""

        model, raw = _build("bcae")
        _mild_bn_statistics(model)
        comp = BCAECompressor(model, half=half)
        ref = comp.compress(raw)
        got = comp.compress_into(raw)
        assert bytes(got.payload) == bytes(ref.payload)
        assert np.array_equal(np.asarray(comp.decompress_into(got)),
                              comp.decompress(ref))
        folds = [d for _label, plan in _all_plans(comp)
                 for d in plan.bn_folds if d["site"] == "norm1->inner-conv"]
        assert folds and any(not d["folded"] for d in folds)

    def test_mild_bn_statistics_width_invariant(self, small_blocks,
                                                monkeypatch):
        """The kept affine stages are deterministic at every width."""

        model, raw = _build("bcae")
        _mild_bn_statistics(model)
        outs = []
        for t in (1, 4):
            comp = _compressor_at(monkeypatch, model, t, half=True)
            cw = comp.compress_into(raw)
            outs.append((bytes(cw.payload),
                         np.array(comp.decompress_into(cw), copy=True)))
        assert outs[0][0] == outs[1][0]
        assert np.array_equal(outs[0][1], outs[1][1])

    @pytest.mark.parametrize("keyword", [{"precision": "bit"},
                                         {"panel_threads": 2}],
                             ids=["precision", "panel_threads"])
    @pytest.mark.parametrize("entry", ["BCAECompressor", "make_fast_encoder",
                                       "make_fast_decoder", "ServiceConfig"])
    def test_precision_keyword_removed(self, entry, keyword):
        """The old tier selector and the old panel-width knob are gone
        outright, with no alias."""

        model, _raw = _build("bcae_ht")
        build = {
            "BCAECompressor": lambda **kw: BCAECompressor(model, **kw),
            "make_fast_encoder": lambda **kw: make_fast_encoder(model, **kw),
            "make_fast_decoder": lambda **kw: make_fast_decoder(model, **kw),
            "ServiceConfig": lambda **kw: ServiceConfig(**kw),
        }[entry]
        build()
        with pytest.raises(TypeError):
            build(**keyword)


class TestPlanStats:
    def test_stats_record_execution(self, small_blocks, monkeypatch):
        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 2, half=True)
        comp.decompress_into(comp.compress_into(raw))
        for label, plan in _all_plans(comp):
            stats = plan.plan_stats()
            assert stats["panel_budget"]["width"] == 2
            assert stats["stage_kinds"]
            assert stats["workspace_bytes"] > 0
        dec_stats = [plan.plan_stats()
                     for _l, plan in _all_plans(comp)[1:]]
        gemms = [g for s in dec_stats for g in s["gemms"].values()]
        assert gemms, "decoder ran no recorded GEMM sites"
        assert {g["formulation"] for g in gemms} <= {
            "blocked", "blocked_pad", "blocked_ref", "transposed",
            "reference"}
        blocked = [g for g in gemms if g["formulation"].startswith("blocked")]
        assert blocked, "no panel-blocked site engaged at test scale"
        assert all(1 <= g["threads"] <= 2 for g in blocked)
        assert any(g["threads"] == 2 for g in blocked)

    def test_stats_carry_no_tier_ledger(self, small_blocks):
        """The record holds what ran and how, and nothing about a
        numerics tier: no ``precision`` key, no relaxed-site list."""

        model, raw = _build("bcae")
        comp = BCAECompressor(model, half=True)
        comp.decompress_into(comp.compress_into(raw))
        for label, plan in _all_plans(comp):
            stats = plan.plan_stats()
            assert set(stats) == {"half", "panel_budget", "stage_kinds",
                                  "bn_folds", "gemms", "workspace_bytes"}, \
                label
