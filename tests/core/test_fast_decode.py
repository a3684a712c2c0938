"""FastDecoder: bit-identity with the module path, plan vocabulary, reuse
and code-geometry errors — every case runs on the 2D and the 3D families."""

import numpy as np
import pytest

from repro import nn
from repro.core import BCAECompressor, build_model
from repro.core.blocks import ResBlock2d
from repro.core.fast_decode import (
    FastDecoder,
    _head_stages,
    make_fast_decoder,
    supports_fast_decode,
)
from repro.core.fast_plan import CompiledStagePlan, stage_kinds
from repro.nn import Tensor
from repro.nn.convolution import gemm_chunk_rows

#: (zoo name, raw wedge shape, 2D constructor arguments) — one row per rank
#: and per BatchNorm / width variant; the wrapper under test is the same.
#: The last row's GEMM sites span several chunks of the reference
#: contraction (``repro.nn.convolution.gemm_chunk_rows``), the last chunk
#: narrower, and its heads' sites include ``reference`` and ``blocked_ref``
#: ones; the smaller rows are one chunk per site.
FAMILIES = [
    pytest.param("bcae_2d", (16, 24, 30), dict(m=2, n=2, d=2), id="bcae_2d"),
    pytest.param("bcae_pp", (4, 16, 22), {}, id="bcae_pp"),
    pytest.param("bcae_ht", (4, 16, 22), {}, id="bcae_ht"),
    pytest.param("bcae", (4, 16, 22), {}, id="bcae"),
    pytest.param("bcae_pp", (4, 48, 112), {}, id="bcae_pp-chunks"),
]
#: 2D depth / upsampling variants on top (``n > d``, ``d = 1``, no
#: upsampling at all).
VARIANTS = FAMILIES + [
    pytest.param("bcae_2d", (16, 24, 32), dict(m=4, n=3, d=3), id="bcae_2d-d3"),
    pytest.param("bcae_2d", (16, 24, 30), dict(m=3, n=2, d=1), id="bcae_2d-d1"),
    pytest.param("bcae_2d", (16, 24, 30), dict(m=1, n=1, d=0), id="bcae_2d-d0"),
]


def _model(name, spatial, kwargs):
    model = build_model(name, wedge_spatial=spatial, seed=0, **kwargs)
    model.eval()  # the original BCAE's BatchNorm compiles in eval mode only
    return model


def _wedges(n, spatial, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1024, size=(n,) + spatial).astype(np.uint16)
    w[w < 500] = 0
    return w


def _module_decode(model, codes, half):
    with nn.no_grad(), nn.amp.autocast(half):
        seg, reg = model.decode(Tensor(codes.astype(np.float32)))
    return seg.data, reg.data


def _same(comp, fd, c):
    """Fast reconstruction == module-path reconstruction for payload ``c``,
    from the fp16 payload view and from an fp32 copy (what an analysis job
    that edits codes hands in)."""

    ref = comp.decompress(c)
    return all(
        np.array_equal(ref, fd.decompress(codes, c.original_horizontal))
        for codes in (c.codes_view(), c.codes_view().astype(np.float32))
    )


class TestVocabulary:
    def test_decoder_stages_classified(self):
        model = build_model("bcae_2d", wedge_spatial=(16, 24, 32), m=2, n=3, d=2, seed=0)
        kinds = stage_kinds(model.seg_decoder.stages)
        assert kinds is not None
        assert kinds[-1] == "sigmoid" and kinds[-2] == "conv"
        assert "up" in kinds and "res" in kinds
        assert stage_kinds(model.reg_decoder.stages)[-1] == "identity"

    def test_trailing_res_rejected(self):
        """A plan ending in a res block would return quantized values where
        the module returns the unquantized stream — must not compile."""

        stages = nn.Sequential(nn.Conv2d(4, 4, 3, padding=1), ResBlock2d(4))
        assert stage_kinds(stages) is None
        with pytest.raises(TypeError):
            CompiledStagePlan(stages)

    def test_mid_stack_sigmoid_rejected(self):
        stages = nn.Sequential(
            nn.Conv2d(4, 4, 1), nn.Sigmoid(), nn.Conv2d(4, 4, 1)
        )
        assert stage_kinds(stages) is None

    def test_sigmoid_requires_conv_upstream(self):
        stages = nn.Sequential(nn.Upsample2d(2), nn.Sigmoid())
        assert stage_kinds(stages) is None

    def test_unknown_stage_rejected(self):
        stages = nn.Sequential(nn.Conv2d(4, 4, 1), nn.Tanh())
        assert stage_kinds(stages) is None


class TestSupports:
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_zoo_models_compile_to_the_one_wrapper(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        assert supports_fast_decode(model)
        assert type(make_fast_decoder(model)) is FastDecoder

    def test_batchnorm_bcae_supported_in_eval(self):
        """The original BCAE's BatchNorm compiles in eval mode only:
        training-mode statistics are batch-dependent, not a fixed graph."""

        model = build_model("bcae", wedge_spatial=(16, 24, 30), seed=0)
        assert not supports_fast_decode(model)  # training mode
        model.eval()
        assert supports_fast_decode(model)
        model.train()
        assert not supports_fast_decode(model)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_compile_rejects_unsupported(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        for not_a_model in (model.encoder, model.seg_decoder, object()):
            assert not supports_fast_decode(not_a_model)
            with pytest.raises(TypeError):
                FastDecoder(not_a_model)

    def test_compile_rejects_training_mode_batchnorm(self):
        model = build_model("bcae", wedge_spatial=(8, 24, 30), seed=0)
        with pytest.raises(TypeError):
            FastDecoder(model)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_plans_and_fold_exposure(self, name, spatial, kwargs):
        fd = make_fast_decoder(_model(name, spatial, kwargs))
        plans = fd.plans
        assert list(plans) == ["seg", "reg"]
        assert all(isinstance(p, CompiledStagePlan) for p in plans.values())
        assert fd.bn_folds == plans["seg"].bn_folds + plans["reg"].bn_folds
        assert bool(fd.bn_folds) == (name == "bcae")  # the only normed zoo member


class TestBitIdentity:
    """The core contract: fast reconstruction values == module-path values."""

    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name,spatial,kwargs", VARIANTS)
    def test_matches_module_path(self, name, spatial, kwargs, half):
        model = _model(name, spatial, kwargs)
        comp = BCAECompressor(model, half=half)
        fd = FastDecoder(model, half=half)
        for b in (1, 2, 3):
            c = comp.compress(_wedges(b, spatial, seed=b))
            assert _same(comp, fd, c)

    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_head_outputs_match(self, name, spatial, kwargs, half):
        """decode() reproduces both raw head outputs (sigmoid + identity /
        ``RegOutputTransform``), not just the combine, as ``(B, R, A, H)``."""

        model = _model(name, spatial, kwargs)
        comp = BCAECompressor(model, half=half)
        fd = FastDecoder(model, half=half)
        c = comp.compress(_wedges(4, spatial))
        seg_ref, reg_ref = _module_decode(model, c.codes_view(), half)
        seg, reg = fd.decode(c.codes_view())
        assert seg.shape == seg_ref.shape == (4,) + spatial[:2] + seg.shape[-1:]
        assert np.array_equal(seg_ref, np.asarray(seg))
        assert np.array_equal(reg_ref, np.asarray(reg))

    # See test_fast_encode: the BN-fold probe's grid-step metric warns on a
    # saturated reference at compile time.
    @pytest.mark.filterwarnings("ignore:overflow encountered in spacing")
    @pytest.mark.parametrize("scale", [40.0, 400.0])
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_fp16_saturation_paths(self, name, spatial, kwargs, scale):
        """Huge weights push activations past ±65504: the elided clip must
        re-engage and still match quantize_fp16's saturate-then-cast."""

        model = _model(name, spatial, kwargs)
        for p in (*model.seg_decoder.parameters(), *model.reg_decoder.parameters()):
            p.data *= scale
        comp = BCAECompressor(model)
        c = comp.compress(_wedges(3, spatial))
        assert _same(comp, FastDecoder(model), c)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_nonstandard_threshold(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        model.threshold = 0.31
        comp = BCAECompressor(model)
        c = comp.compress(_wedges(2, spatial))
        assert _same(comp, FastDecoder(model), c)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_batch_size_change_reuses_instance(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        comp = BCAECompressor(model)
        fd = FastDecoder(model)
        for b in (3, 1, 4, 3):
            assert _same(comp, fd, comp.compress(_wedges(b, spatial, seed=b)))


class TestChunkedSites:
    def test_sites_span_oracle_chunks_and_reference_runs_them(self):
        """The last row of :data:`FAMILIES` has sites spanning several
        chunks of the reference contraction, the last chunk narrower, and
        every ``reference`` site (on this host, both heads' last sites)
        runs on slot 0 exactly the oracle's chunk partition."""

        name, spatial, kwargs = FAMILIES[-1].values
        comp = BCAECompressor(_model(name, spatial, kwargs))
        comp.decompress_into(comp.compress_into(_wedges(1, spatial)))
        plans = [comp._fast_encoder().plan, *comp._fast_decoder().plans.values()]
        spans = []
        for plan in plans:
            for g in plan.plan_stats()["gemms"].values():
                ow = g["m"] // sum(g["slot_rows"])
                chunk = min(gemm_chunk_rows(g["K"], ow), g["m"] // ow)
                spans.append(g["m"] > chunk * ow and g["m"] % (chunk * ow))
                if g["formulation"] == "reference":
                    assert (g["threads"], g["rows_per_panel"], g["panels"]) == (
                        1, chunk, -(-g["m"] // (chunk * ow)))
        assert any(spans[:len(plans[0].plan_stats()["gemms"])])  # encoder
        assert any(spans)


class TestSigmoidHead:
    def test_every_fp16_pattern_bit_exact(self):
        """The two-buffer head replica equals ``Tensor.sigmoid`` on raw bits
        for every fp16 value widened to fp32 (NaNs, denormals, ±65504)
        plus ±0 and ±inf, in both sign branches."""

        patterns = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
        x = np.concatenate([
            patterns.view(np.float16).astype(np.float32),
            np.array([0.0, -0.0, np.inf, -np.inf], np.float32),
        ])
        plan = CompiledStagePlan([nn.Conv2d(1, 1, 1), nn.Sigmoid()])
        got = plan._sigmoid(("head", 1), x)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = Tensor(x).sigmoid().data
        assert ref.dtype == got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))
        # Two fp32 buffers and the sign mask — no third stream.
        assert plan.workspace_bytes == x.size * (4 + 4 + 1)


class TestWorkspace:
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_buffers_are_reused(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        fd = FastDecoder(model)
        c = BCAECompressor(model).compress(_wedges(4, spatial))
        fd.decompress(c.codes_view(), c.original_horizontal)
        footprint = fd.workspace_bytes
        assert footprint > 0
        fd.decompress(c.codes_view(), c.original_horizontal)
        assert fd.workspace_bytes == footprint  # steady state: no growth

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_outputs_are_views_of_reused_buffers(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        fd = FastDecoder(model)
        c = BCAECompressor(model).compress(_wedges(2, spatial))
        a = fd.decompress(c.codes_view(), c.original_horizontal)
        b = fd.decompress(c.codes_view(), c.original_horizontal)
        assert np.shares_memory(a, b)  # documented: copy before the next call
        assert a.base is not None and a.shape == (2,) + spatial
        seg, reg = fd.decode(c.codes_view())
        assert seg.base is not None and reg.base is not None  # zero-copy

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_heads_share_one_workspace(self, name, spatial, kwargs):
        """The two structurally identical head plans reuse one buffer set —
        the decode footprint must stay well under two independent plans."""

        model = _model(name, spatial, kwargs)
        fd = FastDecoder(model)
        c = BCAECompressor(model).compress(_wedges(2, spatial))
        fd.decompress(c.codes_view(), c.original_horizontal)
        assert fd.workspace_bytes < 2 * _single_head_bytes(model, c.codes_view())


class TestCodeGeometryErrors:
    """Codes the decoders cannot take raise one ``ValueError`` naming the
    expected ``(C, …)`` — at the parent commit they died inside ``np.dot``."""

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_wrong_channels_and_rank(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        comp = BCAECompressor(model)
        fd = FastDecoder(model)
        c = comp.compress(_wedges(1, spatial))
        good = np.array(fd.decompress(c.codes_view(), c.original_horizontal))
        footprint = fd.workspace_bytes
        codes = c.codes()
        channels = codes.shape[1]
        for bad in (codes[:, : channels // 2], codes[0], codes[:, :, None]):
            for call in (lambda: fd.decode(bad),
                         lambda: fd.decompress(bad, c.original_horizontal)):
                with pytest.raises(ValueError, match=f"C={channels}"):
                    call()
        assert fd.workspace_bytes == footprint
        assert np.array_equal(
            good, fd.decompress(c.codes_view(), c.original_horizontal))

    def test_decompress_into_reports_the_geometry(self):
        """Through the compressor: a payload header with the wrong code shape."""

        import dataclasses

        spatial = (4, 16, 22)
        comp = BCAECompressor(_model("bcae_pp", spatial, {}))
        c = comp.compress(_wedges(1, spatial))
        halved = dataclasses.replace(
            c, code_shape=(c.code_shape[0] // 2, 2) + tuple(c.code_shape[1:]))
        with pytest.raises(ValueError, match="do not fit this model"):
            comp.decompress_into(halved)


def _single_head_bytes(model, codes) -> int:
    plan = CompiledStagePlan(_head_stages(model.seg_decoder))
    canvas, interior = plan.input_canvas(codes.shape[1], codes.shape[2:])
    for code in codes:
        np.copyto(interior, code)
        plan.run(canvas, codes.shape[2:], 65504.0)
    return plan.workspace_bytes
