"""BatchNorm on the compiled fast path: vocabulary, folding, bit-identity.

The original BCAE (arXiv:2111.05423) keeps BatchNorm in every residual
block; eval-mode BatchNorm is a fixed per-channel affine, so the stage-plan
engine compiles it — folded into an adjacent convolution where the
calibration probe proves bit-equality, as an exact affine ``bnorm`` stage
everywhere else.  These tests pin down:

* the vocabulary rules (eval-only, fp32-only, placement),
* the fold decisions and their recorded reasons,
* bit-identity with the eval-mode module graph across both precision
  modes, batch sizes, and the archive round trip.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import BCAECompressor, build_model
from repro.core.fast_decode import make_fast_decoder, supports_fast_decode
from repro.core.fast_encode import make_fast_encoder, supports_fast_encode
from repro.core.fast_plan import (
    CompiledStagePlan,
    fold_batchnorm,
    stage_kinds,
)
from repro.core.fast_plan import (
    _BNSpec,
    _ConvSpec,
    _bn_fold_matches,
    _try_fold_bn_conv,
)
from repro.nn import Tensor
from repro.nn.amp import quantize_fp16
from repro.nn.convolution import conv_forward
from repro.nn.norm import BatchNorm2d, BatchNormNd


def _randomize_bn(model, seed=1):
    """Non-trivial running statistics and affine parameters everywhere."""

    rng = np.random.default_rng(seed)
    for _name, m in model.named_modules():
        if isinstance(m, BatchNormNd):
            c = m.num_features
            m.set_buffer("running_mean", rng.normal(0, 0.5, c).astype(np.float32))
            m.set_buffer("running_var", (0.5 + rng.random(c)).astype(np.float32))
            m.weight.data[:] = rng.normal(1, 0.2, c).astype(np.float32)
            m.bias.data[:] = rng.normal(0, 0.2, c).astype(np.float32)


def _bcae(spatial=(8, 16, 14), seed=0, randomize=True):
    model = build_model("bcae", wedge_spatial=spatial, seed=seed)
    model.eval()
    if randomize:
        _randomize_bn(model)
    return model


def _wedges(n, spatial, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1024, size=(n,) + spatial).astype(np.uint16)
    w[w < 500] = 0
    return w


class TestVocabulary:
    def test_standalone_bnorm_classified(self):
        bn = BatchNorm2d(4)
        bn.eval()
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 1))
        assert stage_kinds(stages) == ["conv", "bnorm", "conv"]

    def test_training_bnorm_rejected(self):
        bn = BatchNorm2d(4)  # Module default: training mode
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 1))
        assert stage_kinds(stages) is None

    def test_trailing_bnorm_rejected(self):
        """A trailing affine would return a quantized store of an
        unquantized module output — outside the plan contract."""

        bn = BatchNorm2d(4)
        bn.eval()
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn)
        assert stage_kinds(stages) is None

    def test_bnorm_before_head_rejected(self):
        bn = BatchNorm2d(4)
        bn.eval()
        stages = nn.Sequential(nn.Conv2d(3, 4, 1), bn, nn.Sigmoid())
        assert stage_kinds(stages) is None

    def test_non_fp32_bnorm_rejected(self):
        bn = BatchNorm2d(4)
        bn.eval()
        bn.set_buffer("running_mean", np.zeros(4, dtype=np.float64))
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 1))
        assert stage_kinds(stages) is None

    def test_normed_blocks_classified(self):
        model = _bcae()
        assert stage_kinds(model.encoder.blocks) is not None
        assert supports_fast_encode(model)
        assert supports_fast_decode(model)

    def test_entry_rule_requires_conv_like_first(self):
        """Wrapper-prepared canvases stand in for the first conv's entry
        quantize — a stack leading with a norm/pool consumes the
        unquantized stream in the module path and must not compile."""

        from repro.core.fast_plan import DECODE_ENTRY_KINDS, entry_kinds_ok

        allowed = {"conv", "pool", "up", "res", "bnorm", "identity"}
        assert entry_kinds_ok(["conv", "pool"], allowed)
        assert entry_kinds_ok(["identity", "res", "conv"], allowed)
        assert not entry_kinds_ok(["pool", "conv"], allowed)
        assert not entry_kinds_ok(["bnorm", "conv"], allowed)
        assert not entry_kinds_ok(["identity"], allowed)
        assert not entry_kinds_ok(None, allowed)
        # Decoder entry prep is a clip of grid values: leading up/pool are
        # exact there (the BCAE-2D decoders start with an upsample) — but
        # a leading bnorm still never compiles.
        assert entry_kinds_ok(["up", "res", "conv"], allowed,
                              entry=DECODE_ENTRY_KINDS)
        assert not entry_kinds_ok(["bnorm", "conv"], allowed,
                                  entry=DECODE_ENTRY_KINDS)


class TestFoldDecisions:
    def test_identity_affine_folds_into_following_conv(self):
        """eps=0 with default statistics makes the affine the exact
        identity — the one fold the calibration probe can prove."""

        bn = BatchNorm2d(4, eps=0.0)
        bn.eval()
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 3, padding=1))
        for half in (True, False):
            plan = CompiledStagePlan(stages, half=half)
            (rec,) = plan.bn_folds
            assert rec["folded"] and rec["site"] == "bnorm->conv"

    def test_nontrivial_affine_keeps_stage_with_reason(self):
        """General statistics reassociate fp32 rounding — the probe must
        reject the fold and the record must say why."""

        bn = BatchNorm2d(4)
        bn.eval()
        rng = np.random.default_rng(3)
        bn.set_buffer("running_mean", rng.normal(0, 1, 4).astype(np.float32))
        bn.set_buffer("running_var", (0.3 + rng.random(4)).astype(np.float32))
        bn.weight.data[:] = rng.normal(1, 0.3, 4).astype(np.float32)
        bn.bias.data[:] = rng.normal(0, 0.3, 4).astype(np.float32)
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 3, padding=1))
        plan = CompiledStagePlan(stages, half=True)
        (rec,) = plan.bn_folds
        assert not rec["folded"]
        assert "probe" in rec["reason"] or "reassociates" in rec["reason"]

    @pytest.mark.parametrize("half", [True, False])
    def test_fold_probe_is_a_predicate(self, half):
        """The probe answers bit-equal or not; the fold keeps the fused
        spec only on ``True`` and otherwise returns ``None`` with a reason
        — there is no measured-deviation answer to relax against."""

        nn.init.seed(6)
        spec = _ConvSpec.from_module(nn.Conv2d(4, 2, 3, padding=1), half)
        exact = BatchNorm2d(4, eps=0.0)
        general = BatchNorm2d(4)
        rng = np.random.default_rng(3)
        general.set_buffer("running_mean",
                           rng.normal(0, 1, 4).astype(np.float32))
        general.set_buffer("running_var",
                           (0.3 + rng.random(4)).astype(np.float32))
        general.weight.data[:] = rng.normal(1, 0.3, 4).astype(np.float32)
        general.bias.data[:] = rng.normal(0, 0.3, 4).astype(np.float32)
        for bn, want in ((exact, True), (general, False)):
            bn.eval()
            bn_spec = _BNSpec.from_module(bn)
            w_f, b_f = fold_batchnorm(bn_spec, spec.w_raw, spec.bias,
                                      "bn_conv")
            candidate = _ConvSpec._from_weight(w_f, b_f, spec.kernel,
                                               spec.stride, spec.padding)
            verdict = _bn_fold_matches(bn_spec, spec, candidate, half)
            assert verdict is want
            folded, reason = _try_fold_bn_conv(bn_spec, spec, half)
            assert (folded is not None) is want
            assert reason.startswith("folded" if want else "kept affine")

    def test_block_norms_recorded_per_site(self):
        """Every BatchNorm in a residual block gets a per-stage record:
        norm1 is the fold candidate, norm2/norm3 have no adjacent conv."""

        model = _bcae()
        enc = make_fast_encoder(model)
        sites = {r["site"] for r in enc.bn_folds}
        assert sites == {"norm1->inner-conv", "norm2", "norm3"}
        assert all("reason" in r for r in enc.bn_folds)
        dec = make_fast_decoder(model)
        assert len(dec.bn_folds) == 2 * len(enc.bn_folds)

    def test_fold_algebra_bn_conv(self):
        """γ/σ into weight columns, β−μγ/σ through the bias epilogue
        (valid algebra away from zero-padding borders)."""

        bn = BatchNorm2d(4)
        bn.eval()
        rng = np.random.default_rng(9)
        bn.set_buffer("running_mean", rng.normal(0, 1, 4).astype(np.float32))
        bn.set_buffer("running_var", (0.3 + rng.random(4)).astype(np.float32))
        bn.weight.data[:] = rng.normal(1, 0.3, 4).astype(np.float32)
        bn.bias.data[:] = rng.normal(0, 0.3, 4).astype(np.float32)
        spec = _BNSpec.from_module(bn)
        w = rng.normal(0, 1, (5, 4, 3, 3)).astype(np.float32)
        b = rng.normal(0, 1, 5).astype(np.float32)
        x = rng.normal(0, 1, (2, 4, 6, 6)).astype(np.float32)
        sh = (1, 4, 1, 1)
        bnx = ((x - spec.mean.reshape(sh)) * spec.inv_std.reshape(sh)
               ) * spec.gamma.reshape(sh) + spec.beta.reshape(sh)
        wf, bf = fold_batchnorm(spec, w, b, "bn_conv")
        pad0 = ((0, 0), (0, 0))
        np.testing.assert_allclose(
            conv_forward(x, wf, (1, 1), pad0, bias=bf),
            conv_forward(bnx, w, (1, 1), pad0, bias=b),
            rtol=1e-4, atol=1e-4,
        )

    def test_fold_algebra_conv_bn(self):
        """γ/σ into weight rows, b·s + t as the new bias."""

        bn = BatchNorm2d(4)
        bn.eval()
        rng = np.random.default_rng(11)
        bn.set_buffer("running_mean", rng.normal(0, 1, 4).astype(np.float32))
        bn.set_buffer("running_var", (0.3 + rng.random(4)).astype(np.float32))
        bn.weight.data[:] = rng.normal(1, 0.3, 4).astype(np.float32)
        bn.bias.data[:] = rng.normal(0, 0.3, 4).astype(np.float32)
        spec = _BNSpec.from_module(bn)
        w = rng.normal(0, 1, (4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(0, 1, 4).astype(np.float32)
        x = rng.normal(0, 1, (2, 3, 6, 6)).astype(np.float32)
        y = conv_forward(x, w, (1, 1), ((1, 1), (1, 1)), bias=b)
        sh = (1, 4, 1, 1)
        bny = ((y - spec.mean.reshape(sh)) * spec.inv_std.reshape(sh)
               ) * spec.gamma.reshape(sh) + spec.beta.reshape(sh)
        wf, bf = fold_batchnorm(spec, w, b, "conv_bn")
        np.testing.assert_allclose(
            conv_forward(x, wf, (1, 1), ((1, 1), (1, 1)), bias=bf),
            bny, rtol=1e-4, atol=1e-4,
        )

    def test_unknown_direction_raises(self):
        bn = BatchNorm2d(2)
        bn.eval()
        with pytest.raises(ValueError):
            fold_batchnorm(_BNSpec.from_module(bn),
                           np.zeros((2, 2, 1, 1), np.float32), None, "sideways")


class TestBitIdentityOriginalBCAE:
    """The contract: compiled original-BCAE == eval-mode module graph."""

    @pytest.mark.parametrize("half", [True, False])
    def test_encode_matches_module_path(self, half):
        model = _bcae()
        fe = make_fast_encoder(model, half=half)
        for b in (1, 2, 4):
            w = _wedges(b, (8, 16, 14), seed=b)
            x = np.log2(w.astype(np.float32) + 1.0)
            with nn.no_grad(), nn.amp.autocast(half):
                ref = model.encode(Tensor(x)).data.astype(np.float16)
            got = fe.encode(x, horizontal_target=model.encoder.spatial[-1])
            np.testing.assert_array_equal(ref, np.asarray(got))

    @pytest.mark.parametrize("half", [True, False])
    def test_decode_matches_module_path(self, half):
        model = _bcae()
        comp = BCAECompressor(model, half=half)
        fd = make_fast_decoder(model, half=half)
        for b in (1, 3):
            c = comp.compress(_wedges(b, (8, 16, 14), seed=b))
            with nn.no_grad(), nn.amp.autocast(half):
                seg_r, reg_r = model.decode(
                    Tensor(c.codes_view().astype(np.float32))
                )
            seg, reg = fd.decode(c.codes_view())
            np.testing.assert_array_equal(seg_r.data, np.asarray(seg))
            np.testing.assert_array_equal(reg_r.data, np.asarray(reg))

    @pytest.mark.parametrize("half", [True, False])
    def test_compressor_roundtrip_bitexact(self, half):
        """compress_into / decompress_into == the reference methods, and
        the archive round trip preserves every byte."""

        from repro.io.codes import load_compressed, save_compressed

        model = _bcae()
        comp = BCAECompressor(model, half=half)
        raw = _wedges(2, (8, 16, 14), seed=21)
        ref_payload = comp.compress(raw)
        fast_payload = comp.compress_into(raw)
        assert bytes(fast_payload.payload) == bytes(ref_payload.payload)
        np.testing.assert_array_equal(
            np.asarray(comp.decompress_into(ref_payload)),
            comp.decompress(ref_payload),
        )
        import tempfile, pathlib
        with tempfile.TemporaryDirectory() as td:
            path = pathlib.Path(td) / "codes.npz"
            save_compressed(fast_payload, path, model_name="bcae")
            loaded, name = load_compressed(path)
            assert name == "bcae"
            assert bytes(loaded.payload) == bytes(ref_payload.payload)
            np.testing.assert_array_equal(
                np.asarray(comp.decompress_into(loaded)),
                comp.decompress(ref_payload),
            )

    def test_folded_identity_norm1_stays_bitexact(self):
        """When norm1 provably folds into the inner conv (identity affine,
        eps=0), block outputs still match the module graph bit for bit."""

        model = build_model("bcae", wedge_spatial=(8, 16, 14), seed=0)
        model.eval()
        for _name, m in model.named_modules():
            if isinstance(m, BatchNormNd):
                m.eps = 0.0  # default stats: the affine is the identity
        fe = make_fast_encoder(model, half=True)
        assert any(r["folded"] for r in fe.bn_folds
                   if r["site"] == "norm1->inner-conv")
        w = _wedges(2, (8, 16, 14), seed=5)
        x = np.log2(w.astype(np.float32) + 1.0)
        with nn.no_grad(), nn.amp.autocast(True):
            ref = model.encode(Tensor(x)).data.astype(np.float16)
        got = fe.encode(x, horizontal_target=model.encoder.spatial[-1])
        np.testing.assert_array_equal(ref, np.asarray(got))


class TestStandalonePlan:
    @pytest.mark.parametrize("half", [True, False])
    def test_mid_stack_affine_bitexact(self, half):
        """conv → bnorm → conv → sigmoid through the raw plan API."""

        nn.init.seed(4)
        bn = BatchNorm2d(4)
        bn.eval()
        rng = np.random.default_rng(7)
        bn.set_buffer("running_mean", rng.normal(0, 1, 4).astype(np.float32))
        bn.set_buffer("running_var", (0.3 + rng.random(4)).astype(np.float32))
        bn.weight.data[:] = rng.normal(1, 0.3, 4).astype(np.float32)
        bn.bias.data[:] = rng.normal(0, 0.3, 4).astype(np.float32)
        stages = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), bn,
                               nn.Conv2d(4, 2, 3, padding=1), nn.Sigmoid())
        plan = CompiledStagePlan(stages, half=half)
        x = rng.normal(0, 2, (3, 3, 8, 8)).astype(np.float32)
        with nn.no_grad(), nn.amp.autocast(half):
            ref = stages(Tensor(x)).data
        canvas, interior = plan.input_canvas(3, 3, (8, 8))
        xin = quantize_fp16(x) if half else x
        np.copyto(interior, xin.transpose(1, 0, 2, 3))
        out = plan.run(canvas, (8, 8), float(np.abs(x).max()))
        np.testing.assert_array_equal(ref, out.transpose(1, 0, 2, 3))


class TestServingWiring:
    def test_services_eval_batchnorm_models(self):
        """The serving layer is inference-only: a training-mode BatchNorm
        model handed to a service must be eval()ed and served through the
        compiled engine, byte-identical to serial eval-mode compress."""

        from repro.serve import (
            DecompressionService,
            ServiceConfig,
            StreamingCompressionService,
        )

        model = build_model("bcae", wedge_spatial=(8, 16, 14), seed=0)
        _randomize_bn(model)
        assert model.encoder.blocks[0].norm1.training  # handed over training
        service = StreamingCompressionService(model, ServiceConfig(max_batch=2))
        assert not model.encoder.blocks[0].norm1.training  # eval()ed
        wedges = _wedges(4, (8, 16, 14), seed=2)
        payloads, _stats = service.run(iter(wedges))
        comp = BCAECompressor(model)
        assert comp._fast_encoder() is not None
        ref = b"".join(comp.compress(w).payload for w in wedges)
        assert b"".join(bytes(p.payload) for p in payloads) == ref

        dec = DecompressionService(model, ServiceConfig(max_batch=2))
        batches = [comp.compress(w) for w in wedges]
        recons, _stats = dec.run(batches)
        np.testing.assert_array_equal(
            np.concatenate(recons),
            np.concatenate([comp.decompress(c) for c in batches]),
        )
