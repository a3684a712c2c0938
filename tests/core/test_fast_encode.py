"""FastEncoder: bit-identity with the module path, workspace reuse and
wedge-geometry errors — every case runs on the 2D and the 3D families."""

import numpy as np
import pytest

from repro import nn
from repro.core import BCAECompressor, build_model
from repro.core.fast_encode import (
    FastEncoder,
    make_fast_encoder,
    supports_fast_encode,
)
from repro.core.fast_plan import CompiledStagePlan
from repro.tpc.transforms import log_transform, pad_horizontal

#: (zoo name, raw wedge shape, 2D constructor arguments) — one row per rank
#: and per BatchNorm / width variant; the wrapper under test is the same.
FAMILIES = [
    pytest.param("bcae_2d", (16, 24, 30), dict(m=2, n=2, d=2), id="bcae_2d"),
    pytest.param("bcae_pp", (4, 16, 22), {}, id="bcae_pp"),
    pytest.param("bcae_ht", (4, 16, 22), {}, id="bcae_ht"),
    pytest.param("bcae", (4, 16, 22), {}, id="bcae"),
]
#: 2D depth / pooling variants on top (no pooling at all, ``d < m``, an
#: input that is already a multiple of ``2**d``, the 41 → 48 padding), and
#: a geometry whose encoder sites span several chunks of the reference
#: contraction (``repro.nn.convolution.gemm_chunk_rows``), the last chunk
#: narrower.
VARIANTS = FAMILIES + [
    pytest.param("bcae_2d", (16, 24, 32), dict(m=4, n=3, d=3), id="bcae_2d-d3"),
    pytest.param("bcae_2d", (16, 24, 30), dict(m=3, n=2, d=1), id="bcae_2d-d1"),
    pytest.param("bcae_2d", (16, 24, 30), dict(m=1, n=1, d=0), id="bcae_2d-d0"),
    pytest.param("bcae_2d", (16, 48, 41), dict(m=3, n=3, d=3), id="bcae_2d-h41"),
    pytest.param("bcae_pp", (4, 48, 112), {}, id="bcae_pp-chunks"),
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


def _target(fe, spatial):
    """The padded horizontal length the model consumes for a raw wedge."""

    return fe.geometry.network_input(spatial)[1][-1]


def _payload(fe, wedges):
    """Fast-path bytes for raw wedges, padded inside the entry canvas."""

    target = _target(fe, wedges.shape[1:])
    return fe.encode(log_transform(wedges), horizontal_target=target).tobytes()


class TestSupports:
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_zoo_models_compile_to_the_one_wrapper(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        assert supports_fast_encode(model)
        assert supports_fast_encode(model.encoder)
        assert type(make_fast_encoder(model)) is FastEncoder
        assert type(make_fast_encoder(model.encoder)) is FastEncoder

    def test_batchnorm_bcae_supported_in_eval(self):
        """The original BCAE's BatchNorm compiles in eval mode only:
        training-mode statistics are batch-dependent, not a fixed graph."""

        model = build_model("bcae", wedge_spatial=(16, 24, 30), seed=0)
        assert not supports_fast_encode(model)  # training mode
        model.eval()
        assert supports_fast_encode(model)
        model.train()
        assert not supports_fast_encode(model)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_compile_rejects_unsupported(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        for not_an_encoder in (model.seg_decoder, nn.Sequential(), object()):
            assert not supports_fast_encode(not_an_encoder)
            with pytest.raises(TypeError):
                FastEncoder(not_an_encoder)

    def test_compile_rejects_training_mode_batchnorm(self):
        model = build_model("bcae", wedge_spatial=(8, 24, 30), seed=0)
        with pytest.raises(TypeError):
            FastEncoder(model.encoder)

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_plan_and_fold_exposure(self, name, spatial, kwargs):
        fe = make_fast_encoder(_model(name, spatial, kwargs))
        assert isinstance(fe.plan, CompiledStagePlan)
        assert fe.bn_folds == fe.plan.bn_folds
        assert bool(fe.bn_folds) == (name == "bcae")  # the only normed zoo member
        assert fe.plan.plan_stats()["stage_kinds"]


class TestBitIdentity:
    """The core contract: fast bytes == module-path bytes, always."""

    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name,spatial,kwargs", VARIANTS)
    def test_matches_module_path(self, name, spatial, kwargs, half):
        model = _model(name, spatial, kwargs)
        fe = FastEncoder(model.encoder, half=half)
        comp = BCAECompressor(model, half=half)
        for b in (1, 2, 5):
            w = _wedges(b, spatial, seed=b)
            assert _payload(fe, w) == comp.compress(w).payload

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_prepadded_input_needs_no_target(self, name, spatial, kwargs):
        """``H == target`` on the way in (what the e2e traced pass feeds)."""

        model = _model(name, spatial, kwargs)
        fe = make_fast_encoder(model)
        comp = BCAECompressor(model)
        w = _wedges(2, spatial)
        x = pad_horizontal(log_transform(w), _target(fe, spatial))
        assert fe.encode(x).tobytes() == comp.compress(w).payload

    def test_over_long_legal_2d_horizontal(self):
        """The 2D family takes any padded length on its ``2**d`` grid."""

        spatial = (16, 24, 30)
        model = _model("bcae_2d", spatial, dict(m=2, n=2, d=2))
        fe = make_fast_encoder(model)
        x = log_transform(_wedges(2, spatial))
        with nn.no_grad(), nn.amp.autocast(True):
            ref = model.encode(nn.Tensor(pad_horizontal(x, 64)))
        got = fe.encode(x, horizontal_target=64)
        assert got.shape == (2, 32, 6, 16)
        assert got.tobytes() == ref.data.astype(np.float16).tobytes()

    # The BN-fold calibration probe measures a saturated reference in grid
    # steps at fp16 max, where np.spacing itself overflows (compile time,
    # not the path under test).
    @pytest.mark.filterwarnings("ignore:overflow encountered in spacing")
    @pytest.mark.parametrize("scale", [40.0, 400.0])
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_fp16_saturation_paths(self, name, spatial, kwargs, scale):
        """Huge weights push activations past ±65504: the elided clip must
        re-engage and still match quantize_fp16's saturate-then-cast."""

        model = _model(name, spatial, kwargs)
        for p in model.encoder.parameters():
            p.data *= scale
        fe = FastEncoder(model.encoder, half=True)
        comp = BCAECompressor(model)
        w = _wedges(3, spatial)
        assert _payload(fe, w) == comp.compress(w).payload

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_batch_size_change_reuses_instance(self, name, spatial, kwargs):
        """One instance must serve varying micro-batch sizes correctly."""

        model = _model(name, spatial, kwargs)
        fe = FastEncoder(model.encoder, half=True)
        comp = BCAECompressor(model)
        for b in (4, 1, 7, 4):
            w = _wedges(b, spatial, seed=b)
            assert _payload(fe, w) == comp.compress(w).payload


class TestWorkspace:
    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_buffers_are_reused(self, name, spatial, kwargs):
        fe = make_fast_encoder(_model(name, spatial, kwargs))
        w = log_transform(_wedges(4, spatial))
        fe.encode(w, horizontal_target=_target(fe, spatial))
        footprint = fe.workspace_bytes
        assert footprint > 0
        fe.encode(w, horizontal_target=_target(fe, spatial))
        assert fe.workspace_bytes == footprint  # steady state: no growth

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_output_buffer_is_reused(self, name, spatial, kwargs):
        fe = make_fast_encoder(_model(name, spatial, kwargs))
        w = log_transform(_wedges(2, spatial))
        a = fe.encode(w, horizontal_target=_target(fe, spatial))
        b = fe.encode(w, horizontal_target=_target(fe, spatial))
        assert a is b  # documented: copy before the next call


class TestWedgeGeometryErrors:
    """A wedge the model cannot take raises one ``ValueError`` naming the
    expected geometry — from ``encode``, ``compress_into``, ``compress`` and
    ``code_shape_for`` alike, before any canvas is touched."""

    #: (bad raw wedge shape, what is wrong with it) per family.
    BAD = {
        "bcae_2d": [((12, 24, 30), "radial"), ((16, 26, 30), "azimuth % 4"),
                    ((16, 2, 30), "azimuth < 4")],
        "bcae_pp": [((5, 16, 22), "radial"), ((4, 24, 22), "azimuth"),
                    ((4, 16, 40), "horizontal > 32")],
    }

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES[:2])
    def test_every_entry_point_raises_the_same_message(self, name, spatial, kwargs):
        model = _model(name, spatial, kwargs)
        comp = BCAECompressor(model)
        fe = make_fast_encoder(model)
        good = comp.compress_into(_wedges(1, spatial))  # canvases exist now
        footprint = fe.workspace_bytes
        for bad, _why in self.BAD[name]:
            w = np.ones((1,) + bad, np.uint16)
            messages = set()
            for call in (lambda: comp.compress_into(w),
                         lambda: comp.compress(w),
                         lambda: comp.code_shape_for(bad),
                         lambda: comp.compression_ratio(bad)):
                with pytest.raises(ValueError, match="do not fit this model") as err:
                    call()
                messages.add(str(err.value))
            assert len(messages) == 1, messages
            assert f"R={spatial[0]}" in messages.pop()
            with pytest.raises(ValueError, match="do not fit this model"):
                fe.encode(log_transform(w), horizontal_target=32)
        assert fe.workspace_bytes == footprint
        again = comp.compress_into(_wedges(1, spatial))
        assert bytes(again.payload) == bytes(good.payload)

    def test_wrong_radial_on_3d_raises_instead_of_returning(self):
        """The parent commit *returned* a wrong-shape ``(8, 5, 1, 2)`` record
        here although ``code_shape_for`` raised for the same wedge."""

        comp = BCAECompressor(build_model("bcae_pp", (4, 16, 20), seed=0))
        with pytest.raises(ValueError, match=r"R=4, A=16, H ≤ 32"):
            comp.compress_into(np.ones((1, 5, 16, 20), np.uint16))
        with pytest.raises(ValueError, match=r"R=4, A=16, H ≤ 32"):
            comp.code_shape_for((5, 16, 20))

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES[:3])
    def test_unpadded_horizontal_without_target(self, name, spatial, kwargs):
        """30 is neither on the 2D ``2**d`` grid nor the padded 3D input
        length (the original BCAE alone takes the raw horizontal)."""

        fe = make_fast_encoder(_model(name, spatial, kwargs))
        with pytest.raises(ValueError, match="do not fit this model"):
            fe.encode(np.ones((1,) + spatial, np.float32))

    @pytest.mark.parametrize("name,spatial,kwargs", FAMILIES)
    def test_bad_targets_and_ranks(self, name, spatial, kwargs):
        fe = make_fast_encoder(_model(name, spatial, kwargs))
        x = np.ones((1,) + spatial, np.float32)
        with pytest.raises(ValueError):
            fe.encode(x, horizontal_target=spatial[-1] - 6)  # shorter than H
        with pytest.raises(ValueError):
            fe.encode(x[0])  # not batched
        if name != "bcae_2d":
            with pytest.raises(ValueError, match="do not fit this model"):
                fe.encode(x, horizontal_target=64)  # 3D input length is fixed
