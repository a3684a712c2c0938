"""Property-based tests of the core models and compressor (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import BCAE2D, MODEL_NAMES, BCAECompressor, build_model
from repro.nn import Tensor

_SETTINGS = dict(max_examples=10, deadline=None)


@pytest.fixture(scope="module")
def tiny_model():
    return build_model("bcae_2d", wedge_spatial=(16, 24, 30), m=2, n=2, d=2, seed=0)


class TestModelProperties:
    @settings(**_SETTINGS)
    @given(
        m=st.integers(1, 5),
        extra_n=st.integers(0, 4),
        d=st.integers(1, 2),
    )
    def test_any_mnd_roundtrips_shapes(self, m, extra_n, d):
        """Every BCAE-2D(m, n, d) with n ≥ d, m ≥ d round-trips shapes."""

        if d > m:
            return
        n = d + extra_n
        nn.init.seed(0)
        model = BCAE2D(m=m, n=n, d=d)
        x = Tensor(np.zeros((1, 16, 8 * 2**d, 8 * 2**d), dtype=np.float32))
        with nn.no_grad():
            out = model(x)
        assert out.seg.shape == x.shape
        assert out.reg.shape == x.shape
        assert out.code.shape[1] == 32

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_seg_outputs_are_probabilities(self, seed, tiny_model):
        x = Tensor(
            np.random.default_rng(seed).uniform(0, 10, size=(1, 16, 24, 32)).astype(np.float32)
        )
        with nn.no_grad():
            out = tiny_model(x)
        assert out.seg.data.min() >= 0.0
        assert out.seg.data.max() <= 1.0

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1), threshold=st.floats(0.1, 0.9))
    def test_reconstruction_support_matches_mask(self, seed, threshold, tiny_model):
        """ṽ is nonzero exactly where the mask fires and v̂ ≠ 0."""

        x = Tensor(
            np.random.default_rng(seed).uniform(0, 10, size=(1, 16, 24, 32)).astype(np.float32)
        )
        with nn.no_grad():
            out = tiny_model(x)
        recon = out.reconstruction(threshold)
        mask = out.seg.data > threshold
        assert np.all(recon[~mask] == 0.0)

    @settings(**_SETTINGS)
    @given(scale=st.floats(0.1, 10.0))
    def test_encoder_deterministic(self, scale, tiny_model):
        x = Tensor(np.full((1, 16, 24, 32), scale, dtype=np.float32))
        with nn.no_grad():
            a = tiny_model.encode(x).data
            b = tiny_model.encode(x).data
        np.testing.assert_array_equal(a, b)


class TestCompressorProperties:
    @settings(**_SETTINGS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        batch=st.integers(1, 3),
    )
    def test_roundtrip_shape_for_any_batch(self, seed, batch, tiny_model):
        comp = BCAECompressor(tiny_model)
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1024, size=(batch, 16, 24, 30)).astype(np.uint16)
        raw[raw < 700] = 0
        recon, compressed = comp.roundtrip(raw)
        assert recon.shape == raw.shape
        assert compressed.n_wedges == batch
        assert compressed.nbytes == batch * int(np.prod(compressed.code_shape)) * 2

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_payload_codes_roundtrip_bitexact(self, seed, tiny_model):
        """bytes → fp16 array → bytes is the identity."""

        comp = BCAECompressor(tiny_model)
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1024, size=(2, 16, 24, 30)).astype(np.uint16)
        compressed = comp.compress(raw)
        assert compressed.codes().tobytes() == compressed.payload

    def test_compression_ratio_independent_of_content(self, tiny_model):
        """The ratio is structural — a property the paper relies on (§3.1)."""

        comp = BCAECompressor(tiny_model)
        assert comp.compression_ratio((16, 24, 30)) == comp.compression_ratio((16, 24, 30))


class TestBatchInvariance:
    """Payload → reconstruction bytes must not depend on batch composition.

    The encoder-side property (payload invariance) is pinned in
    test_compressor.py; these extend it through the decoder stacks —
    Upsample2d + decoder ResBlock2d chains — and the compiled fast-decode
    path, across random (n, d) decoder architectures.
    """

    @settings(**_SETTINGS)
    @given(
        seed=st.integers(0, 2**31 - 1),
        extra_n=st.integers(0, 2),
        d=st.integers(0, 2),
        batch=st.integers(2, 4),
    )
    def test_decode_invariant_over_batch_composition(self, seed, extra_n, d, batch):
        nn.init.seed(7)
        model = BCAE2D(m=max(d, 1), n=max(d + extra_n, 1), d=d)
        comp = BCAECompressor(model)
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1024, size=(batch, 16, 16, 16)).astype(np.uint16)
        raw[raw < 600] = 0
        singles = [comp.compress(w) for w in raw]
        ref = np.concatenate([comp.decompress(c) for c in singles])
        batched = comp.compress(raw)
        # Module path, batched == singles...
        np.testing.assert_array_equal(comp.decompress(batched), ref)
        # ...and the compiled fast path, batched and single-wedge.
        np.testing.assert_array_equal(np.asarray(comp.decompress_into(batched)), ref)
        # np.array copies: decompress_into returns a reused workspace view.
        fast_singles = np.concatenate(
            [np.array(comp.decompress_into(c)) for c in singles]
        )
        np.testing.assert_array_equal(fast_singles, ref)


class TestBatchInvariance3D:
    """The fast paths inherit the batch-composition contract.

    Every zoo model — the 3D BCAE++/HT/BCAE and BCAE-2D — compiles through
    the same stage-plan engine, which runs one wedge per plan run, so
    payload bytes and reconstruction values must be invariant to how
    wedges are batched — through ``compress_into`` / ``decompress_into``
    and the archive round trip, in both precision modes.
    """

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize("batch", [1, 2, 4])
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_fast_paths_invariant_over_batch_composition(
        self, seed, batch, name, half
    ):
        kwargs = dict(m=2, n=2, d=2) if name == "bcae_2d" else {}
        model = build_model(name, wedge_spatial=(8, 16, 14), seed=3, **kwargs)
        # eval(): the original BCAE's BatchNorm must run from running
        # statistics for payloads to be batch-composition-free at all.
        model.eval()
        comp = BCAECompressor(model, half=half)
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1024, size=(batch, 8, 16, 14)).astype(np.uint16)
        raw[raw < 600] = 0
        # Module path, one wedge at a time — the reference composition.
        singles = [comp.compress(w) for w in raw]
        ref = np.concatenate([comp.decompress(c) for c in singles])
        # Fast encode: batched payload bytes == concatenated single bytes,
        # from the module path and from the fast path alike.
        batched = comp.compress_into(raw)
        assert bytes(batched.payload) == b"".join(c.payload for c in singles)
        assert bytes(batched.payload) == b"".join(
            bytes(comp.compress_into(w).payload) for w in raw)
        # Fast decode, batched and single-wedge, == module reference.
        np.testing.assert_array_equal(
            np.asarray(comp.decompress_into(batched)), ref
        )
        fast_singles = np.concatenate(
            [np.array(comp.decompress_into(c)) for c in singles]
        )
        np.testing.assert_array_equal(fast_singles, ref)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), half=st.booleans())
    def test_3d_archive_roundtrip_bitexact(self, seed, half, tmp_path_factory):
        """compress_into → io.codes archive → decompress_into, bit for bit."""

        from repro.io.codes import load_compressed, save_compressed

        model = build_model("bcae_ht", wedge_spatial=(8, 16, 14), seed=3)
        comp = BCAECompressor(model, half=half)
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 1024, size=(2, 8, 16, 14)).astype(np.uint16)
        raw[raw < 600] = 0
        compressed = comp.compress_into(raw)
        path = tmp_path_factory.mktemp("arch") / "codes.npz"
        save_compressed(compressed, path, model_name="bcae_ht")
        loaded, name = load_compressed(path)
        assert name == "bcae_ht"
        assert bytes(loaded.payload) == bytes(compressed.payload)
        np.testing.assert_array_equal(
            np.asarray(comp.decompress_into(loaded)), comp.decompress(loaded)
        )


class TestNoFallback3D:
    """Regression: **no model** takes the module-graph fallback.

    Since the BatchNorm fold/affine stages landed, every zoo variant — the
    original BCAE included — must route ``compress_into`` /
    ``decompress_into`` through the compiled stage-plan engine once the
    model is in eval mode.  Training-mode BatchNorm is the one legitimate
    fallback left (batch statistics are not a compilable graph).
    """

    @pytest.mark.parametrize("name", ["bcae_ht", "bcae_pp", "bcae", "bcae_2d"])
    def test_compress_and_decompress_take_fast_path(self, name):
        kwargs = dict(m=2, n=2, d=2) if name == "bcae_2d" else {}
        model = build_model(name, wedge_spatial=(8, 16, 14), seed=0, **kwargs)
        model.eval()
        comp = BCAECompressor(model)
        raw = np.zeros((1, 8, 16, 14), dtype=np.uint16)
        comp.compress_into(raw)
        assert comp._fast is not None, f"{name} compress_into fell back"
        comp.decompress_into(comp.compress(raw))
        assert comp._fast_dec is not None, f"{name} decompress_into fell back"

    def test_training_mode_batchnorm_falls_back(self):
        """Training-mode BN depends on batch statistics — module path only,
        and the compiled path re-engages after ``eval()``."""

        model = build_model("bcae", wedge_spatial=(8, 16, 14), seed=0)
        comp = BCAECompressor(model)
        raw = np.zeros((1, 8, 16, 14), dtype=np.uint16)
        comp.compress_into(raw)
        comp.decompress_into(comp.compress(raw))
        assert comp._fast is None and comp._fast_dec is None
        model.eval()
        comp.compress_into(raw)
        comp.decompress_into(comp.compress(raw))
        assert comp._fast is not None and comp._fast_dec is not None


class TestFailureModes:
    def test_wrong_wedge_rank_raises(self, tiny_model):
        comp = BCAECompressor(tiny_model)
        with pytest.raises(Exception):
            comp.compress(np.zeros((2, 2), dtype=np.uint16))

    def test_truncated_payload_fails_loudly(self, tiny_model):
        comp = BCAECompressor(tiny_model)
        raw = np.zeros((1, 16, 24, 30), dtype=np.uint16)
        compressed = comp.compress(raw)
        import dataclasses

        corrupted = dataclasses.replace(compressed, payload=compressed.payload[:-8])
        with pytest.raises(ValueError):
            comp.decompress(corrupted)

    def test_unknown_model_name(self):
        with pytest.raises(ValueError):
            build_model("bcae_xxl")
