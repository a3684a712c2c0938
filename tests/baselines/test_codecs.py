"""The three learning-free codecs: guarantees and sparse-data behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    MGARDLikeCodec,
    SZLikeCodec,
    ZFPLikeCodec,
    evaluate_codec,
    fp16_ratio,
)

_SETTINGS = dict(max_examples=15, deadline=None)


def _sparse_field(rng, shape=(8, 16, 20), occupancy=0.1):
    """TPC-like sparse field: zeros plus values in [6, 10]."""

    x = np.zeros(shape, dtype=np.float32)
    mask = rng.random(shape) < occupancy
    x[mask] = rng.uniform(6.03, 10.0, size=int(mask.sum())).astype(np.float32)
    return x


class TestSZLike:
    def test_roundtrip_shape_dtype(self, rng):
        x = _sparse_field(rng)
        codec = SZLikeCodec(0.25)
        y = codec.decompress(codec.compress(x))
        assert y.shape == x.shape and y.dtype == np.float32

    @settings(**_SETTINGS)
    @given(
        eb=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_error_bound_property(self, eb, seed):
        """SZ's contract: every voxel within the absolute bound."""

        x = _sparse_field(np.random.default_rng(seed), shape=(6, 10, 12))
        codec = SZLikeCodec(eb)
        y = codec.decompress(codec.compress(x))
        assert float(np.abs(y - x).max()) <= eb * (1 + 1e-5)

    def test_sparser_data_compresses_better(self, rng):
        codec = SZLikeCodec(0.25)
        sparse = _sparse_field(rng, occupancy=0.02)
        dense = _sparse_field(rng, occupancy=0.5)
        assert len(codec.compress(sparse)) < len(codec.compress(dense))

    def test_larger_bound_smaller_payload(self, rng):
        x = _sparse_field(rng)
        assert len(SZLikeCodec(1.0).compress(x)) <= len(SZLikeCodec(0.1).compress(x))

    def test_all_zero_input(self):
        x = np.zeros((4, 8, 8), dtype=np.float32)
        codec = SZLikeCodec(0.25)
        y = codec.decompress(codec.compress(x))
        np.testing.assert_array_equal(y, x)

    def test_escape_path_for_extreme_values(self, rng):
        """Values far outside the symbol alphabet go through escapes."""

        x = _sparse_field(rng, shape=(4, 6, 8))
        x[0, 0, 0] = 1e7  # forces |residual| >= 2^15 at eb small
        codec = SZLikeCodec(0.01)
        y = codec.decompress(codec.compress(x))
        assert abs(y[0, 0, 0] - 1e7) <= 0.01 * (1 + 1e-5) * 1e7 or abs(y[0, 0, 0] - 1e7) <= 1.0

    def test_2d_input_supported(self, rng):
        x = _sparse_field(rng, shape=(32, 40))
        codec = SZLikeCodec(0.5)
        y = codec.decompress(codec.compress(x))
        assert float(np.abs(y - x).max()) <= 0.5 * (1 + 1e-5)


class TestZFPLike:
    def test_fixed_rate_exact(self, rng):
        """ZFP's contract: payload size known a priori from the rate."""

        x = _sparse_field(rng, shape=(8, 12, 16))
        codec = ZFPLikeCodec(rate_bits=2)
        payload = codec.compress(x)
        n_blocks = (8 // 4) * (12 // 4) * (16 // 4)
        header = 1 + 3 * 4 + 1 + 8
        expected = header + n_blocks * 2 + (n_blocks * 64 * 2 + 7) // 8
        assert len(payload) == expected

    def test_rate_independent_of_content(self, rng):
        codec = ZFPLikeCodec(rate_bits=3)
        a = codec.compress(_sparse_field(rng, occupancy=0.01))
        b = codec.compress(_sparse_field(rng, occupancy=0.9))
        assert len(a) == len(b)  # fixed-rate: content cannot change the size

    def test_higher_rate_lower_error(self, rng):
        x = _sparse_field(rng)
        errs = []
        for rate in (1, 4, 8):
            codec = ZFPLikeCodec(rate)
            y = codec.decompress(codec.compress(x))
            errs.append(float(np.abs(y - x).mean()))
        assert errs[0] > errs[1] > errs[2]

    def test_roundtrip_nonmultiple_of_4(self, rng):
        x = _sparse_field(rng, shape=(5, 9, 11))
        codec = ZFPLikeCodec(4)
        y = codec.decompress(codec.compress(x))
        assert y.shape == x.shape

    def test_smooth_data_reconstructs_well(self):
        """On the smooth fields ZFP targets, low rates already do fine."""

        g = np.indices((8, 8, 8)).sum(axis=0).astype(np.float32) / 21.0
        codec = ZFPLikeCodec(8)
        y = codec.decompress(codec.compress(g))
        # fp16 block scales cap the precision of the 8-bit-coefficient path.
        assert float(np.abs(y - g).mean()) < 0.02

    def test_sparse_data_rings(self, rng):
        """The paper's §1 argument: sharp sparse fields defeat block codecs."""

        x = _sparse_field(rng, occupancy=0.1)
        codec = ZFPLikeCodec(2)
        y = codec.decompress(codec.compress(x))
        zero_sites = x == 0
        # Reconstruction leaks energy into empty voxels (ringing).
        assert float(np.abs(y[zero_sites]).max()) > 0.5

    @pytest.mark.parametrize("rate", [1, 2, 7, 16])
    def test_payload_unchanged_by_the_fixed_width_packer(
            self, rng, rate, monkeypatch):
        """ZFP packs through ``pack_fixed`` now; the stream must be the one
        the variable-length packer produced."""

        from repro.baselines import pack_codes, zfplike

        x = _sparse_field(rng, shape=(5, 9, 14))
        new = ZFPLikeCodec(rate).compress(x)
        monkeypatch.setattr(
            zfplike, "pack_fixed",
            lambda codes, width: pack_codes(
                codes.ravel(), np.full(codes.size, width))[0])
        assert ZFPLikeCodec(rate).compress(x) == new

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ZFPLikeCodec(0)

    def test_expected_ratio_formula(self):
        codec = ZFPLikeCodec(2)
        assert codec.expected_ratio() == pytest.approx(16.0 / 2.25)


class TestMGARDLike:
    @settings(**_SETTINGS)
    @given(
        eb=st.sampled_from([0.25, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_error_bound_property(self, eb, seed):
        """The telescoping budgets must respect the global L∞ bound."""

        x = _sparse_field(np.random.default_rng(seed), shape=(8, 12, 16))
        codec = MGARDLikeCodec(eb)
        y = codec.decompress(codec.compress(x))
        assert float(np.abs(y - x).max()) <= eb * (1 + 1e-4)

    def test_roundtrip_odd_shapes(self, rng):
        x = _sparse_field(rng, shape=(9, 13, 17))
        codec = MGARDLikeCodec(0.5)
        y = codec.decompress(codec.compress(x))
        assert y.shape == x.shape
        assert float(np.abs(y - x).max()) <= 0.5 * (1 + 1e-4)

    def test_level_planning_respects_min_size(self):
        deep = MGARDLikeCodec(0.5, n_levels=10)
        assert deep._plan_levels((8, 8, 8)) <= 1  # coarsest grid keeps >= 4/axis
        assert deep._plan_levels((64, 64, 64)) == 4
        capped = MGARDLikeCodec(0.5, n_levels=3)
        assert capped._plan_levels((64, 64, 64)) == 3

    def test_smooth_beats_sparse_in_ratio(self, rng):
        """Multigrid pays off on smooth fields, not on sparse TPC data."""

        codec = MGARDLikeCodec(0.25)
        smooth = np.indices((16, 16, 16)).sum(axis=0).astype(np.float32) / 5.0
        sparse = _sparse_field(rng, shape=(16, 16, 16))
        r_smooth = fp16_ratio(smooth, codec.compress(smooth))
        r_sparse = fp16_ratio(sparse, codec.compress(sparse))
        assert r_smooth > r_sparse

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            MGARDLikeCodec(0.0)


class TestEvaluateHarness:
    def test_result_fields(self, rng):
        x = _sparse_field(rng)
        res = evaluate_codec(SZLikeCodec(0.25), x)
        assert res.ratio > 1.0
        assert res.max_error <= 0.25 * (1 + 1e-5)
        assert 0.0 <= res.precision <= 1.0
        assert "sz_like" in res.row()

    def test_bcae_dominates_baselines_at_its_ratio(self, rng):
        """§1 claim, mechanically: no baseline reaches ratio ≥ 31 with

        sub-0.5 MAE on sparse TPC-like data (the trained BCAE does — see
        benchmarks/bench_baselines.py for the full comparison).
        """

        x = _sparse_field(rng, shape=(16, 24, 32))
        for codec in (SZLikeCodec(1.0), MGARDLikeCodec(1.0), ZFPLikeCodec(1)):
            res = evaluate_codec(codec, x)
            assert not (res.ratio >= 31.0 and res.mae <= 0.5), codec.name
