"""Bitstream, Huffman, quantizer and Lorenzo substrate (with hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BitReader,
    ErrorBoundedQuantizer,
    UniformQuantizer,
    build_huffman,
    huffman_decode,
    huffman_encode,
    lorenzo_forward,
    lorenzo_inverse,
    pack_codes,
    pack_fixed,
    unpack_bits,
)

_SETTINGS = dict(max_examples=30, deadline=None)


class TestBitstream:
    def test_pack_unpack_roundtrip(self, rng):
        codes = rng.integers(0, 2**10, size=100)
        lengths = np.full(100, 10)
        payload, n_bits = pack_codes(codes, lengths)
        assert n_bits == 1000
        bits = unpack_bits(payload, n_bits)
        got = BitReader(bits).read_fixed_array(100, 10)
        np.testing.assert_array_equal(got, codes.astype(np.uint64))

    def test_variable_lengths(self):
        codes = np.array([1, 5, 0])
        lengths = np.array([1, 3, 2])
        payload, n_bits = pack_codes(codes, lengths)
        assert n_bits == 6
        bits = unpack_bits(payload, n_bits)
        np.testing.assert_array_equal(bits, [1, 1, 0, 1, 0, 0])

    def test_empty(self):
        payload, n_bits = pack_codes(np.array([]), np.array([]))
        assert payload == b"" and n_bits == 0

    def test_reader_sequential(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        r = BitReader(bits)
        assert r.read(3) == 0b101
        assert r.read(4) == 0b1001
        with pytest.raises(EOFError):
            r.read(1)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1, 2]), np.array([1]))

    @settings(**_SETTINGS)
    @given(
        values=st.lists(st.integers(0, 255), min_size=1, max_size=200),
        width=st.integers(8, 16),
    )
    def test_fixed_width_roundtrip_property(self, values, width):
        codes = np.array(values, dtype=np.uint64)
        payload, n_bits = pack_codes(codes, np.full(len(values), width))
        got = BitReader(unpack_bits(payload, n_bits)).read_fixed_array(len(values), width)
        np.testing.assert_array_equal(got, codes)


    @pytest.mark.parametrize("width", range(1, 65))
    def test_pack_fixed_equals_pack_codes(self, rng, width):
        """The fixed-width packer is the variable-length one specialised:
        same bytes at every width, including codes wider than the field
        (both keep the low ``width`` bits) and sizes that end mid-byte."""

        for n in (1, 7, 64, 333):
            codes = rng.integers(0, 2**64, size=n, dtype=np.uint64,
                                 endpoint=False)
            if n == 64 and width < 64:
                codes &= np.uint64((1 << width) - 1)  # the in-range case
            want, n_bits = pack_codes(codes, np.full(n, width))
            assert pack_fixed(codes, width) == want
            assert n_bits == n * width

    def test_pack_fixed_edges(self):
        assert pack_fixed(np.array([], dtype=np.uint64), 5) == b""
        # Any shape flattens in C order, like pack_codes over ravel().
        grid = np.arange(6, dtype=np.uint64).reshape(2, 3)
        assert pack_fixed(grid, 3) == pack_fixed(grid.ravel(), 3)
        for width in (0, 65):
            with pytest.raises(ValueError):
                pack_fixed(np.array([1]), width)


class TestHuffman:
    def test_roundtrip_skewed(self, rng):
        syms = np.minimum(rng.geometric(0.4, size=5000) - 1, 30)
        code = build_huffman(np.bincount(syms, minlength=40))
        payload, n_bits = huffman_encode(syms, code)
        decoded, pos = huffman_decode(unpack_bits(payload, n_bits), syms.size, code)
        np.testing.assert_array_equal(decoded, syms)
        assert pos == n_bits

    def test_compresses_skewed_near_entropy(self, rng):
        syms = np.minimum(rng.geometric(0.5, size=20000) - 1, 15)
        freqs = np.bincount(syms, minlength=16)
        p = freqs[freqs > 0] / freqs.sum()
        entropy = float(-(p * np.log2(p)).sum())
        code = build_huffman(freqs)
        _payload, n_bits = huffman_encode(syms, code)
        assert n_bits / syms.size < entropy + 1.0  # Huffman ≤ H + 1

    def test_single_symbol_alphabet(self):
        syms = np.zeros(10, dtype=np.int64)
        code = build_huffman(np.array([10]))
        payload, n_bits = huffman_encode(syms, code)
        decoded, _ = huffman_decode(unpack_bits(payload, n_bits), 10, code)
        np.testing.assert_array_equal(decoded, syms)

    def test_unknown_symbol_raises(self):
        code = build_huffman(np.array([5, 5, 0]))
        with pytest.raises(ValueError):
            huffman_encode(np.array([2]), code)

    def test_max_length_respected(self, rng):
        # Exponentially exploding frequencies force deep trees without a cap.
        freqs = np.array([2**i for i in range(40)], dtype=np.float64)
        code = build_huffman(freqs, max_length=16)
        assert code.max_length <= 16

    @settings(**_SETTINGS)
    @given(
        data=st.lists(st.integers(0, 7), min_size=1, max_size=500),
    )
    def test_roundtrip_property(self, data):
        syms = np.array(data, dtype=np.int64)
        code = build_huffman(np.bincount(syms, minlength=8))
        payload, n_bits = huffman_encode(syms, code)
        decoded, _ = huffman_decode(unpack_bits(payload, n_bits), syms.size, code)
        np.testing.assert_array_equal(decoded, syms)


class TestQuantizers:
    @settings(**_SETTINGS)
    @given(
        eb=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_error_bound_property(self, eb, seed):
        """The defining guarantee: |x - dequant(quant(x))| ≤ eb (+1 fp32 ulp)."""

        x = np.random.default_rng(seed).uniform(-100, 100, size=256).astype(np.float32)
        q = ErrorBoundedQuantizer(eb)
        err = np.abs(q.roundtrip(x).astype(np.float64) - x)
        ulp = float(np.abs(x).max()) * 2.0**-23
        assert float(err.max()) <= eb * (1 + 1e-5) + ulp

    def test_zero_maps_to_zero(self):
        q = ErrorBoundedQuantizer(0.5)
        assert q.roundtrip(np.zeros(4, dtype=np.float32)).sum() == 0.0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            ErrorBoundedQuantizer(0.0)

    def test_uniform_quantizer_bound(self, rng):
        x = rng.uniform(-3, 3, size=128).astype(np.float32)
        q = UniformQuantizer(amax=3.0, bits=6)
        err = np.abs(q.dequantize(q.quantize(x)) - x)
        assert float(err.max()) <= q.max_error * (1 + 1e-5)

    def test_uniform_quantizer_bits_range(self):
        with pytest.raises(ValueError):
            UniformQuantizer(1.0, 0)


class TestLorenzo:
    @settings(**_SETTINGS)
    @given(
        shape=st.sampled_from([(7,), (5, 6), (3, 4, 5), (2, 3, 4, 3)]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_exact_inverse_property(self, shape, seed):
        q = np.random.default_rng(seed).integers(-1000, 1000, size=shape)
        np.testing.assert_array_equal(lorenzo_inverse(lorenzo_forward(q)), q)

    def test_constant_field_residual_is_sparse(self):
        """A constant field has nonzero residual only at the corner."""

        q = np.full((4, 5, 6), 7, dtype=np.int64)
        r = lorenzo_forward(q)
        assert r[0, 0, 0] == 7
        assert np.count_nonzero(r) == 1

    def test_zeros_stay_zeros(self):
        """Sparse-data behaviour: empty regions cost nothing after Lorenzo."""

        q = np.zeros((6, 6), dtype=np.int64)
        assert np.count_nonzero(lorenzo_forward(q)) == 0

    def test_linear_ramp_residual(self):
        q = np.arange(8, dtype=np.int64)
        r = lorenzo_forward(q)
        np.testing.assert_array_equal(r, [0, 1, 1, 1, 1, 1, 1, 1])
