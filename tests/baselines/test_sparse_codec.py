"""The sparse coordinate-list codec: hit-list encoding, extremes, and
hostile ``SPX1`` payloads (one exception type, nothing allocated first)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import SparseIndexCodec

_SETTINGS = dict(max_examples=40, deadline=None)
EB = 0.25


def _field(rng, shape=(4, 7, 9), occupancy=0.1):
    x = np.zeros(shape, dtype=np.float32)
    mask = rng.random(shape) < occupancy
    x[mask] = rng.uniform(6.03, 10.0, size=int(mask.sum())).astype(np.float32)
    return x


def _roundtrip_ok(codec, x):
    got = codec.decompress(codec.compress(x))
    assert got.shape == x.shape and got.dtype == np.float32
    assert not got[x == 0].any(), "zeros must be exact"
    assert np.abs(got - x).max(initial=0.0) <= EB * (1 + 1e-5) + 1e-6
    return got


class TestHitList:
    @settings(**_SETTINGS)
    @given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=4),
           occupancy=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
           seed=st.integers(0, 2**16))
    def test_compress_is_compress_hits_of_the_nonzeros(
            self, shape, occupancy, seed):
        rng = np.random.default_rng(seed)
        x = _field(rng, tuple(shape), occupancy)
        codec = SparseIndexCodec(EB)
        idx = np.flatnonzero(x)
        assert codec.compress_hits(x.shape, idx, x.ravel()[idx]) == codec.compress(x)
        _roundtrip_ok(codec, x)

    def test_zero_valued_entries_are_not_hits(self, rng):
        """A caller's hit list may carry entries whose value is zero (the
        tier's log of a raw float that rounds to 1.0): they are dropped."""

        x = _field(rng)
        codec = SparseIndexCodec(EB)
        everything = np.arange(x.size)
        assert codec.compress_hits(x.shape, everything, x.ravel()) == codec.compress(x)

    def test_non_contiguous_and_other_dtypes(self, rng):
        codec = SparseIndexCodec(EB)
        x = _field(rng, (6, 8, 10))
        view = x[::2, :, 1::3]
        assert codec.compress(view) == codec.compress(np.ascontiguousarray(view))
        assert codec.compress(x.astype(np.float64)) == codec.compress(x)


class TestExtremes:
    def test_empty_and_full(self, rng):
        codec = SparseIndexCodec(EB)
        empty = np.zeros((3, 5, 7), dtype=np.float32)
        assert len(codec.compress(empty)) == 4 + 1 + 12 + 26 + 8
        _roundtrip_ok(codec, empty)
        _roundtrip_ok(codec, _field(rng, occupancy=1.0))

    def test_single_voxel_at_the_last_index(self):
        codec = SparseIndexCodec(EB)
        x = np.zeros((5, 6, 7), dtype=np.float32)
        x[-1, -1, -1] = 9.5
        got = _roundtrip_ok(codec, x)
        assert np.flatnonzero(got).tolist() == [x.size - 1]

    @pytest.mark.parametrize("bits", [1, 2, 8, 9, 16, 17])
    def test_gaps_at_the_bit_width_limit(self, bits):
        """A largest gap of 2^bits - 1 needs ``bits`` bits, 2^bits one more."""

        codec = SparseIndexCodec(EB)
        for gap, want in ((2**bits - 1, bits), (2**bits, bits + 1)):
            x = np.zeros(2**18 + 8, dtype=np.float32)
            x[[0, gap + 1]] = 7.0
            payload = codec.compress(x)
            _eb, n_hits, gap_bits, _vb, _bm = struct.unpack_from("<dQBBq", payload, 9)
            assert (n_hits, gap_bits) == (2, want)
            np.testing.assert_array_equal(
                np.flatnonzero(codec.decompress(payload)), [0, gap + 1])

    def test_values_on_quantiser_bin_boundaries(self):
        """Bin edges sit at (k + 0.5)·step: whichever side rint picks, the
        bound holds and the hit-list path picks the same side."""

        codec = SparseIndexCodec(EB)
        edges = (np.arange(1, 21, dtype=np.float32) + 0.5) * np.float32(2 * EB)
        x = np.zeros(64, dtype=np.float32)
        x[3::3][:20] = edges
        _roundtrip_ok(codec, x)
        idx = np.flatnonzero(x)
        assert codec.compress_hits(x.shape, idx, x[idx]) == codec.compress(x)


class TestHostilePayloads:
    """``decompress`` is fed by archives and the wire: every malformed
    payload is a ``ValueError`` — the one type the serving layer contains."""

    @pytest.fixture()
    def payload(self, rng):
        return SparseIndexCodec(EB).compress(_field(rng, occupancy=0.2))

    def test_every_truncation_is_a_valueerror(self, payload):
        codec = SparseIndexCodec(EB)
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                codec.decompress(payload[:cut])

    def test_trailing_garbage_is_a_valueerror(self, payload):
        with pytest.raises(ValueError, match="corrupt"):
            SparseIndexCodec(EB).decompress(payload + b"\x00")

    def test_bit_flips_decode_or_raise_valueerror(self, payload, rng):
        """Any single flipped bit either still decodes to an array or
        raises ValueError — never EOFError / struct.error / IndexError.
        (The upper half of each u32 dim is left to the volume-cap test:
        a flip there may legitimately declare gigabytes.)"""

        codec = SparseIndexCodec(EB)
        header = 4 + 1 + 12 + 26 + 8
        positions = [bit for bit in range(header * 8)
                     if bit // 8 not in (7, 8, 11, 12, 15, 16)]
        positions += [int(b) for b in
                      rng.integers(header * 8, len(payload) * 8, 200)]
        for bit in positions:
            tampered = bytearray(payload)
            tampered[bit // 8] ^= 1 << (bit % 8)
            try:
                # A flipped error-bound exponent dequantises to inf: that
                # is garbage the format cannot detect, not a crash.
                with np.errstate(over="ignore", invalid="ignore"):
                    out = codec.decompress(bytes(tampered))
            except ValueError:
                continue
            assert out.dtype == np.float32

    @pytest.mark.parametrize("field,value", [
        ("n_hits", 2**40), ("gap_bits", 0), ("gap_bits", 65),
        ("value_bits", 0), ("value_bits", 200), ("error_bound", 0.0),
        ("error_bound", float("nan")), ("gaps_nbytes", 2**50),
    ])
    def test_header_fields_are_validated(self, payload, field, value):
        eb, n_hits, gap_bits, value_bits, bin_min = struct.unpack_from(
            "<dQBBq", payload, 17)
        (gaps_nbytes,) = struct.unpack_from("<Q", payload, 43)
        fields = dict(error_bound=eb, n_hits=n_hits, gap_bits=gap_bits,
                      value_bits=value_bits, bin_min=bin_min,
                      gaps_nbytes=gaps_nbytes)
        fields[field] = value
        tampered = payload[:17] + struct.pack(
            "<dQBBq", fields["error_bound"], fields["n_hits"],
            fields["gap_bits"], fields["value_bits"], fields["bin_min"],
        ) + struct.pack("<Q", fields["gaps_nbytes"]) + payload[51:]
        with pytest.raises(ValueError, match="corrupt"):
            SparseIndexCodec(EB).decompress(tampered)

    @pytest.mark.parametrize("shape", [[2**32 - 1] * 255, [2**31 + 4, 7, 9]])
    def test_huge_declared_volume_is_rejected_before_allocating(self, shape):
        """An empty record whose (untrusted) shape declares terabytes."""

        hostile = b"SPX1" + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        hostile += struct.pack("<dQBBq", EB, 0, 0, 0, 0) + struct.pack("<Q", 0)
        with pytest.raises(ValueError, match="corrupt"):
            SparseIndexCodec(EB).decompress(hostile)

    def test_gap_overflow_cannot_wrap_the_index(self):
        """64-bit gaps whose int64 cast would go negative must not turn
        into wrapped (silently valid) indices."""

        from repro.baselines import pack_fixed

        gaps = np.array([0, 2**64 - 2], dtype=np.uint64)
        body = pack_fixed(gaps, 64)
        values = pack_fixed(np.array([0, 0], dtype=np.uint64), 1)
        hostile = b"SPX1" + struct.pack("<B1I", 1, 16)
        hostile += struct.pack("<dQBBq", EB, 2, 64, 1, 14)
        hostile += struct.pack("<Q", len(body)) + body + values
        with pytest.raises(ValueError, match="corrupt"):
            SparseIndexCodec(EB).decompress(hostile)
