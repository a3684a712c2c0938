"""Sparse coordinate-list codec for near-empty wedges.

The dense baselines (:class:`~repro.baselines.szlike.SZLikeCodec` and
friends) spend a per-voxel floor — prediction residuals, block
coefficients — that dwarfs the signal when a wedge is nearly empty: at
the full sPHENIX wedge size their payloads never drop below ~0.1 MB even
for an all-zero wedge.  The adaptive rate tier (:mod:`repro.rate`) needs
a classical route that actually wins there, which is this codec: store
**only the nonzero voxels**, as bit-packed flat-index gaps plus
error-bounded quantized values, and reconstruct exact zeros everywhere
else.

Payload layout (self-describing, little-endian)::

    [4s magic "SPX1"][u8 ndim][u32 × ndim shape]
    [f64 error_bound][u64 n_hits][u8 gap_bits][u8 value_bits][i64 bin_min]
    [u64 gaps_nbytes][gap bits…][value bits…]

Gaps are ``index[k] - index[k-1] - 1`` over the sorted flat nonzero
indices (first gap is the first index itself), packed at the smallest
fixed width that fits the batch; values are
:class:`~repro.baselines.quantize.ErrorBoundedQuantizer` bin indices
offset to non-negative, likewise fixed-width packed.  Cost is a few
bytes per header plus ~(gap_bits + value_bits)/8 bytes per hit, so the
payload scales with occupancy instead of wedge volume.

The encoder works on the **hit list** (:meth:`SparseIndexCodec.
compress_hits`, O(hits)); ``compress(array)`` only extracts it, so a caller
that already holds the hits never builds the float32 volume.

Error guarantee: zeros are exact; nonzero voxels obey the quantizer's
``|x - x̂| ≤ error_bound`` bound (plus one float32 ulp — see
:class:`ErrorBoundedQuantizer`).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .bitstream import BitReader, pack_fixed, unpack_bits
from .quantize import ErrorBoundedQuantizer

__all__ = ["SparseIndexCodec"]

_MAGIC = b"SPX1"
_FIXED = struct.Struct("<dQBBq")
#: Largest volume a header may declare (2³¹ voxels = 8 GiB of float32):
#: the shape is untrusted input and sizes the decoder's only allocation.
_MAX_VOXELS = 1 << 31


class SparseIndexCodec:
    """Error-bounded coordinate-list coding of sparse float32 arrays."""

    def __init__(self, error_bound: float = 0.25) -> None:
        self.name = "sparse"
        self.quantizer = ErrorBoundedQuantizer(error_bound)
        self.error_bound = self.quantizer.error_bound

    def compress(self, array: np.ndarray) -> bytes:
        """Encode a float32 array into a self-describing sparse payload."""

        array = np.asarray(array, dtype=np.float32)
        flat = array.ravel()
        idx = np.flatnonzero(flat != 0)
        return self.compress_hits(array.shape, idx, flat[idx])

    def compress_hits(self, shape, idx: np.ndarray, values: np.ndarray) -> bytes:
        """Encode a ``shape`` volume from its hit list: ascending flat
        (C-order) indices and the float32 values there.  Zero values are
        not hits and are dropped, so the payload equals ``compress`` of
        the scattered volume byte for byte."""

        shape = tuple(int(s) for s in shape)
        if len(shape) > 255:
            raise ValueError("too many dimensions for the sparse header")
        values = np.asarray(values, dtype=np.float32)
        keep = values != 0
        if not keep.all():
            idx, values = idx[keep], values[keep]
        n_hits = int(idx.size)

        header = _MAGIC + struct.pack("<B", len(shape))
        header += struct.pack(f"<{len(shape)}I", *shape)

        if n_hits == 0:
            header += _FIXED.pack(self.error_bound, 0, 0, 0, 0)
            header += struct.pack("<Q", 0)
            return header

        gaps = np.diff(idx, prepend=-1).astype(np.uint64) - np.uint64(1)
        gap_bits = max(int(gaps.max()).bit_length(), 1)
        bins = self.quantizer.quantize(values)
        bin_min = int(bins.min())
        ubins = (bins - bin_min).astype(np.uint64)
        value_bits = max(int(ubins.max()).bit_length(), 1)

        gap_payload = pack_fixed(gaps, gap_bits)
        header += _FIXED.pack(self.error_bound, n_hits, gap_bits, value_bits, bin_min)
        header += struct.pack("<Q", len(gap_payload))
        return header + gap_payload + pack_fixed(ubins, value_bits)

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decode a sparse payload back to the original-shaped array.

        The payload is untrusted: header fields are checked against its
        length before anything is allocated; any inconsistency (truncation,
        bit flips) raises :class:`ValueError`.
        """

        if payload[:4] != _MAGIC:
            raise ValueError("not a sparse coordinate-list payload (bad magic)")
        try:
            (ndim,) = struct.unpack_from("<B", payload, 4)
            shape = struct.unpack_from(f"<{ndim}I", payload, 5)
            pos = 5 + 4 * ndim
            error_bound, n_hits, gap_bits, value_bits, bin_min = (
                _FIXED.unpack_from(payload, pos))
            pos += _FIXED.size
            (gaps_nbytes,) = struct.unpack_from("<Q", payload, pos)
            pos += 8
        except struct.error as exc:
            raise ValueError("corrupt sparse payload: truncated header") from exc
        size = math.prod(shape)  # Python ints: 255 dims of 2**32-1 overflow int64
        value_start = pos + gaps_nbytes
        if size > _MAX_VOXELS or n_hits > size or (n_hits and not (
            1 <= gap_bits <= 64 and 1 <= value_bits <= 64
            and math.isfinite(error_bound) and error_bound > 0
            and gaps_nbytes == -(-n_hits * gap_bits // 8)
            and len(payload) - value_start == -(-n_hits * value_bits // 8)
        )):
            raise ValueError(
                f"corrupt sparse payload: {n_hits} hits at {gap_bits}+{value_bits}"
                f" bits in shape {shape} vs {len(payload) - pos} body bytes")

        flat = np.zeros(size, dtype=np.float32)
        if n_hits:
            quantizer = ErrorBoundedQuantizer(error_bound)
            gap_reader = BitReader(
                unpack_bits(payload[pos:value_start], n_hits * gap_bits)
            )
            gaps = gap_reader.read_fixed_array(n_hits, gap_bits)
            # Each gap is bounded before the sum, so neither the int64
            # cast nor the cumsum (<= n_hits * size < 2**63) can wrap.
            if int(gaps.max()) >= size:
                raise ValueError("corrupt sparse payload: index gap outside array")
            idx = np.cumsum(gaps.astype(np.int64) + 1) - 1
            if idx[-1] >= size:
                raise ValueError(
                    f"corrupt sparse payload: index {int(idx[-1])} outside "
                    f"array of {size} voxels"
                )
            value_reader = BitReader(
                unpack_bits(payload[value_start:], n_hits * value_bits)
            )
            ubins = value_reader.read_fixed_array(n_hits, value_bits)
            flat[idx] = quantizer.dequantize(ubins.astype(np.int64) + bin_min)
        return flat.reshape(shape)
