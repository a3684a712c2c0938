"""ZFP-like fixed-rate block-transform codec.

ZFP [Lindstrom, TVCG 2014] partitions a d-dimensional field into 4^d blocks,
decorrelates each block with an orthogonal transform and encodes bit planes
to a fixed per-block budget.  This reproduction keeps the family's defining
properties —

1. **fixed rate**: every block compresses to exactly ``rate_bits`` bits per
   value, so the ratio is known a priori (ZFP's headline feature),
2. **4³ block transform**: an orthonormal DCT-II (scipy) stands in for
   ZFP's custom lifting basis,
3. **block-adaptive scaling**: per-block maximum (block-floating-point
   exponent analogue) + uniform coefficient quantization,

— with bit-plane truncation replaced by equal-width coefficient
quantization (documented simplification; both allocate the budget across
transform coefficients).

On ~90%-empty TPC wedges the fixed budget is wasted on empty blocks and the
occupied/empty block boundaries ring — the sparse-data failure mode the
paper describes.

Stream layout::

    [u8 ndim][u32 shape…][u8 rate_bits][per block: f16 amax | packed codes]
"""

from __future__ import annotations

import struct

import numpy as np

from .bitstream import BitReader, pack_fixed, unpack_bits
from .quantize import UniformQuantizer

__all__ = ["ZFPLikeCodec"]

_BLOCK = 4


class ZFPLikeCodec:
    """Fixed-rate transform codec over 4³ blocks (see module docstring).

    Parameters
    ----------
    rate_bits:
        Bits per value (plus one fp16 scale per 64-value block).  The
        effective ratio against fp16 inputs is ``16 / (rate_bits + 0.25)``.
    """

    def __init__(self, rate_bits: int = 2) -> None:
        if not 1 <= rate_bits <= 16:
            raise ValueError("rate_bits must be in [1, 16]")
        self.rate_bits = int(rate_bits)
        self.name = f"zfp_like(rate={rate_bits})"

    # ------------------------------------------------------------------
    def _blockify(self, arr: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Pad to 4-multiples and reshape into (n_blocks, 4, 4, …)."""

        pad = [(0, (-s) % _BLOCK) for s in arr.shape]
        padded = np.pad(arr, pad)
        nd = arr.ndim
        grid = tuple(s // _BLOCK for s in padded.shape)
        # interleave (g0, 4, g1, 4, ...) then bring block axes last
        shape = tuple(v for g in grid for v in (g, _BLOCK))
        view = padded.reshape(shape)
        perm = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
        blocks = view.transpose(perm).reshape((-1,) + (_BLOCK,) * nd)
        return blocks, padded.shape

    def _unblockify(
        self, blocks: np.ndarray, padded_shape: tuple[int, ...], shape: tuple[int, ...]
    ) -> np.ndarray:
        nd = len(shape)
        grid = tuple(s // _BLOCK for s in padded_shape)
        view = blocks.reshape(grid + (_BLOCK,) * nd)
        perm_fwd = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
        inv = tuple(np.argsort(perm_fwd))
        padded = view.transpose(inv).reshape(padded_shape)
        return padded[tuple(slice(0, s) for s in shape)].copy()

    # ------------------------------------------------------------------
    def compress(self, array: np.ndarray) -> bytes:
        """Blockify → DCT → block-scaled fixed-width coefficient codes."""

        arr = np.asarray(array, dtype=np.float32)
        nd = arr.ndim
        blocks, _padded = self._blockify(arr)
        axes = tuple(range(1, nd + 1))
        import scipy.fft  # on use: the sparse codec imports this package

        coeffs = scipy.fft.dctn(blocks, axes=axes, norm="ortho")

        flat = coeffs.reshape(coeffs.shape[0], -1)
        amax = np.abs(flat).max(axis=1)
        amax16 = amax.astype(np.float16)
        # Guard: the stored fp16 scale must not shrink below the true max.
        shrunk = amax16.astype(np.float64) < amax
        amax16[shrunk] = np.nextafter(
            amax16[shrunk], np.float16(np.inf), dtype=np.float16
        )

        n_blocks, n_vals = flat.shape
        scale = np.maximum(amax16.astype(np.float64), 1e-30)
        levels = (1 << self.rate_bits) - 1
        step = 2.0 * scale / levels
        codes = np.rint((flat + scale[:, None]) / step[:, None])
        codes = np.clip(codes, 0, levels).astype(np.uint64)

        header = struct.pack("<B", nd)
        header += struct.pack(f"<{nd}I", *arr.shape)
        header += struct.pack("<BQ", self.rate_bits, codes.size * self.rate_bits)
        return header + amax16.tobytes() + pack_fixed(codes, self.rate_bits)

    # ------------------------------------------------------------------
    def decompress(self, payload: bytes) -> np.ndarray:
        """Inverse transform back to the original shape (fixed-rate lossy)."""

        view = memoryview(payload)
        (nd,) = struct.unpack_from("<B", view, 0)
        offset = 1
        shape = struct.unpack_from(f"<{nd}I", view, offset)
        offset += 4 * nd
        rate_bits, n_bits = struct.unpack_from("<BQ", view, offset)
        offset += 9

        padded_shape = tuple(s + ((-s) % _BLOCK) for s in shape)
        n_blocks = int(np.prod([s // _BLOCK for s in padded_shape]))
        n_vals = _BLOCK**nd

        amax = np.frombuffer(view, dtype=np.float16, count=n_blocks, offset=offset)
        offset += 2 * n_blocks
        bits = unpack_bits(bytes(view[offset:]), n_bits)
        codes = BitReader(bits).read_fixed_array(n_blocks * n_vals, rate_bits)
        codes = codes.reshape(n_blocks, n_vals)

        scale = np.maximum(amax.astype(np.float64), 1e-30)
        levels = (1 << rate_bits) - 1
        step = 2.0 * scale / levels
        flat = codes.astype(np.float64) * step[:, None] - scale[:, None]

        blocks = flat.reshape((n_blocks,) + (_BLOCK,) * nd)
        axes = tuple(range(1, nd + 1))
        import scipy.fft

        spatial = scipy.fft.idctn(blocks, axes=axes, norm="ortho").astype(np.float32)
        return self._unblockify(spatial, padded_shape, shape)

    # ------------------------------------------------------------------
    def expected_ratio(self) -> float:
        """A-priori fp16 compression ratio: ``16 / (rate_bits + 16/64)``."""

        return 16.0 / (self.rate_bits + 16.0 / (_BLOCK**3))
