"""Bit-level packing substrate for the baseline codecs.

Codes are packed MSB-first, fully vectorized, through ``np.packbits``:
variable-length (Huffman) codes expand their bits with a repeat/gather
formulation (:func:`pack_codes`); fixed-width fields are an ``(n, width)``
shift table (:func:`pack_fixed`), the same bytes at a fraction of the work.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_codes", "pack_fixed", "unpack_bits", "BitReader", "bits_to_bytes"]


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack variable-length codes into bytes (MSB-first).

    Parameters
    ----------
    codes:
        Non-negative integer code values (uint64-compatible).
    lengths:
        Bit length of each code (1..64).

    Returns
    -------
    (payload, total_bits).
    """

    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > 64:
        raise ValueError("code lengths must be in [1, 64]")

    total = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    # One entry per output bit: owning symbol and bit offset inside its code.
    owner = np.repeat(np.arange(codes.size), lengths)
    bit_pos = np.arange(total) - np.repeat(starts, lengths)
    shift = (lengths[owner] - 1 - bit_pos).astype(np.uint64)
    bits = ((codes[owner] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total


def pack_fixed(codes: np.ndarray, width: int) -> bytes:
    """Pack codes at ``width`` bits each: byte-identical to
    ``pack_codes(codes, np.full(n, width))[0]`` (MSB-first, low ``width``
    bits of each code, zero-padded to a whole byte)."""

    if not 1 <= width <= 64:
        raise ValueError("code lengths must be in [1, 64]")
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1, 1)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((codes >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes()


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 uint8 array into bytes (MSB-first)."""

    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(payload: bytes, total_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_codes` down to the raw bit array."""

    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return bits[:total_bits]


class BitReader:
    """Sequential reader over an unpacked bit array (header parsing etc.)."""

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = np.asarray(bits, dtype=np.uint8)
        self.pos = 0

    def remaining(self) -> int:
        """Bits left to read."""

        return self.bits.size - self.pos

    def read(self, nbits: int) -> int:
        """Read ``nbits`` MSB-first as an unsigned integer."""

        if nbits == 0:
            return 0
        if self.pos + nbits > self.bits.size:
            raise EOFError("bitstream exhausted")
        window = self.bits[self.pos : self.pos + nbits]
        self.pos += nbits
        value = 0
        for b in window.tolist():  # nbits is small (headers only)
            value = (value << 1) | int(b)
        return value

    def read_fixed_array(self, n: int, width: int) -> np.ndarray:
        """Vectorized read of ``n`` fixed-``width`` unsigned integers."""

        need = n * width
        if self.pos + need > self.bits.size:
            raise EOFError("bitstream exhausted")
        window = self.bits[self.pos : self.pos + need].reshape(n, width)
        self.pos += need
        weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint64)
        return window.astype(np.uint64) @ weights
