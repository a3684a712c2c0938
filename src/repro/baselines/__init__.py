"""``repro.baselines`` — learning-free lossy compressors (paper §1 comparison).

One codec per family the paper names, plus the entropy/bitstream substrate:

* :class:`SZLikeCodec` — error-bounded prediction + quantization + Huffman;
* :class:`ZFPLikeCodec` — fixed-rate 4³ block-transform coding;
* :class:`MGARDLikeCodec` — multilevel grid decomposition with per-level
  error budgets.

All are honest codecs (exact round-trip format, guaranteed error bounds /
fixed rates) implemented in vectorized NumPy; see each module's docstring
for the documented simplifications relative to the reference systems.
"""

from .api import Codec, CodecResult, evaluate_codec, fp16_ratio
from .bitstream import BitReader, bits_to_bytes, pack_codes, pack_fixed, unpack_bits
from .decimation import DecimationCodec
from .huffman import HuffmanCode, build_huffman, huffman_decode, huffman_encode
from .lorenzo import lorenzo_forward, lorenzo_inverse
from .mgardlike import MGARDLikeCodec
from .quantize import ErrorBoundedQuantizer, UniformQuantizer
from .sparse import SparseIndexCodec
from .szlike import SZLikeCodec
from .zfplike import ZFPLikeCodec

__all__ = [
    "Codec",
    "CodecResult",
    "evaluate_codec",
    "fp16_ratio",
    "SZLikeCodec",
    "SparseIndexCodec",
    "ZFPLikeCodec",
    "MGARDLikeCodec",
    "DecimationCodec",
    "ErrorBoundedQuantizer",
    "UniformQuantizer",
    "HuffmanCode",
    "build_huffman",
    "huffman_encode",
    "huffman_decode",
    "lorenzo_forward",
    "lorenzo_inverse",
    "pack_codes",
    "pack_fixed",
    "unpack_bits",
    "bits_to_bytes",
    "BitReader",
]
