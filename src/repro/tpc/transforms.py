"""Value and shape transforms between raw ADC wedges and network tensors.

Paper conventions reproduced here:

* networks regress ``log2(ADC + 1)`` — preserving relative ADC ratios between
  neighbouring sensors matters for trajectory interpolation (§2.1); the log
  values live in ``{0} ∪ [log2(65) ≈ 6.02, 10]``;
* BCAE++/BCAE-HT/BCAE-2D pad the horizontal axis 249 → 256 with zeros so
  every stage halves cleanly (§2.3); the padding is clipped before any
  accuracy metric is computed, "so reconstruction accuracy metrics are not
  inflated";
* the classification ground truth is the nonzero mask.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_transform",
    "inverse_log_transform",
    "pad_horizontal",
    "unpad_horizontal",
    "padded_length",
    "nonzero_labels",
    "LOG_EDGE",
    "LOG_MAX",
]

#: Smallest nonzero log-ADC value after zero-suppression at 64: log2(65).
LOG_EDGE = float(np.log2(65.0))

#: Largest log-ADC value: log2(1024) = 10 for a 10-bit ADC.
LOG_MAX = 10.0


def log_transform(adc: np.ndarray) -> np.ndarray:
    """``log2(ADC + 1)`` as float32 (paper §2.1)."""

    return np.log2(adc.astype(np.float32) + 1.0)


def inverse_log_transform(logv: np.ndarray) -> np.ndarray:
    """Back to integer ADC counts: ``round(2^v - 1)`` clipped to 10 bits.

    Defined on every float: the exponent is bounded before ``exp2`` (any
    ``v ≥ 11`` saturates at 1023 anyway, so an untrained decoder's huge
    outputs no longer overflow), and NaN decodes to 0 counts.
    """

    v = np.nan_to_num(logv.astype(np.float64), nan=-np.inf, posinf=np.inf,
                      neginf=-np.inf)
    adc = np.rint(np.exp2(np.minimum(v, LOG_MAX + 1.0)) - 1.0)
    return np.clip(adc, 0, 1023).astype(np.uint16)


def padded_length(length: int, multiple: int = 8) -> int:
    """Smallest multiple of ``multiple`` ≥ ``length`` (249 → 256 for the paper).

    BCAE++'s three/four halvings need the horizontal size divisible by 8
    (2D, d=3) or 16 (3D, 4 stages); 256 covers both for the paper grid.
    """

    return int(-(-length // multiple) * multiple)


def pad_horizontal(wedge: np.ndarray, target: int | None = None, multiple: int = 8) -> np.ndarray:
    """Zero-pad the last (horizontal) axis to ``target`` (paper: 249 → 256)."""

    length = wedge.shape[-1]
    target = padded_length(length, multiple) if target is None else int(target)
    if target < length:
        raise ValueError(f"target {target} shorter than horizontal size {length}")
    if target == length:
        return wedge
    pad = [(0, 0)] * (wedge.ndim - 1) + [(0, target - length)]
    return np.pad(wedge, pad)


def unpad_horizontal(wedge: np.ndarray, original: int) -> np.ndarray:
    """Clip horizontal padding before evaluation (paper §2.3)."""

    if wedge.shape[-1] < original:
        raise ValueError(
            f"cannot unpad to {original}: horizontal size is {wedge.shape[-1]}"
        )
    return wedge[..., :original]


def nonzero_labels(log_wedge: np.ndarray) -> np.ndarray:
    """Binary segmentation targets: 1 where the voxel is nonzero."""

    return (log_wedge > 0).astype(np.float32)
