"""Allocation-free encoder execution for deployment (§3.2–3.3).

``BCAECompressor.compress`` runs the encoder through the autograd module
graph: every convolution re-pads its input, re-quantizes its weights and its
input, and allocates fresh im2col / output arrays.  That is the right
reference implementation, but it is not how the counting-house hot loop
should spend its time — the paper's deployment story is a resident encoder
compressing an endless wedge stream, where every buffer can be planned once
and reused.

:class:`FastEncoder` compiles any zoo encoder — a
:class:`~repro.core.encoder2d.BCAEEncoder2D` or a
:class:`~repro.core.bcae3d.BCAEEncoder3D` (BCAE++/HT norm-free residual
stacks *and* the original BCAE's eval-mode BatchNorm stacks) — through the
rank-free stage-plan engine of :mod:`repro.core.fast_plan` (see that
module's docstring for the vocabulary, the canvas/carry execution model,
the blocked im2col gathers and the clip-elision interval analysis).  It is
one wrapper for both families: all it learns from the model is the stage
list and, from :class:`~repro.core.geometry.WedgeGeometry`, whether the
radial axis rides as image channels (BCAE-2D, §2.4) or as a spatial axis of
a one-channel volume (§2.2) — one ``reshape`` on the way in.  The wrapper
owns only what is encoder-specific: the entry quantize of the
log-transformed input and the 249→256 horizontal padding of §2.3, folded
into the first convolution's canvas so no separate ``pad_horizontal``
allocation exists.  Integer ADC input (``uint8`` / ``uint16``, the
detector's 10-bit counts) skips both the log transform and the snap: the
network input of a lane is a function of its one ``uint16`` value, so the
entry is one lookup of a calibrated 65 536-entry table
(:meth:`FastEncoder.encode_adc`).

The contract is *bit-identical output*: for every input accepted by the
module path, ``encode`` returns exactly the code bytes that ``model.encode``
under ``nn.amp.autocast`` (followed by the fp16 payload cast of
``BCAECompressor.compress``) produces.  The test suite enforces this across
2D and 3D model variants, batch sizes and both precision modes.
"""

from __future__ import annotations

import functools

import numpy as np

from .bcae3d import BCAEEncoder3D
from .encoder2d import BCAEEncoder2D
from .fast_plan import (
    CompiledStagePlan,
    Workspace,
    entry_kinds_ok,
    snap_to_grid,
    stage_kinds,
)
from .geometry import WedgeGeometry

__all__ = [
    "FastEncoder",
    "LOG_INPUT_BOUND",
    "Workspace",
    "log_into",
    "make_fast_encoder",
    "supports_fast_encode",
]

#: Rigorous magnitude bound on ``log2`` of any positive finite float
#: (float32 denormals bottom out at 2^-149), i.e. on any network input
#: produced by the log transform.  Public: the static plan verifier
#: (:mod:`repro.analysis.plan_verifier`) re-derives the encoder plans'
#: clip-elision intervals from this same entry bound.
LOG_INPUT_BOUND = 150.0

#: Stage kinds an encoder plan may contain (no output heads: the payload
#: cast expects the stored grid values of the final convolution).
_ENCODER_KINDS = {"conv", "pool", "res", "conv3d", "down3d", "pool3d", "up3d",
                  "bnorm"}

#: Integer ADC dtypes every value of which indexes the entry table.
_ADC_DTYPES = frozenset({np.dtype(np.uint8), np.dtype(np.uint16)})

#: Lane offsets the entry table's calibration presents every value at.
_ENTRY_OFFSETS = 64


def log_into(buf: np.ndarray, adc: np.ndarray) -> np.ndarray:
    """``log_transform`` into ``buf``: ``log2(adc.astype(float32) + 1)``
    cast for cast, so the values match the reference path for any input
    dtype.  Returns ``buf``."""

    np.copyto(buf, adc, casting="unsafe")  # the astype(float32)
    buf += 1.0
    np.log2(buf, out=buf)
    return buf


def _entry_lanes(adc: np.ndarray, half: bool) -> np.ndarray:
    """The log path's network input for a 1-D ``adc``: :func:`log_into`,
    then in half mode the snap :meth:`CompiledStagePlan._grid` makes (its
    clip is elided: ``|log2| ≤ LOG_INPUT_BOUND``)."""

    x = log_into(np.empty(adc.shape, np.float32), adc)
    return snap_to_grid(x) if half else x


@functools.cache
def _entry_table(half: bool) -> np.ndarray | None:
    """The integer-ADC entry as one lookup, shared read-only by every
    encoder of one precision; None where calibration fails.

    Entry ``v`` holds what the log path stores for ADC value ``v``
    (:func:`_entry_lanes` over all 65 536 ``uint16`` values).  The log is
    a SIMD kernel, so a lane's result could depend on where in the array
    it sits; the calibration presents every value at every lane offset
    ``0 … 63`` of a contiguous array (behind ``offset`` leading zeros,
    which also moves the array's tail) and compares raw bits.  A build
    where any lane deviates keeps the log path — behaviour is never
    traded for speed.
    """

    values = np.arange(1 << 16, dtype=np.uint16)
    table = _entry_lanes(values, half)  # offset 0
    padded = np.zeros(_ENTRY_OFFSETS + values.size, np.uint16)
    padded[_ENTRY_OFFSETS:] = values
    for offset in range(1, _ENTRY_OFFSETS):
        got = _entry_lanes(padded[_ENTRY_OFFSETS - offset:], half)[offset:]
        if not np.array_equal(got.view(np.uint32), table.view(np.uint32)):
            return None
    table.flags.writeable = False
    return table


def _encoder_stages(encoder):
    """A zoo encoder's stage list (``None`` for any other module)."""

    if isinstance(encoder, BCAEEncoder2D):
        return encoder.stages
    if isinstance(encoder, BCAEEncoder3D):
        return encoder.blocks
    return None


def supports_fast_encode(model) -> bool:
    """Whether ``model``'s encoder has a compiled fast path.

    Covers the BCAE-2D family (Algorithm 1 encoders built from
    convolutions, non-overlapping average pooling and leaky-ReLU residual
    blocks) and the 3D family — the norm-free BCAE++/HT residual stacks
    (§2.3) *and* the original BCAE's BatchNorm stacks in eval mode (the
    norm compiles to a folded conv or an exact affine stage).  A model
    whose BatchNorm layers are in training mode stays on the module path
    (batch statistics are not a compilable graph): call ``model.eval()``.
    """

    stages = _encoder_stages(getattr(model, "encoder", model))
    return stages is not None and entry_kinds_ok(stage_kinds(stages),
                                                 _ENCODER_KINDS)


def make_fast_encoder(model, half: bool = True) -> "FastEncoder":
    """Build the compiled encoder for a model (or bare encoder) that passes
    :func:`supports_fast_encode`."""

    return FastEncoder(model, half=half)


class FastEncoder:
    """Compiled, buffer-reusing twin of a BCAE encoder (2D or 3D family).

    Parameters
    ----------
    encoder:
        The :class:`BCAEEncoder2D` / :class:`BCAEEncoder3D` to compile, or
        a model holding one (must pass :func:`supports_fast_encode`).
        Weights are snapshot at construction — rebuild after training.
    half:
        Replicate the fp16 autocast numerics (the deployment mode, §3.3).
        When False the full-precision module path is replicated instead.
    """

    def __init__(self, encoder, half: bool = True, _workers: int = 1) -> None:
        encoder = getattr(encoder, "encoder", encoder)
        if not supports_fast_encode(encoder):
            raise TypeError(
                f"FastEncoder cannot compile {type(encoder).__name__}; "
                "use supports_fast_encode() / make_fast_encoder() to guard"
            )
        self.half = bool(half)
        #: Where the radial axis rides and which wedges fit (the 2D/3D rule).
        self.geometry = WedgeGeometry.of(encoder)
        self._plan = CompiledStagePlan(_encoder_stages(encoder), half=self.half,
                                       _workers=_workers)
        # The batch-sized output lives apart from the plan's workspace,
        # which panel slot processes share and which must not grow with
        # the batch.
        self._out = Workspace()
        #: The integer-ADC entry lookup (read-only, 256 KB), or None where
        #: its calibration failed and integer input takes the log path.
        self.entry_table = _entry_table(self.half)

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of the compiled plan (see fast_plan)."""

        return list(self._plan.bn_folds)

    @property
    def plan(self) -> CompiledStagePlan:
        """The compiled stage plan (read-only; used by repro.analysis)."""

        return self._plan

    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (one wedge's plus the batch output)."""

        return self._plan.workspace_bytes + self._out.nbytes()

    # ------------------------------------------------------------------
    def takes_adc(self, dtype) -> bool:
        """Whether :meth:`encode_adc` takes raw ADC wedges of ``dtype``:
        ``uint8`` / ``uint16``, where the entry table calibrated."""

        return self.entry_table is not None and np.dtype(dtype) in _ADC_DTYPES

    def encode_adc(self, adc: np.ndarray,
                   horizontal_target: int | None = None) -> np.ndarray:
        """Encode raw integer ADC wedges ``(B, R, A, H)`` into fp16 codes.

        The same codes as :meth:`encode` of ``log_transform(adc)``: each
        wedge's network input is one ``np.take`` of :attr:`entry_table`
        into the input canvas — no log, no snap, no staging array.  Only
        for dtypes :meth:`takes_adc` accepts (``TypeError`` otherwise).
        """

        if not self.takes_adc(adc.dtype):
            raise TypeError(f"no entry table for {adc.dtype} ADC input; "
                            "encode log_transform(adc) instead")
        return self._encode(adc, horizontal_target, self.entry_table)

    def encode(self, x: np.ndarray, horizontal_target: int | None = None) -> np.ndarray:
        """Encode log-transformed wedges ``(B, R, A, H)`` into fp16 codes.

        ``horizontal_target`` zero-pads the last axis inside the first
        convolution's canvas (the 249→256 padding of §2.3) without a
        separate ``pad_horizontal`` allocation; without it ``H`` must
        already be the padded length.  A wedge the model cannot take, or an
        empty batch, raises ``ValueError`` before any canvas is touched.
        Each wedge is one plan run into its row of the returned fp16
        ``(B, C, …)`` array, a reused buffer — copy or ``tobytes`` it
        before the next call.
        """

        return self._encode(x, horizontal_target, None)

    def _encode(self, x: np.ndarray, horizontal_target: int | None,
                table: np.ndarray | None) -> np.ndarray:
        """:meth:`encode`'s loop; ``x`` is raw ADC looked up in ``table``,
        or the network input itself where ``table`` is None."""

        if x.ndim != 4 or not len(x):
            raise ValueError(f"expected (B ≥ 1, R, A, H), got shape {x.shape}")
        n, h = x.shape[0], x.shape[-1]
        c, spatial = self.geometry.network_input(
            x.shape[1:], h if horizontal_target is None else horizontal_target)

        canvas, interior = self._plan.input_canvas(c, spatial)
        if spatial[-1] != h:
            interior[..., h:] = 0
        dest = interior[..., :h]
        for i, wedge in enumerate(x):
            # The radial axis becomes the channels or the leading spatial axis.
            if table is not None:
                np.take(table, wedge.reshape(dest.shape), out=dest,
                        mode="wrap")
            else:
                if self.half:
                    # Entry quantize.  |log2| of any positive float is
                    # < 65504, so the clip is the identity and the snap is
                    # the whole job.
                    wedge, _b = self._plan._grid(wedge, LOG_INPUT_BOUND)
                np.copyto(dest, wedge.reshape(dest.shape))
            code = self._plan.run(canvas, spatial, LOG_INPUT_BOUND)
            out16 = self._out.get("code16", (n,) + code.shape, np.float16)
            # Stored grid values cast exactly; this is compress()'s payload
            # astype.  (In full mode overflow to ±inf matches astype too.)
            np.copyto(out16[i], code, casting="unsafe")
        return out16
