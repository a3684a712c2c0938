"""Allocation-free batched encoder execution for deployment (§3.2–3.3).

``BCAECompressor.compress`` runs the encoder through the autograd module
graph: every convolution re-pads its input, re-quantizes its weights and its
input, and allocates fresh im2col / output arrays.  That is the right
reference implementation, but it is not how the counting-house hot loop
should spend its time — the paper's deployment story is a resident encoder
compressing an endless wedge stream, where every buffer can be planned once
and reused.

:class:`FastEncoder2D` compiles a :class:`~repro.core.encoder2d.BCAEEncoder2D`
and :class:`FastEncoder3D` a :class:`~repro.core.bcae3d.BCAEEncoder3D`
(BCAE++/HT norm-free residual stacks *and* the original BCAE's eval-mode
BatchNorm stacks) through the shared stage-plan engine of
:mod:`repro.core.fast_plan` (see that module's docstring for the vocabulary,
the canvas/carry execution model, the blocked im2col gathers and the
clip-elision interval analysis).  These wrappers own only what is
encoder-specific: the entry quantize of the log-transformed input and the
249→256 horizontal padding of §2.3, folded into the first convolution's
canvas so no separate ``pad_horizontal`` allocation exists.  Use
:func:`make_fast_encoder` to build the right wrapper for a model.

The contract is *bit-identical output*: for every input accepted by the
module path, ``encode`` returns exactly the code bytes that ``model.encode``
under ``nn.amp.autocast`` (followed by the fp16 payload cast of
``BCAECompressor.compress``) produces.  The test suite enforces this across
2D and 3D model variants, batch sizes and both precision modes.
"""

from __future__ import annotations

import numpy as np

from .bcae3d import BCAEEncoder3D
from .encoder2d import BCAEEncoder2D
from .fast_plan import CompiledStagePlan, Workspace, entry_kinds_ok, stage_kinds

__all__ = [
    "FastEncoder2D",
    "FastEncoder3D",
    "LOG_INPUT_BOUND",
    "Workspace",
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
_ENCODER2D_KINDS = {"conv", "pool", "res", "bnorm"}
_ENCODER3D_KINDS = {"conv3d", "down3d", "pool3d", "up3d", "bnorm"}


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

    encoder = getattr(model, "encoder", model)
    if isinstance(encoder, BCAEEncoder2D):
        return entry_kinds_ok(stage_kinds(encoder.stages), _ENCODER2D_KINDS)
    if isinstance(encoder, BCAEEncoder3D):
        return entry_kinds_ok(stage_kinds(encoder.blocks), _ENCODER3D_KINDS)
    return False


def make_fast_encoder(model, half: bool = True, precision: str = "bit",
                      panel_threads: int | None = None):
    """Build the compiled encoder for a model that passes
    :func:`supports_fast_encode` (2D and 3D families dispatch to their
    wrapper).  ``precision`` and ``panel_threads`` forward to
    :class:`~repro.core.fast_plan.CompiledStagePlan` (the opt-in ulp tier
    and the intra-plan panel executor)."""

    encoder = getattr(model, "encoder", model)
    if isinstance(encoder, BCAEEncoder2D):
        return FastEncoder2D(encoder, half=half, precision=precision,
                             panel_threads=panel_threads)
    return FastEncoder3D(encoder, half=half, precision=precision,
                         panel_threads=panel_threads)


class FastEncoder2D:
    """Compiled, buffer-reusing twin of a 2D BCAE encoder.

    Parameters
    ----------
    encoder:
        The :class:`BCAEEncoder2D` to compile.  Weights are snapshot at
        construction — rebuild after training.
    half:
        Replicate the fp16 autocast numerics (the deployment mode, §3.3).
        When False the full-precision module path is replicated instead.
    precision:
        ``"bit"`` (default) or the opt-in ``"ulp"`` serving tier — see
        :class:`~repro.core.fast_plan.CompiledStagePlan`.
    panel_threads:
        Intra-plan panel executor width (None → ``REPRO_PANEL_THREADS``).
    """

    def __init__(self, encoder: BCAEEncoder2D, half: bool = True,
                 precision: str = "bit",
                 panel_threads: int | None = None) -> None:
        if not (isinstance(encoder, BCAEEncoder2D) and supports_fast_encode(encoder)):
            raise TypeError(
                f"FastEncoder2D cannot compile {type(encoder).__name__}; "
                "use supports_fast_encode() / make_fast_encoder() to guard"
            )
        self.half = bool(half)
        self.d = encoder.d
        self.code_channels = encoder.code_channels
        self._plan = CompiledStagePlan(encoder.stages, half=self.half,
                                       precision=precision,
                                       panel_threads=panel_threads)
        self._ws = self._plan.workspace

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of the compiled plan (see fast_plan)."""

        return list(self._plan.bn_folds)

    @property
    def plan(self) -> CompiledStagePlan:
        """The compiled stage plan (read-only; used by repro.analysis)."""

        return self._plan

    # ------------------------------------------------------------------
    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (grows to the largest batch seen)."""

        return self._plan.workspace_bytes

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray, horizontal_target: int | None = None) -> np.ndarray:
        """Encode log-transformed wedges ``(B, C, A, H)`` into fp16 codes.

        ``horizontal_target`` zero-pads the last axis inside the first
        convolution's canvas (the 249→256 padding of §2.3) without a
        separate ``pad_horizontal`` allocation.  The returned fp16 array is
        a reused buffer — copy or ``tobytes`` it before the next call.
        """

        if x.ndim != 4:
            raise ValueError(f"expected (B, C, A, H), got shape {x.shape}")
        n, c, a, h = x.shape
        target = h if horizontal_target is None else int(horizontal_target)
        if target < h:
            raise ValueError(f"horizontal target {target} < input horizontal {h}")

        canvas, interior = self._plan.input_canvas(n, c, (a, target))
        if target != h:
            interior[..., h:] = 0
        if self.half:
            # Entry quantize.  |log2| of any positive float is < 65504, so
            # the clip is the identity and the grid snap is the whole job
            # (one snap pass, then the layout pass to channel-major).
            q32, _b = self._plan._grid(x, LOG_INPUT_BOUND)
            np.copyto(interior[..., :h], q32.transpose(1, 0, 2, 3))
        else:
            np.copyto(interior[..., :h], x.transpose(1, 0, 2, 3))

        code = self._plan.run(canvas, (a, target), LOG_INPUT_BOUND)
        out16 = self._ws.get(
            "code16", (code.shape[1], code.shape[0]) + code.shape[2:], np.float16
        )
        # Stored grid values cast exactly; this is compress()'s payload
        # astype.  (In full mode overflow to ±inf matches astype too.)
        np.copyto(out16, code.transpose(1, 0, 2, 3), casting="unsafe")
        return out16


class FastEncoder3D:
    """Compiled, buffer-reusing twin of a 3D BCAE encoder (original/++/HT).

    The wedge's radial axis is spatial here (the network input is a
    single-channel ``(B, 1, R, A, H)`` volume — §2.2), so the wrapper
    differs from :class:`FastEncoder2D` only in the canvas rank and the
    singleton channel insertion the module path does with ``reshape``.

    Parameters
    ----------
    encoder:
        The :class:`BCAEEncoder3D` to compile (must pass
        :func:`supports_fast_encode` — BCAE++/HT norm-free stacks, or the
        original BCAE's eval-mode BatchNorm stacks).
    half:
        Replicate the fp16 autocast numerics (§3.3 deployment mode).
    precision:
        ``"bit"`` (default) or the opt-in ``"ulp"`` serving tier — see
        :class:`~repro.core.fast_plan.CompiledStagePlan`.
    panel_threads:
        Intra-plan panel executor width (None → ``REPRO_PANEL_THREADS``).
    """

    def __init__(self, encoder: BCAEEncoder3D, half: bool = True,
                 precision: str = "bit",
                 panel_threads: int | None = None) -> None:
        if not (isinstance(encoder, BCAEEncoder3D) and supports_fast_encode(encoder)):
            raise TypeError(
                f"FastEncoder3D cannot compile {type(encoder).__name__}; "
                "use supports_fast_encode() / make_fast_encoder() to guard"
            )
        self.half = bool(half)
        self.spatial = tuple(encoder.spatial)
        self.code_channels = encoder.code_channels
        self._plan = CompiledStagePlan(encoder.blocks, half=self.half,
                                       precision=precision,
                                       panel_threads=panel_threads)
        self._ws = self._plan.workspace

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of the compiled plan (see fast_plan)."""

        return list(self._plan.bn_folds)

    @property
    def plan(self) -> CompiledStagePlan:
        """The compiled stage plan (read-only; used by repro.analysis)."""

        return self._plan

    # ------------------------------------------------------------------
    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (grows to the largest batch seen)."""

        return self._plan.workspace_bytes

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray, horizontal_target: int | None = None) -> np.ndarray:
        """Encode log-transformed wedges ``(B, R, A, H)`` into fp16 codes.

        ``horizontal_target`` zero-pads the last axis inside the first
        block's canvas (the 249→256 padding of §2.3).  The returned fp16
        ``(B, C, r, a, h)`` array is a reused buffer — copy or ``tobytes``
        it before the next call.
        """

        if x.ndim != 4:
            raise ValueError(f"expected (B, R, A, H), got shape {x.shape}")
        n, r, a, h = x.shape
        target = h if horizontal_target is None else int(horizontal_target)
        if target < h:
            raise ValueError(f"horizontal target {target} < input horizontal {h}")

        canvas, interior = self._plan.input_canvas(n, 1, (r, a, target))
        if target != h:
            interior[..., h:] = 0
        if self.half:
            q32, _b = self._plan._grid(x, LOG_INPUT_BOUND)
            np.copyto(interior[..., :h], q32[None])
        else:
            np.copyto(interior[..., :h], x[None])

        code = self._plan.run(canvas, (r, a, target), LOG_INPUT_BOUND)
        out16 = self._ws.get(
            "code16", (code.shape[1], code.shape[0]) + code.shape[2:], np.float16
        )
        np.copyto(out16, code.transpose(1, 0, 2, 3, 4), casting="unsafe")
        return out16
