"""Allocation-free decoder execution — the analysis-side fast path.

The deployment loop is bicephalous end to end (§1, §3.1): the counting
house compresses the wedge stream online, and offline analysis must
decompress it at comparable throughput.  ``BCAECompressor.decompress`` runs
both decoder heads through the autograd module graph — re-padding,
re-quantizing weights and allocating im2col buffers on every call, exactly
the costs :class:`~repro.core.fast_encode.FastEncoder` eliminated on the
encoder side.

:class:`FastDecoder` compiles **both** decoder heads of any zoo model
through the rank-free stage-plan engine of :mod:`repro.core.fast_plan`: the
BCAE-2D heads (Algorithm 2: ``Upsample2d`` + residual stacks, then a 1×1
conv under a sigmoid or identity head) and the 3D heads — BCAE++/HT and the
original BCAE's eval-mode BatchNorm stacks (transposed-convolution residual
up blocks over persistent dilated canvases, then a 1×1 conv under the
sigmoid / ``RegOutputTransform`` head, with blocked im2col gathers at
paper-scale geometry and the BatchNorm fold/affine machinery of
:mod:`repro.core.fast_plan`).  It is one wrapper for both families: all it
learns from the model is each head's stage list and, from
:class:`~repro.core.geometry.WedgeGeometry`, which codes fit; the decoded
radial axis comes back as the channels (2D, §2.4) or as the leading spatial
axis under one channel (3D, §2.2) — one ``reshape`` on the way out.  The
two plans share one workspace *and* one key namespace: the heads are
structurally identical (only weights and the output activation differ), so
every buffer the regression pass reads is fully rewritten before use and
the workspace is paid for once, not twice.

The contract mirrors the encoder's, *bit-identical output*:

* ``decode`` returns exactly the ``(seg, reg)`` arrays ``model.decode``
  under ``nn.amp.autocast`` produces;
* ``decompress`` additionally replicates the segmentation-gated
  regression combine ``ṽ = v̂ · 1[l̂ > h]`` and the horizontal unpadding of
  ``BCAECompressor.decompress`` (§2.3).

The test suite enforces this across 2D and 3D model-zoo variants, batch
sizes and both precision modes.
"""

from __future__ import annotations

import numpy as np

from .bcae3d import BCAEDecoder3D
from .decoder2d import BCAEDecoder2D
from .fast_plan import (
    CompiledStagePlan,
    DECODE_ENTRY_KINDS,
    FP16_MAX,
    Workspace,
    entry_kinds_ok,
    stage_kinds,
)
from .geometry import WedgeGeometry

__all__ = [
    "FastDecoder",
    "make_fast_decoder",
    "supports_fast_decode",
]

#: Stage kinds a decoder-head plan may contain.
_DECODER_KINDS = {
    "conv", "up", "res", "conv3d", "convtranspose3d", "upblock3d", "pool3d",
    "up3d", "bnorm", "sigmoid", "regout", "identity",
}


def _head_stages(decoder):
    """A zoo decoder head's full stage list — the 3D heads keep their
    output activation beside the stack — or ``None`` for any other module."""

    if isinstance(decoder, BCAEDecoder2D):
        return list(decoder.stages)
    if isinstance(decoder, BCAEDecoder3D):
        return list(decoder.stages) + [decoder.output_activation]
    return None


def supports_fast_decode(model) -> bool:
    """Whether ``model``'s decoders have a compiled fast path.

    Covers the BCAE-2D family (Algorithm 2 decoders built from
    nearest-neighbour upsampling, leaky-ReLU residual blocks and a final
    convolution under a sigmoid/identity head) and the 3D family — the
    norm-free BCAE++/HT transposed-convolution up blocks (§2.3) *and* the
    original BCAE's eval-mode BatchNorm up blocks (folded conv or exact
    affine stage), both under a sigmoid / ``RegOutputTransform`` head.  A
    model whose BatchNorm layers are in training mode stays on the module
    path: call ``model.eval()``.
    """

    for head in ("seg_decoder", "reg_decoder"):
        stages = _head_stages(getattr(model, head, None))
        if stages is None or not entry_kinds_ok(
                stage_kinds(stages), _DECODER_KINDS, entry=DECODE_ENTRY_KINDS):
            return False
    return True


def make_fast_decoder(model, half: bool = True) -> "FastDecoder":
    """Build the compiled decoder pair for a model that passes
    :func:`supports_fast_decode`."""

    return FastDecoder(model, half=half)


class FastDecoder:
    """Compiled, buffer-reusing twin of both decoder heads of a BCAE.

    Parameters
    ----------
    model:
        A :class:`BicephalousAutoencoder` (2D or 3D family) whose decoders
        pass :func:`supports_fast_decode`.  Weights and the classification
        threshold are snapshot at construction — rebuild after training
        (``BCAECompressor`` does this automatically via its weight
        fingerprint).
    half:
        Replicate the fp16 autocast numerics (§3.3 deployment mode); False
        replicates the full-precision module path.
    """

    def __init__(self, model, half: bool = True, _workers: int = 1) -> None:
        if not supports_fast_decode(model):
            raise TypeError(
                f"FastDecoder cannot compile {type(model).__name__}'s decoders; "
                "use supports_fast_decode() / make_fast_decoder() to guard"
            )
        self.half = bool(half)
        self.threshold = float(model.threshold)
        #: Which codes fit and where the radial axis rides (the 2D/3D rule).
        self.geometry = WedgeGeometry.of(model)
        # Shared workspace + shared prefix: the heads are structurally
        # identical, so the sequential seg → reg runs reuse every buffer
        # (each op fully rewrites what it reads; see CompiledStagePlan).
        self._ws = Workspace()
        # Batch-sized outputs live apart from the heads' workspace, which
        # panel slot processes share and which must not grow with the batch.
        self._out = Workspace()
        self._seg, self._reg = (
            CompiledStagePlan(_head_stages(head), half=self.half,
                              workspace=self._ws, prefix="d",
                              _workers=_workers)
            for head in (model.seg_decoder, model.reg_decoder)
        )

    # ------------------------------------------------------------------
    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (one wedge's plus the batch output)."""

        return self._ws.nbytes() + self._out.nbytes()

    @property
    def bn_folds(self) -> list[dict]:
        """Per-BatchNorm fold decisions of both head plans (seg then reg)."""

        return list(self._seg.bn_folds) + list(self._reg.bn_folds)

    @property
    def plans(self) -> dict[str, CompiledStagePlan]:
        """Both head plans keyed ``seg`` / ``reg`` (used by repro.analysis)."""

        return {"seg": self._seg, "reg": self._reg}

    # ------------------------------------------------------------------
    def _runs(self, codes: np.ndarray):
        """Both heads over each wedge's code canvas in turn → ``i`` and its
        channel-major ``(seg, reg)``, reused before the next wedge runs."""

        self.geometry.check_codes(codes.shape[1:])
        if not len(codes):
            raise ValueError("expected a batch of at least one code")
        spatial = codes.shape[2:]
        canvas, interior = self._seg.input_canvas(codes.shape[1], spatial)
        for i, code in enumerate(codes):
            np.copyto(interior, code)
            bound = _entry_bound(interior, self.half)
            yield i, (self._seg.run(canvas, spatial, bound),
                      self._reg.run(canvas, spatial, bound))

    @staticmethod
    def _wedges(out: np.ndarray) -> np.ndarray:
        """``(B, C, …)`` head outputs → zero-copy ``(B, R, A, H)`` view: the
        radial axis is the channels (2D) or the leading spatial axis under
        the one channel the module path drops with ``reshape`` (3D)."""

        return out.reshape(out.shape[:1] + (-1,) + out.shape[-2:])

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode fp16/fp32 codes ``(B, C, …)`` into ``(seg, reg)`` maps.

        Bit-identical values to ``model.decode`` under autocast, shaped
        ``(B, R, A, H)``.  Codes of the wrong rank or channel count raise
        ``ValueError`` before any canvas is touched.  Both returned arrays
        are views of reused workspace buffers — copy before the next call.
        """

        n = len(codes)
        for i, (seg, reg) in self._runs(codes):
            segs = self._out.get("seg", (n,) + seg.shape)
            regs = self._out.get("reg", (n,) + reg.shape)
            np.copyto(segs[i], seg)
            np.copyto(regs[i], reg)
        return self._wedges(segs), self._wedges(regs)

    def decompress(self, codes: np.ndarray, original_horizontal: int) -> np.ndarray:
        """Codes → masked log-ADC reconstruction ``(B, R, A, H_orig)``.

        Replicates ``BCAECompressor.decompress`` exactly: the regression
        output gated by ``seg > threshold`` (§2.2), horizontal padding
        clipped (§2.3).  Returns a view of a reused fp32 workspace buffer —
        copy before the next call.
        """

        for i, (seg, reg) in self._runs(codes):
            mask = self._out.get("mask", seg.shape, np.bool_)
            np.greater(seg, self.threshold, out=mask)
            recon = self._out.get("recon", (len(codes),) + reg.shape)
            # dtype pins the product to fp32 over the fp16-stored grid values —
            # exactly the module path's ``reg.data * (seg.data > threshold)``.
            np.multiply(reg, mask, out=recon[i], dtype=np.float32)
        return self._wedges(recon)[..., :int(original_horizontal)]


def _entry_bound(interior: np.ndarray, half: bool) -> float:
    """Exact magnitude bound of the decode entry values (post-clip).

    fp16 payload values are already on the grid, so the first conv's entry
    quantize reduces to the saturating clip — and only ±inf codes (a
    full-precision payload overflow) can move.  The code tensor is tiny
    (spatial / 4^d), so an exact entry bound is nearly free — and it is
    what lets the interval analysis elide the early saturating clips (a
    pessimistic ±65504 entry would never elide anything downstream).
    """

    if half:
        np.clip(interior, -FP16_MAX, FP16_MAX, out=interior)
    with np.errstate(invalid="ignore"):
        bound = float(np.nanmax(np.abs(interior))) if interior.size else 0.0
    if np.isnan(bound):
        bound = 0.0  # all-NaN codes: the clip is the identity on NaN
    return bound
