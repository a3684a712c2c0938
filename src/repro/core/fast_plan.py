"""Compiled stage-plan engine — the shared fast path for encode *and* decode.

:mod:`repro.core.fast_encode` proved the deployment thesis for the encoder
(§3.2–3.3): compile the module graph once into a flat list of array passes
over preplanned workspaces and the per-call ``np.pad`` / im2col / fp16-cast
allocations disappear, with **bit-identical** output.  The analysis side of
the loop needs the same treatment for the decoders, and every future variant
would otherwise grow its own 500-line kernel file.  This module is that
machinery extracted into a reusable engine: a *stage-vocabulary compiler*
plus a rank-free executor, driven at whatever rank a model's stages have by
one wrapper per direction: :class:`~repro.core.fast_encode.FastEncoder` and
:class:`~repro.core.fast_decode.FastDecoder` (radial axis = channels or
spatial, see :class:`~repro.core.geometry.WedgeGeometry`).

Stage vocabulary
----------------

:func:`stage_kinds` classifies a stage sequence (``nn.Sequential`` or any
iterable of modules); :class:`CompiledStagePlan` compiles it.  The vocabulary
is the union of the BCAE-2D encoder/decoder stages (Algorithms 1–2) and the
3D BCAE++/BCAE-HT residual stacks (paper §2.2–2.3, Figure 4):

=================  ==========================================  =============
kind               module                                      family
=================  ==========================================  =============
``conv``           :class:`repro.nn.Conv2d`                    2D
``conv3d``         :class:`repro.nn.Conv3d`                    3D
``convtranspose3d``:class:`repro.nn.ConvTranspose3d`           3D
``pool``           :class:`repro.nn.AvgPool2d` (k == stride)   2D
``pool3d``         :class:`repro.nn.AvgPool3d` (k == stride)   3D
``up``             :class:`repro.nn.Upsample2d`                2D
``up3d``           :class:`repro.nn.Upsample3d`                3D
``res``            :class:`repro.core.blocks.ResBlock2d`       2D
``down3d``         :class:`repro.core.blocks.DownBlock3d`      3D
``upblock3d``      :class:`repro.core.blocks.UpBlock3d`        3D
``bnorm``          :class:`repro.nn.norm.BatchNormNd` (eval)   2D + 3D
``sigmoid``        :class:`repro.nn.Sigmoid` (head)            2D + 3D
``regout``         :class:`repro.nn.RegOutputTransform` (head) 3D
``identity``       :class:`repro.nn.Identity`                  2D + 3D
=================  ==========================================  =============

Eval-mode BatchNorm (the original BCAE's normalization — arXiv:2111.05423
keeps it, §2.3 of this paper removes it) is a per-channel affine transform
``y = ((x − μ)·(1/σ))·γ + β``, so the residual blocks accept it after each
activation (``down3d`` / ``upblock3d`` with norms) and a standalone
``bnorm`` stage covers any other placement.  A *training-mode* BatchNorm is
not a compilable graph (its output depends on batch statistics) and keeps
the whole stack on the module path — call ``model.eval()`` before
compiling.  See *BatchNorm folding* below for when the affine disappears
into an adjacent convolution entirely.

Convolutions have their weights quantized to the fp16 grid and transposed
into GEMM layout **once**; at run time the exact contraction of
:func:`repro.nn.convolution.conv_forward` executes out of a zero-bordered
padded canvas into a reused buffer.  A transposed convolution is compiled as
the stride-1 convolution :func:`repro.nn.convolution.conv_input_grad`
actually runs: the input is scattered into a persistent *dilated* canvas
(stride-1 zeros between elements, ``k-1`` border — the ``_dilate``/``pad``
arrays the module path reallocates every call), the full correlation runs
through the same GEMM machinery, and the module path's crop happens during
the store.  The 3D residual blocks (``down3d`` / ``upblock3d``) compile to
two GEMM sites with the LeakyReLU merges of the 2D ``res`` handler: the main
and skip paths start with the same convolution geometry over the same
quantized store, so their weights are stacked into one operand — one gather,
one GEMM, one tail per row block — wherever a calibration probe proves the
stacked rows equal each member's own contraction (else they run apart).
``sigmoid`` / ``regout`` compile only as the final stage directly after a
conv-like stage; the plan must end in a conv-like stage (plus an optional
head) so that :meth:`CompiledStagePlan.run` returns exactly what the module
graph returns.

Execution model
---------------

A run is one sample — the wrappers loop over a batch, so no problem shape,
probe verdict or canvas depends on its size — and threads two value streams
through the ops:

* a padded fp32 **canvas** in channel-major ``(C, *spatial)`` layout
  whose interior holds values already snapped onto the fp16 grid — what the
  next convolution consumes.  Channel-major matches the transposed-GEMM
  result orientation, so conv outputs, residual accumulates and canvas
  stores are (semi-)contiguous reshapes instead of 4-byte-strided
  transposes.  The zero border is the padding the module path re-creates
  with ``np.pad`` on every call, allocated and zeroed once (for transposed
  convolutions the persistent zeros also include the dilation gaps);
* an unquantized fp32 **carry** stream — what residual skips, pools and
  upsamples consume (the module path never re-quantizes before those).

``carry is None`` means the canvas interior *is* the exact stream (its
values came straight from a convolution, whose stored grid values are
exact).  Interval analysis over the quantized weights tracks a rigorous
magnitude bound along both streams; the saturating clip of
:func:`repro.nn.amp.quantize_fp16` runs only where the bound says ±65504 is
reachable — behaviour is never traded for speed.  Wherever an op reads fp16
storage into fp32 math, the ufunc loop is forced to fp32 (``dtype=`` /
promotion by a typed scalar), so the arithmetic is exactly the module
path's fp32 arithmetic on the same grid values.

Buffers are leased, not owned per site: canvases and carry streams come
from a per-geometry round robin (:meth:`CompiledStagePlan._lease` — three
canvases and two streams of a geometry cover every stage's live set) and all
panel / snap scratch is carved from one grow-only arena per panel
slot (:meth:`Workspace.carve`), so the working set is a handful of canvases
plus one panel-sized arena per slot, whatever the depth of the plan.

Panel epilogue contract
-----------------------

Every convolution — 2-D or 3-D, ordinary or transposed — runs through one
panel routine (:meth:`CompiledStagePlan._panels`).  The output's flattened
``out_spatial`` grid is cut into panels of whole innermost-axis rows and
each panel is visited exactly once::

    gather → GEMM → bias → clip → snap → tail

The panel's im2col operand is gathered into the slot's ``(K, P)`` slab, one
``(O, K) @ (K, P)`` GEMM produces its outputs, and the bias, the saturating
clip (only where the bound reaches ±65504 *and* a lane of the block does)
and the fp16-grid snap run on the ``(O, P)`` block.  The stage's *tail* then
finishes the values there and writes them straight into their destination
rows: no ``(O, M)`` staging array and no full-array activation or quantize
post-pass exists.  Two tails cover the vocabulary:

* the **store tail** (``conv`` / ``conv3d`` / ``convtranspose3d``; the first
  and the skip convolution of a residual block) — optionally LeakyReLU
  (→ norm), optionally re-quantize (the activation fused with the *next*
  convolution's entry quantize), then store into the destination canvas,
  through the transposed convolution's crop where there is one;
* the **sum tail** (the last convolution of ``res`` / ``down3d`` /
  ``upblock3d``) — LeakyReLU (→ norm), the fp32 residual sum with the skip
  rows into the carry stream, clip + snap, store into the next canvas.

The GEMM's operands (~1.8 MB) empty the L2, so every array the epilogue
touches is fetched cold and costs its distinct bytes as much as its passes:
a finished panel touches the GEMM block, one ``uint32`` block (the snap
result) and the byte mask of fp16-denormal lanes (fixed up lane by lane),
plus its destination rows.  Pass budget (``S`` = one snap: 7 integer passes
and a scan of the mask; ``[c]`` = one ``max`` where the bound saturates;
each norm adds 4): a plain store costs ``1 + [c] + S + 1``; activation +
re-quantize ``1 + [c] + S + 2 + 1`` — for a snapped lane it is a function of
19 bits, one shift and one lookup (:func:`_act_table`; with a norm in
between, ``2 + 4 + [c] + S``); the sum tail
``1 + [c] + S + 2 + 2 + [c] + S + 1``.  LeakyReLU is ``maximum(x, x·slope)``
— exact for the compiled slopes ``0 < slope ≤ 1`` — instead of a mask and a
masked merge.

One slab rule decides the panels: a site whose whole-sample slab
(``m`` output columns of :func:`_column_bytes` each) exceeds
``_PANEL_BYTES`` is *blocked* — bounded panels of at most that slab, cut
over the panel slots, and the monolithic im2col buffer never
materializes; a site whose slab fits is one panel through the same
routine, epilogue and tails.  A formulation is one of two operand
orientations over one partition.  Which of them reproduce the module path's
contraction bit for bit is decided per problem shape by one calibration
probe (:func:`_gemm_matches`) before a formulation is used — behaviour is
never traded for speed: a shape whose probe rejects a formulation runs the
next one the probe accepts, and the chain ends in the module path's own
calls, which need no probe.  The module path contracts a sample as one
``np.dot`` per chunk of :func:`~repro.nn.convolution.gemm_chunk_rows`
whole output rows (a function of the problem shape alone), so that end of the
chain is the chunk partition in ``conv_forward``'s operand orientation,
and a probe compares its panels against exactly those chunk calls.  No
formulation, probe or oracle call builds a whole-sample im2col unless the
executor itself runs a whole-sample panel: a probe tiles each panel's
operand rows and computes the reference one chunk at a time
(:class:`_ProbeProblem`).

A panel is a row range of the flattened output grid, but a padded canvas is
not uniformly strided across that grid, so gathers and stores address a
panel as a few index boxes (:func:`~repro.nn.convolution.row_boxes`): one
in the 2-D case, more where a 3-D panel crosses a plane boundary.
Panels fan out over the plan's panel slots by one partition
(:func:`_partition`): at width ``T`` slot ``s`` owns the ``s``-th of ``T``
contiguous, near-equal row blocks and runs its panels in order, the last one
possibly narrower.  Slot 0 is the calling process; slots ``1 … T−1`` are
processes forked over the plan's :class:`Workspace`, whose buffers then live
in shared anonymous memory.  Every process runs the same :meth:`run` over
the same buffers: slot ``s`` runs only its own panels, and every write
outside panels (pools, upsamples, norms, stream stores, fills, heads)
touches only slot ``s``'s near-equal block of channels
(:func:`_channel_block`).  All of those writers cut the same blocks, so a
process reads back only channels it wrote itself until the next barrier:
the processes meet at a pipe barrier after every panel op, stream store
and fill, and once after the head.  Before the first run of
a geometry the caller makes a *dry pass* — leases, probes, partitions, slab
carving and gather maps, no array written — so the slots fork with every
buffer in place and never allocate.  A fork waits until no other thread of
the process is inside a plan (:class:`_ForkGate`), so a slot never inherits
a lock held inside BLAS.  Slots own private panel arenas and write
disjoint destination rows or channels, an op outside panels computes a
channel the same way in any block, and the probe walks exactly the
executor's partition, so output bits are identical at every width.

BatchNorm folding
-----------------

In eval mode a BatchNorm is the fixed per-channel affine ``s_c·x + t_c``
with ``s_c = γ_c/σ_c`` and ``t_c = β_c − μ_c·γ_c/σ_c``, and an affine
directly adjacent to a convolution folds into it algebraically: for
``BatchNorm → Conv`` the scale multiplies the conv's prequantized weight
*columns* (input-channel axis) and the shift collapses into the bias
epilogue ``b'_o = b_o + Σ_{c,k} W_{o,c,k}·t_c``; for ``Conv → BatchNorm``
the scale multiplies the weight *rows* (output-channel axis) and
``b'_o = b_o·s_o + t_o``.  :func:`fold_batchnorm` implements both
orientations; at compile time every ``BatchNorm → Conv`` adjacency is
fused *speculatively* and kept only where a calibration probe
(:func:`_bn_fold_matches`) proves the folded stage reproduces the exact
module chain — affine, entry quantize, contraction — bit for bit.  That
proof usually fails: the module computes ``Σ q(W)·q(s·x + t)`` while the
fold computes ``Σ (q(W)·s)·x + const``, a reassociation that changes fp32
rounding (and, in half mode, moves the fp16 grid snap across the affine)
for any non-trivial statistics.  Exactly as PR 3 did for the two huge
transposed-conv GEMM shapes, the stage then falls back — here to the
standalone ``bnorm`` affine pass, which replicates the module's eval-mode
ufunc chain verbatim and is therefore *always* bit-identical — and the
decision is recorded on :attr:`CompiledStagePlan.bn_folds` with the
reason.  ``Conv → BatchNorm`` pairs always run as conv + affine stage: the
folded conv's output would be off the fp16 grid, breaking the canvas
invariant that stored conv outputs are grid values.  Behaviour is never
traded for speed; the affine stage costs four elementwise passes, noise
next to the convolutions it sits between.

The contract, inherited by every plan the engine compiles, is **bit-identical
output**: for every input accepted by the module path, :meth:`run` returns
exactly the values ``nn.Sequential`` under ``nn.amp.autocast`` produces.
The test suite enforces this across 2D and 3D model variants and both
precision modes, for the encoders and for both decoder heads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import itertools
import math
import mmap
import os
import pickle
import select
import signal
import threading
import time
import weakref
from typing import NamedTuple, NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import nn
from ..nn.amp import quantize_fp16
from ..nn.convolution import (
    conv_forward,
    conv_transpose_output_shape,
    gemm_chunk_rows,
    row_boxes,
)
from ..nn.norm import BatchNormNd
from .blocks import DownBlock3d, ResBlock2d, UpBlock3d

__all__ = [
    "CONV_ENTRY_KINDS",
    "CompiledStagePlan",
    "DECODE_ENTRY_KINDS",
    "FP16_MAX",
    "PanelBudget",
    "SlotProcessError",
    "Workspace",
    "entry_kinds_ok",
    "fold_batchnorm",
    "panel_budget",
    "snap_to_grid",
    "stage_kinds",
]

#: Largest finite fp16 magnitude — the saturation point of quantize_fp16.
#: Public: the clip-elision interval analysis here, the decode entry clip in
#: :mod:`repro.core.fast_decode` and the static plan verifier
#: (:mod:`repro.analysis.plan_verifier`) all reason against this bound.
FP16_MAX = 65504.0

_FP16_MAX = FP16_MAX

_F32 = np.float32

#: Byte budget of one panel's slab (gathered operand + GEMM block + snap
#: scratch, see :func:`_column_bytes`), one constant at every width; a GEMM
#: site whose whole-sample slab exceeds it is blocked.  Panel
#: slots are processes, so a panel's ~20–35 numpy calls hand nothing over
#: and the slab is sized for the cache: at width 2 under slot processes,
#: 1, 2 and 4 MB tie on the paper-geometry BCAE-2D decode and 6 MB reads
#: ~1.3× slower; on the BCAE++ encode 1 and 2 MB tie and 6 MB reads ~1.25×
#: slower (docs/BENCHMARKS.md, the sweep under process slots).  The
#: smallest of the tie wins.
_PANEL_BYTES = 1 << 20

#: Byte size of one cache-resident block of the fused BatchNorm affine
#: kernel (see :meth:`_BNSpec.apply`).
_BN_BLOCK = 1 << 18

#: The BLAS libraries' own thread-count variables (OpenBLAS, OpenMP, MKL).
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")

#: Private width hook: plans compiled while it is set run at exactly this
#: width.  Width-invariance tests and the decode bench's sweep set it.
_FORCED_WIDTH: int | None = None


class PanelBudget(NamedTuple):
    """The intra-plan panel width and the three inputs it came from."""

    width: int
    cores: int
    blas_threads: int
    workers: int


def panel_budget(workers: int = 1) -> PanelBudget:
    """Derive the panel width from the cores this process may use.

    ``width = cores // (blas_threads · workers)``, floored at 1.  ``cores``
    is the CPU affinity (``taskset -c 0`` gives 1).  ``blas_threads`` is the
    largest BLAS variable set; unset, or any value that is not a positive
    integer (BLAS's variables, so never an error here), means BLAS owns
    every core — width 1.  ``workers`` counts the compressors run at once
    (inline's 0 counts as 1).  Payload bytes are identical at every width.
    """

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    counts = [os.environ[v].strip() for v in _BLAS_THREAD_VARS if v in os.environ]
    blas = (max(map(int, counts)) if counts and all(
        c.isdigit() and int(c) > 0 for c in counts) else cores)
    workers = max(1, workers)
    return PanelBudget(_FORCED_WIDTH or max(1, cores // (blas * workers)),
                       cores, blas, workers)


def _leaky_ok(*acts) -> bool:
    """LeakyReLU with ``0 < slope ≤ 1`` — the range on which the panel
    tails' merge ``maximum(x, x·slope)`` is the module's ``x·where(x > 0,
    1, slope)`` lane for lane; any other slope stays on the module path."""

    return all(isinstance(a, nn.LeakyReLU) and 0.0 < a.negative_slope <= 1.0
               for a in acts)


def _bn_compilable(m) -> bool:
    """Whether a BatchNorm is a compilable *eval-mode* affine.

    Training-mode BatchNorm outputs depend on the batch statistics of the
    call — not a fixed graph, stays on the module path (``model.eval()``
    first).  Non-fp32 parameters/buffers would change the module's ufunc
    dtypes, so they are rejected rather than silently replicated wrong.
    """

    return (
        not m.training
        and all(
            np.asarray(a).dtype == np.float32
            for a in (m.weight.data, m.bias.data, m.running_mean, m.running_var)
        )
    )


def _norm_ok(*norms) -> bool:
    return all(
        isinstance(m, nn.Identity)
        or (isinstance(m, BatchNormNd) and _bn_compilable(m))
        for m in norms
    )


def stage_kinds(stages) -> list[str] | None:
    """Classify ``stages`` into the compiled vocabulary.

    Returns one kind string per stage (see the module-docstring table) when
    every stage is compilable and the head-placement rules hold, else
    ``None``.  Use this as the guard before constructing a
    :class:`CompiledStagePlan`.  3D residual blocks compile with LeakyReLU
    activations and either no normalization (BCAE++/HT, §2.3) or eval-mode
    BatchNorm (the original BCAE); training-mode BatchNorm keeps the stack
    on the module path.
    """

    kinds: list[str] = []
    for stage in stages:
        if isinstance(stage, nn.Conv2d):
            kinds.append("conv")
        elif isinstance(stage, nn.Conv3d):
            kinds.append("conv3d")
        elif isinstance(stage, nn.ConvTranspose3d):
            kinds.append("convtranspose3d")
        elif isinstance(stage, nn.AvgPool2d):
            kinds.append("pool")
        elif isinstance(stage, nn.AvgPool3d):
            kinds.append("pool3d")
        elif isinstance(stage, nn.Upsample2d):
            kinds.append("up")
        elif isinstance(stage, nn.Upsample3d):
            kinds.append("up3d")
        elif isinstance(stage, ResBlock2d):
            if not _leaky_ok(stage.act1, stage.act2):
                return None
            kinds.append("res")
        elif isinstance(stage, DownBlock3d):
            if not _leaky_ok(stage.act1, stage.act2, stage.act3):
                return None
            if not _norm_ok(stage.norm1, stage.norm2, stage.norm3):
                return None
            kinds.append("down3d")
        elif isinstance(stage, UpBlock3d):
            if not _leaky_ok(stage.act1, stage.act2, stage.act3):
                return None
            if not _norm_ok(stage.norm1, stage.norm2, stage.norm3):
                return None
            kinds.append("upblock3d")
        elif isinstance(stage, BatchNormNd):
            if not _bn_compilable(stage):
                return None
            kinds.append("bnorm")
        elif isinstance(stage, nn.Sigmoid):
            kinds.append("sigmoid")
        elif isinstance(stage, nn.RegOutputTransform):
            kinds.append("regout")
        elif isinstance(stage, nn.Identity):
            kinds.append("identity")
        else:
            return None

    # run() returns the stored output of the last functional stage; only a
    # conv-like stage (whose stored grid values equal the module output
    # exactly) or a head directly downstream of one qualifies — a trailing
    # res/pool/up/bnorm would return the *quantized* store of an
    # unquantized module output.
    conv_like = ("conv", "conv3d", "convtranspose3d")
    heads = ("sigmoid", "regout")
    body = [k for k in kinds if k != "identity"]
    if not body or body[-1] not in conv_like + heads:
        return None
    for pos, kind in enumerate(body):
        if kind in heads and (pos != len(body) - 1 or body[pos - 1] not in conv_like):
            return None
    return kinds


#: Stage kinds whose first consumer is a convolution reading the quantized
#: input canvas — what an encoder-wrapper-snapped canvas may lead with.
CONV_ENTRY_KINDS = frozenset(
    {"conv", "conv3d", "convtranspose3d", "res", "down3d", "upblock3d"}
)

#: What a decoder-wrapper-prepared code canvas may lead with: the entry
#: prep there is a saturating *clip* of values already on the fp16 grid —
#: the identity on every payload a saturating compressor can produce — so
#: pools/upsamples (which consume the unquantized stream) stay bit-exact.
DECODE_ENTRY_KINDS = CONV_ENTRY_KINDS | {"pool", "pool3d", "up", "up3d"}


def entry_kinds_ok(kinds: list[str] | None, allowed: set[str],
                   entry: frozenset | set = CONV_ENTRY_KINDS) -> bool:
    """Kind-set check plus the shared entry-placement rule for wrappers.

    The encoder/decoder wrappers prepare the input canvas once, standing in
    for the *first convolution's* entry quantize, so the first functional
    stage must come from ``entry``.  The encoder wrapper grid-snaps
    arbitrary network input — a leading pool/upsample/``bnorm`` consumes
    the unquantized stream in the module path, and a pre-snapped canvas
    would break bit identity (``CONV_ENTRY_KINDS``).  The decoder wrapper
    only clips grid-valued codes, which additionally makes leading
    pools/upsamples exact (``DECODE_ENTRY_KINDS``).  A leading ``bnorm``
    never compiles through a wrapper.  Every model-zoo encoder starts with
    a convolution or residual block; the BCAE-2D decoders start with an
    upsample.
    """

    if kinds is None or not set(kinds) <= allowed:
        return False
    body = [k for k in kinds if k != "identity"]
    return bool(body) and body[0] in entry


@dataclasses.dataclass
class _ConvSpec:
    """One convolution with its weight pre-transposed into GEMM layout."""

    wt: np.ndarray   # (C*prod(k), O) F-contiguous — tensordot's right operand
    wtT: np.ndarray  # (O, C*prod(k)) C-contiguous — the transposed-GEMM operand
    bias: np.ndarray | None
    bias_col: np.ndarray | None  # (O, 1) view for the transposed orientation
    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[tuple[int, int], ...]
    out_channels: int
    w_l1: float     # max over output channels of Σ|w| — bound slope
    bias_max: float
    w_raw: np.ndarray | None = None  # (O, C, *k) prequantized — fold source
    #: Output-channel split of a stacked spec (see :meth:`stacked`).
    members: tuple[int, ...] | None = None

    @classmethod
    def stacked(cls, a: "_ConvSpec", b: "_ConvSpec") -> "_ConvSpec | None":
        """Two convolutions over one input as one GEMM operand: ``wtT``
        rows ``[:o_a]`` are ``a``'s, the rest ``b``'s, biases concatenated.
        None unless both read the same im2col operand through the same
        epilogue (kernel, stride, padding, bias presence); whether the
        stacked rows reproduce each member's own contraction is decided per
        problem shape by the ``splits=`` form of the calibration probe."""

        if ((a.kernel, a.stride, a.padding, a.wtT.shape[1], a.bias is None)
                != (b.kernel, b.stride, b.padding, b.wtT.shape[1],
                    b.bias is None)):
            return None
        wtT = np.concatenate((a.wtT, b.wtT))
        bias = None if a.bias is None else np.concatenate((a.bias, b.bias))
        return dataclasses.replace(
            a, wt=np.asfortranarray(wtT.T), wtT=wtT, bias=bias,
            bias_col=None if bias is None else bias.reshape(-1, 1),
            out_channels=a.out_channels + b.out_channels,
            w_l1=max(a.w_l1, b.w_l1), bias_max=max(a.bias_max, b.bias_max),
            w_raw=None, members=(a.out_channels, b.out_channels))

    @classmethod
    def _from_weight(cls, w: np.ndarray, bias, kernel, stride, padding) -> "_ConvSpec":
        o = w.shape[0]
        nd = w.ndim - 2
        k = int(np.prod(kernel))
        # tensordot reshapes the transposed kernel into an F-contiguous
        # (K, O) view; BLAS picks its kernel by operand layout, so the
        # cached weight must keep that exact layout to stay bit-identical.
        wt = np.asfortranarray(
            w.transpose(tuple(range(1, 2 + nd)) + (0,)).reshape(w.shape[1] * k, o),
            dtype=np.float32,
        )
        bias = None if bias is None else bias.astype(np.float32)
        return cls(
            wt=wt,
            wtT=np.ascontiguousarray(wt.T),
            bias=bias,
            bias_col=None if bias is None else bias.reshape(-1, 1),
            kernel=tuple(kernel),
            stride=tuple(stride),
            padding=tuple(padding),
            out_channels=o,
            w_l1=float(np.abs(w.reshape(o, -1)).sum(axis=1).max()),
            bias_max=0.0 if bias is None else float(np.abs(bias).max()),
            w_raw=np.ascontiguousarray(w, dtype=np.float32),
        )

    @classmethod
    def from_module(cls, conv, half: bool) -> "_ConvSpec":
        w = quantize_fp16(conv.weight.data) if half else np.asarray(conv.weight.data)
        bias = None if conv.bias is None else conv.bias.data
        return cls._from_weight(w, bias, conv.kernel_size, conv.stride, conv.padding)

    def out_bound(self, in_bound: float) -> float:
        """Rigorous |output| bound given an |input| magnitude bound."""

        return self.w_l1 * in_bound + self.bias_max

    def out_spatial(self, padded: tuple[int, ...]) -> tuple[int, ...]:
        """Output spatial shape over a canvas of (padded) spatial shape."""

        return tuple((p - k) // s + 1
                     for p, k, s in zip(padded, self.kernel, self.stride))


@dataclasses.dataclass
class _ConvTSpec:
    """A transposed convolution compiled to the conv the adjoint runs.

    ``conv_input_grad`` dilates its input by ``stride``, pads by ``k - 1``
    and correlates with the flipped, channel-swapped kernel at stride 1;
    :attr:`spec` is that stride-1 convolution with the effective kernel
    prepared in GEMM layout (quantized first, exactly like the module
    path).  The original transposed-convolution geometry is kept for the
    output-shape computation and the crop.
    """

    spec: _ConvSpec
    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[tuple[int, int], ...]
    output_padding: tuple[int, ...]
    #: Store-spec of the dilated input canvas this stage consumes.
    store_padding: tuple[tuple[int, int], ...]
    dilation: tuple[int, ...]

    @classmethod
    def from_module(cls, convt, half: bool) -> "_ConvTSpec":
        w = quantize_fp16(convt.weight.data) if half else np.asarray(convt.weight.data)
        nd = w.ndim - 2
        flip = (slice(None), slice(None)) + (slice(None, None, -1),) * nd
        weff = np.ascontiguousarray(np.swapaxes(w[flip], 0, 1))  # (O, I, *k)
        bias = None if convt.bias is None else convt.bias.data
        spec = _ConvSpec._from_weight(
            weff, bias, convt.kernel_size, (1,) * nd,
            tuple((k - 1, k - 1) for k in convt.kernel_size),
        )
        return cls(
            spec=spec,
            kernel=tuple(convt.kernel_size),
            stride=tuple(convt.stride),
            padding=tuple(convt.padding),
            output_padding=tuple(convt.output_padding),
            store_padding=tuple((k - 1, k - 1) for k in convt.kernel_size),
            dilation=tuple(convt.stride),
        )

    @classmethod
    def stacked(cls, a: "_ConvTSpec", b: "_ConvTSpec") -> _ConvSpec | None:
        """:meth:`_ConvSpec.stacked` of two transposed convolutions over one
        dilated canvas; their geometry, hence their crop, must agree too."""

        if ((a.kernel, a.stride, a.padding, a.output_padding)
                != (b.kernel, b.stride, b.padding, b.output_padding)):
            return None
        return _ConvSpec.stacked(a.spec, b.spec)

    @property
    def out_channels(self) -> int:
        return self.spec.out_channels

    def out_spatial(self, spatial: tuple[int, ...]) -> tuple[int, ...]:
        return conv_transpose_output_shape(
            spatial, self.kernel, self.stride, self.padding, self.output_padding
        )

    def out_bound(self, in_bound: float) -> float:
        return self.spec.out_bound(in_bound)


@dataclasses.dataclass
class _BNSpec:
    """One eval-mode BatchNorm as the per-channel affine it is (§ fold docs).

    :attr:`mean` / :attr:`inv_std` / :attr:`gamma` / :attr:`beta` are the
    operands of the module's exact four-ufunc eval chain
    ``((x − μ)·inv_std)·γ + β`` (``inv_std`` precomputed with the module's
    own expression ``1.0 / np.sqrt(running_var + eps)``);
    :attr:`scale` / :attr:`shift` are the composed single-affine
    coefficients the fold uses.  Statistics are snapshot at construction —
    rebuild after training (the compressor's fingerprint covers buffers).
    """

    mean: np.ndarray      # (C,) running_mean
    inv_std: np.ndarray   # (C,) 1/sqrt(running_var + eps), module arithmetic
    gamma: np.ndarray     # (C,) weight
    beta: np.ndarray      # (C,) bias
    scale: np.ndarray     # (C,) folded affine slope  s = inv_std·γ
    shift: np.ndarray     # (C,) folded affine offset t = β − μ·s
    num_features: int

    @classmethod
    def from_module(cls, bn) -> "_BNSpec":
        mean = np.asarray(bn.running_mean, dtype=np.float32)
        var = np.asarray(bn.running_var, dtype=np.float32)
        # The module's exact expression (NEP 50: python-float eps stays
        # weak, the chain is fp32 end to end).
        inv_std = 1.0 / np.sqrt(var + bn.eps)
        gamma = np.asarray(bn.weight.data, dtype=np.float32)
        beta = np.asarray(bn.bias.data, dtype=np.float32)
        scale = (inv_std * gamma).astype(np.float32)
        shift = (beta - mean * scale).astype(np.float32)
        return cls(
            mean=mean,
            inv_std=inv_std.astype(np.float32),
            gamma=gamma,
            beta=beta,
            scale=scale,
            shift=shift,
            num_features=int(mean.shape[0]),
        )

    # ------------------------------------------------------------------
    def _col(self, a: np.ndarray, ndim: int, ch: slice) -> np.ndarray:
        return a[ch].reshape((-1,) + (1,) * (ndim - 1))

    def apply(self, ws: "Workspace", key, src: np.ndarray,
              ch: slice) -> np.ndarray:
        """The module's eval forward on a channel-major stream, verbatim.

        Returns the workspace buffer ``(key, "bn")``, of which the channels
        ``ch`` are filled (a panel slot's block; none in a plan's dry
        pass).

        The chain is the module's exact four fp32 ufuncs — subtract μ,
        multiply inv_std, multiply γ, add β.  Elementwise fp32 ops round
        identically regardless of layout or blocking, so the values are bit
        for bit the module path's ``(x_hat·γ + β)`` on the same stream.

        Two traversals implement that same chain:

        * the broadcast path — four whole-array passes with per-channel
          operand columns, used for small streams;
        * the fused path — one pass over memory: per channel the stream
          is cut into ``_BN_BLOCK``-sized row blocks, the first
          subtract pulls a block out of the (possibly strided) source into
          the contiguous output once, and the remaining three ufuncs rewrite
          it while it is cache-resident with *scalar* per-channel operands.
          Each element is loaded from DRAM once and stored once, versus four
          load/store round trips for the broadcast path.
        """

        out = ws.get((key, "bn"), src.shape)
        if src[:1].nbytes <= _BN_BLOCK:
            self.chain(src[ch], out[ch], ch)
            return out
        mean, inv_std, gamma, beta = self.mean, self.inv_std, self.gamma, self.beta
        sp0 = src.shape[1]
        step = max(1, _BN_BLOCK // max(src[0].nbytes // sp0, 1))
        for ci in range(*ch.indices(src.shape[0])):
            mu, i, g, b = mean[ci], inv_std[ci], gamma[ci], beta[ci]
            for z0 in range(0, sp0, step):
                blk = out[ci, z0:z0 + step]
                np.subtract(src[ci, z0:z0 + step], mu, out=blk)
                np.multiply(blk, i, out=blk)
                np.multiply(blk, g, out=blk)
                np.add(blk, b, out=blk)
        return out

    def chain(self, src: np.ndarray, out: np.ndarray,
              ch: slice = slice(None)) -> np.ndarray:
        """The four-ufunc chain, broadcast over a channel-major array
        holding channels ``ch`` (``out`` may be ``src`` — how the panel
        tails run it in place)."""

        nd = src.ndim
        np.subtract(src, self._col(self.mean, nd, ch), out=out)
        np.multiply(out, self._col(self.inv_std, nd, ch), out=out)
        np.multiply(out, self._col(self.gamma, nd, ch), out=out)
        np.add(out, self._col(self.beta, nd, ch), out=out)
        return out

    def apply_channels(self, vals: np.ndarray) -> np.ndarray:
        """The same chain on a per-channel ``(C,)`` vector (fill values)."""

        x_hat = (vals - self.mean) * self.inv_std
        return x_hat * self.gamma + self.beta

    def out_bound(self, in_bound: float) -> float:
        """Rigorous |output| bound given an |input| magnitude bound.

        ``|((x−μ)·i)·γ + β| ≤ |i·γ|·(|x|+|μ|) + |β|`` per channel; computed
        in float64 and inflated by 1 ppm to stay an upper bound on the
        module's fp32 intermediate roundings (bounds only gate clip
        elision, so inflation is always safe).
        """

        s = np.abs(self.inv_std.astype(np.float64) * self.gamma.astype(np.float64))
        b = s * (in_bound + np.abs(self.mean.astype(np.float64)))
        b += np.abs(self.beta.astype(np.float64))
        return float(b.max() * (1.0 + 1e-6))


def fold_batchnorm(bn_spec, conv_weight: np.ndarray, conv_bias,
                   direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Fold a BatchNorm affine into an adjacent convolution's weight/bias.

    ``direction="bn_conv"`` folds ``Conv(BN(x))``: the per-input-channel
    scale ``s_c`` multiplies the weight *columns* and the shift enters the
    bias epilogue as ``b'_o = b_o + Σ_{c,k} W_{o,c,k}·t_c``.
    ``direction="conv_bn"`` folds ``BN(Conv(x))``: the per-output-channel
    scale multiplies the weight *rows* and ``b'_o = b_o·s_o + t_o``.
    ``conv_weight`` is the (prequantized, in half mode) ``(O, C, *k)``
    kernel.  Returns ``(folded_weight, folded_bias)`` as fp32 arrays.

    This is exact *algebra*, not exact *floating point*: whether the folded
    stage reproduces the module chain bit for bit is decided by the
    calibration probe (:func:`_bn_fold_matches`), never assumed.  Two
    caveats the probe also covers: the ``bn_conv`` bias absorption assumes
    every kernel tap reads a normalized value, which zero padding violates
    at the borders whenever ``t ≠ 0`` (the module pads the *normalized*
    map with zeros, not with ``t``); and any fold reassociates fp32
    products.  Either effect fails the probe and keeps the exact affine
    stage.
    """

    if direction not in ("bn_conv", "conv_bn"):
        raise ValueError(f"unknown fold direction {direction!r}")
    w = np.asarray(conv_weight, dtype=np.float32)
    o = w.shape[0]
    nd = w.ndim - 2
    s, t = bn_spec.scale, bn_spec.shift
    if direction == "bn_conv":
        w_f = (w * s.reshape((1, -1) + (1,) * nd)).astype(np.float32)
        shift_in = (w.reshape(o, w.shape[1], -1)
                    * t.reshape(1, -1, 1)).sum(axis=(1, 2), dtype=np.float32)
        b_f = shift_in if conv_bias is None else (conv_bias + shift_in)
    else:
        w_f = (w * s.reshape((-1, 1) + (1,) * nd)).astype(np.float32)
        b_f = t.copy() if conv_bias is None else (conv_bias * s + t)
    return w_f, b_f.astype(np.float32)


def _bn_fold_matches(bn_spec, spec: "_ConvSpec", folded: "_ConvSpec",
                     half: bool) -> bool:
    """Calibrate one speculative ``BatchNorm → Conv`` fold.

    The exact chain is ``q(((x−μ)·i)·γ + β)`` into the convolution (``q``
    is the fp16-grid entry quantize in half mode, identity in full); the
    folded chain is ``q(x)`` into the scale/shift-fused weights.  One dense
    probe — random values across the exponent range, exact zeros and
    negatives, values straddling the fp16 denormal boundary where
    power-of-two scale folds break — is pushed through both.

    Returns whether the final (post-quantize, in half mode) outputs are
    bit-equal.  Any deviation rejects the fold and the stage runs as the
    exact affine pass instead; for non-trivial statistics the reassociated
    fp32 rounding deviates and this probe is expected to reject (recorded
    on the plan).  Behaviour is never traded for speed.
    """

    nd = len(spec.kernel)
    c = spec.w_raw.shape[1]
    rng = np.random.default_rng(0xB409)
    spatial = tuple(k + s for k, s in zip(spec.kernel, spec.stride))
    x = rng.standard_normal((2, c) + spatial).astype(np.float32)
    x *= np.float32(2.0) ** rng.integers(-24, 5, x.shape).astype(np.float32)
    # Exact zeros/negatives and fp16-denormal-boundary lanes.
    flat = x.reshape(-1)
    flat[:: 7] = 0.0
    flat[1:: 11] *= np.float32(-1.0)
    flat[2:: 13] = np.float32(2.0 ** -14) * flat[2:: 13].clip(-2.0, 2.0)

    def q(a):
        return quantize_fp16(a) if half else a

    shape = (1, c) + (1,) * nd
    x_hat = (x - bn_spec.mean.reshape(shape)) * bn_spec.inv_std.reshape(shape)
    bn_out = x_hat * bn_spec.gamma.reshape(shape) + bn_spec.beta.reshape(shape)
    ref = conv_forward(q(bn_out), spec.w_raw, spec.stride, spec.padding,
                       bias=spec.bias)
    got = conv_forward(q(x), folded.w_raw, folded.stride, folded.padding,
                       bias=folded.bias)
    if half:
        return bool(np.array_equal(quantize_fp16(got), quantize_fp16(ref)))
    return bool(np.array_equal(got, ref))


def _try_fold_bn_conv(bn_spec, spec: "_ConvSpec",
                      half: bool) -> tuple["_ConvSpec | None", str]:
    """Speculatively fold ``BN → Conv``.

    Returns ``(folded spec | None, reason)``: only a probe-proven bit-equal
    fold is kept.
    """

    w_f, b_f = fold_batchnorm(bn_spec, spec.w_raw, spec.bias, "bn_conv")
    folded = _ConvSpec._from_weight(w_f, b_f, spec.kernel, spec.stride,
                                    spec.padding)
    if _bn_fold_matches(bn_spec, spec, folded, half):
        return folded, "folded: probe proved bit-equality"
    return None, ("kept affine stage: fold reassociates fp32 rounding "
                  "(calibration probe mismatch on this build)")


#: None until calibrated: whether the integer round-to-nearest-even grid
#: snap reproduces numpy's f32→f16→f32 cast pair bit for bit on this build.
_FAST_SNAP_OK: bool | None = None

#: f32 bit patterns: |x| below this is in the f16 denormal range (2^-14).
_F16_NORMAL_MIN_BITS = np.uint32(0x38800000)
_FP16_MAX_BITS = np.float32(_FP16_MAX).view(np.uint32)
_ABS_MASK = np.uint32(0x7FFFFFFF)
_ROUND_BIAS = np.uint32(0x0FFF)
_MANTISSA_KEEP = np.uint32(0xFFFFE000)
#: fp32 spacing around 0.75 is exactly 2^-24 — the f16 denormal grid — so
#: (x + 0.75) - 0.75 is an exact round-to-nearest-even onto that grid for
#: every |x| < 0.25 (Sterbenz: the subtraction is exact).
_DENORM_MAGIC = np.float32(0.75)


def _denormal_dense(src: np.ndarray, uf: np.ndarray, mask: np.ndarray,
                    d: np.ndarray) -> None:
    """Exact RNE of the ``mask`` lanes onto the 2^-24 grid via the magic
    add (ties land on the sum's mantissa parity = the grid index parity),
    computed full-array then merged by mask.  The magic add collapses -tiny
    to +0.0 where the cast keeps -0.0, so the source sign is copied back
    (a no-op on every nonzero lane).  errstate hides the invalid flag of
    signalling-NaN lanes (never selected)."""

    with np.errstate(invalid="ignore"):
        np.add(src, _DENORM_MAGIC, out=d)
    np.subtract(d, _DENORM_MAGIC, out=d)
    np.copysign(d, src, out=d)
    np.copyto(uf, d, where=mask)


def _snap_bits(src: np.ndarray, u: np.ndarray, uf: np.ndarray,
               mask: np.ndarray, d: np.ndarray,
               clip: np.ndarray | None = None) -> np.ndarray:
    """Round fp32 ``src`` to the f16 grid; returns ``uf``.

    numpy's f16 conversions are software on many builds (~20× slower than a
    copy), and the quantize-everywhere semantics of §3.3 make them the hot
    path's single largest cost.  This is the same round-to-nearest-even in
    vectorized integer ops: add ``0x0FFF + lsb`` at the 13-bit boundary and
    mask (IEEE bit encoding carries mantissa rollover into the exponent
    correctly), with the lanes of the f16-denormal range (|x| < 2^-14,
    coarser fixed grid) fixed up after it: gathered and cast (a panel has a
    handful), or by the exact magic-add over the full array once they are
    the majority (a network-entry wedge is mostly zeros; the two costs
    cross there).  ``u``/``mask``/``d`` are caller-owned scratch of ``src``'s
    shape and ``uf``, the fp32 view of ``u``, doubles as the result; a
    panel's arrays are re-fetched cold after every GEMM, so only ``src``,
    ``u`` and the byte ``mask`` are touched (``|x|`` lives in ``u`` until
    the rounding overwrites it, ``d`` is for the dense fix-up).

    Domain: ``|x| ≤ 65504`` plus NaN and ±inf lanes, which pass through
    like the cast pair.  A caller whose bound does not prove that passes
    ``clip``, the array receiving ``quantize_fp16``'s saturating clip
    (``src`` itself to clip in place); the clip runs only if some lane's
    ``|x|`` bits exceed 65504's (NaN and inf do) — else it is the identity.
    """

    bits = src.view(np.uint32)
    np.bitwise_and(bits, _ABS_MASK, out=u)
    if clip is not None and u.max() > _FP16_MAX_BITS:
        src = np.clip(src, -_FP16_MAX, _FP16_MAX, out=clip)
        bits = src.view(np.uint32)
        np.bitwise_and(bits, _ABS_MASK, out=u)
    np.less(u, _F16_NORMAL_MIN_BITS, out=mask)
    np.right_shift(bits, 13, out=u)
    np.bitwise_and(u, np.uint32(1), out=u)
    np.add(u, _ROUND_BIAS, out=u)
    np.add(bits, u, out=u)
    np.bitwise_and(u, _MANTISSA_KEEP, out=u)
    lanes = mask.ravel().nonzero()[0]
    if 2 * lanes.size > mask.size:
        _denormal_dense(src, uf, mask, d)
    elif lanes.size:
        uf.flat[lanes] = src.flat[lanes].astype(np.float16)  # the reference
    return uf


def _fast_snap_ok() -> bool:
    """Calibrate :func:`_snap_bits` against numpy's cast pair, once.

    The probe covers every f16 bit pattern (all grid points, ±inf, NaNs),
    rounding midpoints on both sides, the denormal/normal boundary, dense
    randoms across the exponent range and lanes beyond ±65504 (the gated
    clip against ``np.clip``); equality is checked on raw bits.  Every
    lane is presented to both denormal fix-ups: a few denormal-range lanes
    at a time among normal ones, and densely.  A build where any lane of
    either deviates falls back to the two-cast path — behaviour is never
    traded for speed.
    """

    global _FAST_SNAP_OK
    if _FAST_SNAP_OK is None:
        grid = np.arange(65536, dtype=np.uint16).view(np.float16).astype(np.float32)
        finite = grid[np.isfinite(grid)]
        rng = np.random.default_rng(0xF16)
        pos = finite[finite > 0]
        # Exact midpoints between adjacent grid points — the
        # round-half-to-even cases — on both sides of zero.
        mid = (pos[:-1] + pos[1:]) * np.float32(0.5)
        # Lanes below the smallest grid step: 2^-25 is the tie that rounds
        # to (signed) zero, and the cast keeps the sign of -tiny and -0.0.
        tiny = np.float32(2.0) ** np.arange(-30, -22).astype(np.float32)
        tiny = np.concatenate([tiny, np.float32(1.5) * tiny, np.float32([0.0])])
        v = np.concatenate([
            grid,
            np.nextafter(finite, np.float32(np.inf), dtype=np.float32),
            np.nextafter(finite, np.float32(-np.inf), dtype=np.float32),
            mid, -mid, tiny, -tiny,
            # A wide random sweep, reaching past ±65504.
            (rng.uniform(-1.0, 1.0, 4096).astype(np.float32)
             * np.float32(2.0) ** rng.integers(-30, 20, 4096).astype(np.float32)),
        ])

        def agrees(lanes: np.ndarray, ref: np.ndarray, clip: bool) -> bool:
            u = np.empty(lanes.shape, np.uint32)
            out = _snap_bits(lanes, u, u.view(np.float32),
                             np.empty(lanes.shape, np.bool_),
                             np.empty_like(lanes),
                             np.empty_like(lanes) if clip else None)
            return np.array_equal(out.view(np.uint32), ref.view(np.uint32))

        def both(lanes: np.ndarray, clip: bool) -> bool:
            # Every lane for each denormal fix-up: as they come (one lane
            # in thirty is denormal-range: gathered), then the normal ones
            # outnumbered by the denormal-range ones repeated (dense).
            ref = np.clip(lanes, -_FP16_MAX, _FP16_MAX) if clip else lanes
            ref = ref.astype(np.float16).astype(np.float32)
            low = np.abs(lanes) < np.float32(2.0 ** -14)
            few, rest = np.flatnonzero(low), np.flatnonzero(~low)
            dense = np.hstack([rest, np.resize(few, rest.size + 1)])
            return (agrees(lanes, ref, clip)
                    and agrees(lanes[dense], ref[dense], clip))

        # The call domain (|x| ≤ 65504 and the non-finite lanes) unclipped,
        # then every lane through the gated clip.
        beyond = np.isfinite(v) & (np.abs(v) > np.float32(_FP16_MAX))
        _FAST_SNAP_OK = both(v[~beyond], False) and both(v, True)
    return _FAST_SNAP_OK


def _scratch(ws: "Workspace", key, shape, *extra):
    """Scratch of one snap site, carved out of the grow-only arena ``key``.

    Returns ``(scr, extras)``: ``scr = (u, uf, mask, d, s16)`` is the
    :func:`_snap_bits` bundle (``uf``, the fp32 view of ``u``, is the snap
    result) and the fp16 staging of the cast-pair fallback — of which a
    snap touches ``u`` and ``mask`` only unless it meets dense denormal
    lanes or the fallback; ``extras`` are the requested ``(shape, dtype)``
    arrays.  An arena serves every site in turn, so its bytes are bounded
    by the largest request and the pages a site never touches never fault
    in.
    """

    u, mask, d, s16, *rest = ws.carve(
        key, (shape, np.uint32), (shape, np.bool_), (shape, _F32),
        (shape, np.float16), *extra)
    return (u, u.view(_F32), mask, d, s16), rest


def _snap(src: np.ndarray, scr: tuple,
          clip: np.ndarray | None = None) -> np.ndarray:
    """``quantize_fp16`` on ``src``: returns ``scr``'s result array holding
    the values snapped onto the fp16 grid — :func:`_snap_bits` where
    calibration proved it bit-equal, else (and for non-fp32 input) the
    clip and the two casts themselves.  ``clip`` is None where the
    caller's bound proves ``|x| ≤ 65504``, else the clip's destination."""

    if src.dtype == np.float32 and _fast_snap_ok():
        return _snap_bits(src, *scr[:4], clip)
    if clip is not None:
        src = np.clip(src, -_FP16_MAX, _FP16_MAX, out=clip)
    np.copyto(scr[4], src, casting="unsafe")
    np.copyto(scr[1], scr[4])
    return scr[1]


def snap_to_grid(src: np.ndarray) -> np.ndarray:
    """``quantize_fp16`` of an fp32 array with ``|x| ≤ 65504``, as a new
    array, through the snap a plan's stream stores run
    (:meth:`CompiledStagePlan._grid`, its clip elided there by the same
    bound).  For tables built once — the encoder's integer-ADC entry
    table — not for a hot path."""

    scr, _ = _scratch(Workspace(), "grid", src.shape)
    return _snap(src, scr).copy()


def _act(v: np.ndarray, t: np.ndarray, slope: float, bn=None) -> np.ndarray:
    """LeakyReLU (→ norm) of a finished block into the temporary ``t``.

    ``maximum(x, x·slope)`` is the module's ``x·where(x > 0, 1, slope)``
    for ``0 < slope ≤ 1`` (the only slopes compiled): positive lanes keep
    their exact value (``x·slope ≤ x``), the rest become the fp32 product.
    """

    np.multiply(v, np.float32(slope), out=t)
    np.maximum(v, t, out=t)
    return t if bn is None else bn.chain(t, t)


@functools.lru_cache(maxsize=None)
def _act_table(slope: float, clip: bool) -> np.ndarray:
    """The ``act+requant`` tail as a lookup, shared read-only by every plan.

    A snapped lane is one of 2^19 ``(sign, exponent, 10-bit mantissa)``
    patterns — its f32 bits ``>> 13`` — and LeakyReLU → (``clip`` →) snap
    is a pure function of it: entry ``i`` holds the f32 bits the tail's own
    sequence, run here, gives pattern ``i``.  (Finite patterns beyond ±65504
    are off the snap's domain and never indexed: no first snap emits one.)
    """

    x = (np.arange(1 << 19, dtype=np.uint32) << np.uint32(13)).view(_F32)
    scr, (t,) = _scratch(Workspace(), "table", x.shape, (x.shape, _F32))
    with np.errstate(invalid="ignore", over="ignore"):  # sNaN, off-domain
        table = _snap(_act(x, t, slope), scr, t if clip else None)
    table = table.view(np.uint32).copy()
    table.flags.writeable = False
    return table


def _crop_box(idx: tuple, dims, lo, hi):
    """Map one row box onto a destination that keeps ``[lo, hi)`` per axis.

    ``idx`` indexes ``dims[:-1]`` (the innermost axis is always whole).
    Returns ``(vshape, vsel, didx)`` — reshape the box's ``(O, rows, ow)``
    panel rows to ``vshape``, select ``vsel``, and the result is what
    belongs at ``dest[didx]`` — or None when the box lies outside the crop
    (a transposed convolution's discarded margin).
    """

    idx = idx + (slice(None),)
    spans = [(i, i + 1) if isinstance(i, int) else i.indices(dim)[:2]
             for i, dim in zip(idx, dims)]
    cut = [(max(a, l), min(b, h)) for (a, b), l, h in zip(spans, lo, hi)]
    if any(a >= b for a, b in cut):
        return None
    axes = [(s, c, l) for i, s, c, l in zip(idx, spans, cut, lo)
            if not isinstance(i, int)]
    return (
        (-1,) + tuple(b - a for (a, b), _c, _l in axes),
        (slice(None),) + tuple(slice(a2 - a, b2 - a)
                               for (a, _b), (a2, b2), _l in axes),
        (slice(None),) + tuple(
            a2 - l if isinstance(i, int) else slice(a2 - l, b2 - l)
            for i, (a2, b2), l in zip(idx, cut, lo)),
    )


def _rows(v: np.ndarray, box: tuple) -> np.ndarray:
    """The view of channel-major panel values ``v`` that ``box`` stores."""

    j0, j1, vshape, vsel, _didx = box
    return v[:, j0:j1].reshape(vshape)[vsel]


def _panel_map(view: np.ndarray, pre: tuple, r0: int, r1: int, dims, lo, hi):
    """Box maps of the panel holding output rows ``[r0, r1)``.

    Returns ``(gather, store)``: ``gather`` lists ``(j0, j1, src)`` — panel
    rows ``j0:j1`` are copied from the window view ``src`` — and ``store``
    lists ``(j0, j1, vshape, vsel, didx)`` boxes for :func:`_rows` and the
    destination index (see :func:`_crop_box`; cropped-out boxes dropped).
    """

    boxes = row_boxes(r0, r1, dims[:-1])
    stores = [(j0, j1, _crop_box(idx, dims, lo, hi)) for j0, j1, idx in boxes]
    return ([(j0, j1, view[pre + idx]) for j0, j1, idx in boxes],
            [(j0, j1) + box for j0, j1, box in stores if box])


#: Length of the calibration probes' random pool (:func:`_probe_pool`): a
#: prime above every im2col ``K`` of the zoo models (at most 1 536), so any
#: ``L`` consecutive probe operand rows are pairwise distinct
#: (:class:`_ProbeProblem`).
_PROBE_POOL_LEN = 1_048_583


@functools.cache
def _probe_pool() -> np.ndarray:
    """The per-process standard-normal pool every calibration probe tiles
    its operands from (seed ``0xB10C``, 4 MB, drawn once, read-only)."""

    pool = np.random.default_rng(0xB10C).standard_normal(
        _PROBE_POOL_LEN, dtype=np.float32)
    pool.flags.writeable = False
    return pool


def _tile(out: np.ndarray, start: int) -> np.ndarray:
    """Fill the C-contiguous ``out`` with the periodic repetition of
    :func:`_probe_pool` from flat offset ``start`` on (a few memcpys)."""

    pool, flat = _probe_pool(), out.reshape(-1)
    i, off = 0, start % _PROBE_POOL_LEN
    while i < flat.size:
        n = min(flat.size - i, _PROBE_POOL_LEN - off)
        flat[i:i + n] = pool[off:off + n]
        i, off = i + n, 0
    return out


class _ProbeProblem:
    """Operands and reference of one GEMM calibration probe, built a chunk
    at a time: a dense-random ``(rows, K)`` im2col stand-in ``a``, an
    F-contiguous ``(K, o)`` kernel :attr:`b` and the reference contraction
    of the two — ``conv_forward``'s own calls, one ``np.dot`` of a
    C-contiguous ``(P, K)`` chunk of ``a`` per chunk of
    :func:`~repro.nn.convolution.gemm_chunk_rows` whole rows of width
    ``ow``.  ``splits`` are the member widths of a stacked operand
    (:meth:`_ConvSpec.stacked`): each member's columns are then contracted
    on their own, as its own site would — BLAS may accumulate an
    ``o``-column product differently from the narrower ones it stands for.

    ``a`` then ``b`` are the periodic repetition of :func:`_probe_pool`, so
    row ``i`` of ``a`` is the pool window starting at ``i·K mod L`` (``L``
    = :data:`_PROBE_POOL_LEN`).  ``L`` is a prime above ``K``, so
    ``i·K ≡ j·K (mod L)`` only where ``i ≡ j``: any ``L`` consecutive rows
    are pairwise distinct, and every element is still a dense
    standard-normal value.  Tiling is a memcpy; drawing costs ~20 ns an
    element, which at paper geometry is most of a probe.

    Neither ``a`` nor the reference is ever whole: :meth:`panel` hands out
    the rows of one executor panel, tiling each chunk's operand rows and
    computing its reference when the walk first reaches it.  One chunk is
    held at a time, so a probe costs a chunk of operand (``P·K`` floats)
    whatever the site's size, and a walk in panel order computes every
    chunk once.
    """

    def __init__(self, rows: int, K: int, o: int, ow: int,
                 splits: tuple[int, ...] | None = None) -> None:
        self.rows, self.splits = rows, splits
        #: Output columns per chunk of the reference contraction.
        self.span = gemm_chunk_rows(K, ow) * ow
        n = min(self.span, rows)
        self.b = np.asfortranarray(_tile(np.empty((K, o), _F32), rows * K))
        self._a = np.empty((n, K), _F32)
        self._want = np.empty((n, o), _F32)
        self._staged = (np.empty(n * max(splits), _F32) if splits else None)
        self._held = -1

    def _fill(self, out: np.ndarray, r0: int) -> None:
        """Operand rows ``r0 … r0 + len(out)`` into ``out``."""

        _tile(out, r0 * out.shape[1])

    def _contract(self, a: np.ndarray, want: np.ndarray) -> None:
        """The reference of one chunk's operand rows ``a`` into ``want``."""

        if not self.splits:
            np.dot(a, self.b, out=want)
            return
        lo = 0
        for w in self.splits:  # np.dot wants a contiguous out: stage it
            out = self._staged[:a.shape[0] * w].reshape(-1, w)
            want[:, lo:lo + w] = np.dot(a, self.b[:, lo:lo + w], out=out)
            lo += w

    def _chunk(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Operand rows and reference of chunk ``j``, the last narrower."""

        lo = j * self.span
        n = min(self.span, self.rows - lo)
        a, want = self._a[:n], self._want[:n]
        if j != self._held:
            self._fill(a, lo)
            self._contract(a, want)
            self._held = j
        return a, want

    def panel(self, pk: np.ndarray, want: np.ndarray, c0: int, c1: int,
              ref: bool) -> None:
        """Operand rows ``[c0, c1)`` into the panel ``pk`` — ``(P, K)`` in
        the reference orientation (``ref``), else ``(K, P)`` — and their
        reference rows into the ``(P, o)`` ``want``."""

        s0 = c0
        while s0 < c1:
            j = s0 // self.span
            lo = j * self.span
            s1 = min(c1, lo + self.span)
            a, w = self._chunk(j)
            rows = a[s0 - lo:s1 - lo]
            if ref:
                np.copyto(pk[s0 - c0:s1 - c0], rows)
            else:
                np.copyto(pk[:, s0 - c0:s1 - c0], rows.T)
            np.copyto(want[s0 - c0:s1 - c0], w[s0 - lo:s1 - lo])
            s0 = s1


class _Partition(NamedTuple):
    """How one GEMM site's output rows are cut into panels.

    The ``sum(slot_rows)`` whole innermost-axis rows (``ow`` columns each)
    of the flattened output grid are split into contiguous blocks, block
    ``s`` of ``slot_rows[s]`` rows owned by panel slot ``s`` in slot order;
    each block is cut into panels of ``rows_per_panel`` rows, the block's
    last panel possibly narrower.  The executor, the calibration probe and
    :meth:`CompiledStagePlan.plan_stats` all read this one object, so the
    probe compares exactly the panels the executor runs.
    """

    ow: int
    rows_per_panel: int
    slot_rows: tuple[int, ...]

    def slots(self) -> list[tuple[tuple[int, int], ...]]:
        """Per slot, the column ranges ``(c0, c1)`` of its panels in order."""

        ow, rpp = self.ow, self.rows_per_panel
        starts = [0, *itertools.accumulate(self.slot_rows)]
        return [tuple((r * ow, min(r + rpp, r1) * ow)
                      for r in range(r0, r1, rpp))
                for r0, r1 in zip(starts, starts[1:])]

    def panels(self) -> list[tuple[int, int]]:
        """Every panel's column range, slot after slot."""

        return [p for slot in self.slots() for p in slot]


#: GEMM-block rows the slab budget charges a site of O ≤ 2 output channels,
#: whatever its ``o``.  Charging the real ``o`` rows widens those sites'
#: panels and moves BCAE-HT's O = 1 decoder sites from ``reference`` to
#: ``blocked_ref``, which read slower on the paper decode, never faster
#: (docs/BENCHMARKS.md, "the ``blocked_pad`` repack deleted").
_NARROW_GEMM_ROWS = 16


def _column_bytes(K: int, o: int) -> int:
    """Slab bytes per output column of an ``(O, K)`` GEMM site, whatever
    formulation its probe picks: the gathered operand (``4·K``), the GEMM
    block (``4·O``, ``4·``:data:`_NARROW_GEMM_ROWS` where O ≤ 2) and the
    snap scratch (``11·O``)."""

    oy = _NARROW_GEMM_ROWS if o <= 2 else o
    return 4 * K + 4 * oy + 11 * o


def _partition(K: int, o: int, ow: int, m: int, width: int) -> _Partition:
    """The blocked partition of ``m`` output columns of an ``(O, K)`` GEMM
    site at panel width ``width``: ``min(width, rows)`` near-equal
    contiguous row blocks (sizes differ by at most one row), cut into
    panels of whole rows whose slab (:func:`_column_bytes` a column) fits
    ``_PANEL_BYTES``."""

    rows = m // ow
    T = max(1, min(width, rows))
    q, r = divmod(rows, T)
    slot_rows = tuple(q + (s < r) for s in range(T))
    rpp = max(1, _PANEL_BYTES // (_column_bytes(K, o) * ow))
    return _Partition(ow, min(rpp, slot_rows[0]), slot_rows)


def _channel_block(c: int, width: int, slot: int) -> slice:
    """Slot ``slot``'s block of ``c`` channels at panel width ``width``:
    ``width`` contiguous near-equal blocks (sizes differ by at most one
    channel, the larger first; empty where ``c < width``)."""

    q, r = divmod(c, width)
    lo = slot * q + min(slot, r)
    return slice(lo, lo + q + (slot < r))


def _panels_match(problem: _ProbeProblem, part: _Partition,
                  ref: bool) -> bool:
    """Whether the panel GEMMs of ``part`` reproduce ``problem``'s
    reference on raw bits, walking exactly the executor's panels in its
    order and stopping at the first mismatch.  Each panel's operand rows
    are copied into one contiguous panel buffer, as the executor gathers
    them, and multiplied as ``panel @ b`` in the reference orientation
    (``ref``), else as ``bᵀ @ panelᵀ``; the buffers are allocated once per
    walk, for the partition's widest panel."""

    b = problem.b
    K, o = b.shape
    cols = part.rows_per_panel * part.ow
    wt = b if ref else np.ascontiguousarray(b.T)
    panel = np.empty(K * cols, np.float32)
    got, want = np.empty(o * cols, np.float32), np.empty(o * cols, np.float32)
    for c0, c1 in part.panels():
        p = c1 - c0
        pk = panel[:K * p].reshape((p, K) if ref else (K, p))
        pw = want[:o * p].reshape(p, o)
        problem.panel(pk, pw, c0, c1, ref)
        if ref:
            po = got[:o * p].reshape(p, o)
            np.dot(pk, wt, out=po)
        else:
            po = got[:o * p].reshape(o, p)
            np.dot(wt, pk, out=po)
            po = po.T
        if not np.array_equal(po, pw):
            return False
    return True


#: (rows, K, O | splits, partition, orientation) → whether that
#: formulation reproduces the reference contraction bit for bit on this
#: BLAS build.
_GEMM_OK: dict = {}


def _gemm_matches(rows: int, K: int, o: int, part: _Partition, ref: bool,
                  splits: tuple[int, ...] | None = None,
                  problem=None) -> bool:
    """Calibrate one GEMM formulation for one problem shape.

    A formulation is an operand orientation over a partition: ``ref``
    keeps ``conv_forward``'s own — C-contiguous ``(P, K)`` row panels
    against the F-contiguous ``(K, O)`` kernel — otherwise the panels are
    ``(O, K) @ (K, P)`` GEMMs on operands gathered directly in transposed
    layout (the im2col gather then reads whole output rows instead of
    12-byte kernel taps, ~6× faster); ``part`` cuts the ``rows`` output
    columns into the executor's panels.  The reference is the oracle's own
    call sequence — ``conv_forward``'s one ``np.dot`` per chunk of
    :func:`~repro.nn.convolution.gemm_chunk_rows` whole rows of width
    ``part.ow``.  Every output element is the same K-term dot product as the
    reference, and BLAS packs both layouts into the same micro-kernels with
    the same k-accumulation order — *except* for some shape-dependent
    kernel dispatches (very small output-channel counts, for one).  Since
    the summation order is a function of problem shape only, never of the
    data, one dense-random probe per (shape, formulation), walking exactly
    the executor's panels against the reference on raw bits until the
    first mismatch, decides whether the formulation may run
    — comparable in cost to a single module-path convolution at the same
    shape.  Behaviour is never traded for speed.  ``splits`` probes a
    stacked operand against its members' references
    (:class:`_ProbeProblem`).

    The dense-random operands are tiled from one per-process pool of
    prime period (:func:`_probe_pool`) rather than drawn per shape: the
    probe still compares every panel of the partition against the
    oracle's calls on raw bits, and the summation order it detects does
    not depend on the values, so every verdict is the one a fresh draw
    gives.  Neither operand nor reference is built whole: the walk tiles
    each panel's rows and computes the reference a chunk at a time, so a
    cache miss holds one chunk of operand, one panel and the kernel.
    ``problem`` is a zero-argument callable returning the
    :class:`_ProbeProblem`, called only on a cache miss, so a chain of
    candidates for one shape can share one problem.
    """

    key = (rows, K, splits or o, part, ref)
    hit = _GEMM_OK.get(key)
    if hit is None:
        if problem is None:
            problem = functools.partial(_ProbeProblem, rows, K, o, part.ow,
                                        splits)
        hit = _GEMM_OK[key] = _panels_match(problem(), part, ref)
    return hit


class SlotProcessError(RuntimeError):
    """A panel slot process died or raised during a plan run.

    The run that meets the failure raises this; the plan's slots are torn
    down, and the next run forks fresh ones.  :attr:`slot` is the failed
    slot's index (``1 … width − 1``; slot 0 is the calling process).
    """

    def __init__(self, slot: int, detail: str) -> None:
        super().__init__(f"panel slot {slot} {detail}")
        self.slot = slot


#: Marker role of the dry pass: leases, probes and maps, no array written.
_DRY = -1

#: Live slot groups and shared workspaces of this process, for the at-fork
#: rule (:func:`_after_fork_in_child`).
_GROUPS: "weakref.WeakSet[_SlotGroup]" = weakref.WeakSet()
_SHARED: "weakref.WeakSet[Workspace]" = weakref.WeakSet()

#: Seconds the caller waits at a barrier for one slot before the run fails
#: (a slot that neither arrives nor dies — stopped, or stuck on a lock).
_BARRIER_TIMEOUT_S = 60.0


class _ForkGate:
    """The process's rule for forking slots beside other threads.

    A fork copies only the forking thread: a lock another thread holds at
    that moment (inside BLAS, say) stays held in the child for good.  So
    every plan computes inside :meth:`compute`, and a group forks inside
    :meth:`fork`, which waits until no thread of this process computes and
    holds new computations off until the slots exist.  Forks are serialized,
    and :meth:`forking` names the workspace being forked over, for the
    at-fork rule.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._busy = 0  # computations running now
        self._waiting = 0  # forks waiting for them to end
        #: ``(workspace, thread id)`` of the fork in progress, or None.
        self._fork: tuple | None = None

    @contextlib.contextmanager
    def compute(self):
        with self._cond:
            self._cond.wait_for(lambda: not self._waiting)
            self._busy += 1
        try:
            yield
        finally:
            with self._cond:
                self._busy -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def fork(self, ws: "Workspace"):
        with self._cond:
            self._waiting += 1
            try:
                self._cond.wait_for(lambda: not self._busy)
            finally:
                self._waiting -= 1
            self._fork = (ws, threading.get_ident())
            try:
                yield
            finally:
                self._fork = None
                self._cond.notify_all()

    def forking(self) -> "Workspace | None":
        """The workspace this thread is forking slots over, if any (in a
        child: the one the new slot serves)."""

        fork = self._fork
        return fork[0] if fork and fork[1] == threading.get_ident() else None


_GATE = _ForkGate()


class Workspace:
    """Named, shape-checked reusable buffers (compiled-plan/compressor scratch).

    A workspace whose plans run at width ``> 1`` is *shared*: its buffers
    are shared anonymous memory, so the panel slot processes forked over it
    (:class:`_SlotGroup`) read and write the very pages the caller does.  A
    slot allocates nothing: every allocation bumps :attr:`_gen`, slots fork
    once a dry pass has allocated every buffer a run uses, and an
    allocation while slots run raises.
    """

    def __init__(self) -> None:
        self._bufs: dict = {}
        self._shared = False
        self._frozen = False
        #: Allocation count: slots forked at another count are stale.
        self._gen = 0
        #: Weak references to the plans compiled onto this workspace.
        self._plans: list = []
        self._slots: _SlotGroup | None = None

    def _share(self) -> None:
        """Back every later buffer with shared memory (private buffers
        made before would be invisible to the slots, so they go)."""

        if not self._shared:
            self._shared = True
            self._bufs.clear()
            _SHARED.add(self)

    def _alloc(self, key, shape: tuple[int, ...], dtype,
               zero: bool = False) -> np.ndarray:
        if self._frozen:
            raise RuntimeError(
                f"workspace buffer {key!r} allocated while panel slots run: "
                "the dry pass must allocate every buffer a run uses")
        self._gen += 1
        if not self._shared:
            return (np.zeros if zero else np.empty)(shape, dtype)
        count = math.prod(shape)
        # Fresh anonymous pages read as zeros and fault in on first touch.
        mem = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
        return np.frombuffer(mem, dtype, count).reshape(shape)

    def get(self, key, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = self._bufs[key] = self._alloc(key, tuple(shape), dtype)
        return buf

    def carve(self, key, *specs) -> list[np.ndarray]:
        """One array per ``(shape, dtype)`` spec, packed into arena ``key``.

        The arena is a flat byte buffer that only ever grows to the largest
        request made under ``key``; every call re-carves it, so the arrays
        of two calls alias — use one call's arrays before the next call.
        """

        nbytes = [math.prod(shape) * np.dtype(dtype).itemsize
                  for shape, dtype in specs]
        # Each array starts its own 64-byte slot (cache-line aligned).
        starts = [0, *itertools.accumulate(-(-b // 64) * 64 for b in nbytes)]
        buf = self._bufs.get(key)
        if buf is None or buf.nbytes < starts[-1]:
            buf = self._bufs[key] = self._alloc(key, (starts[-1],), np.uint8)
        return [
            buf[start:start + b].view(dtype).reshape(shape)
            for (shape, dtype), b, start in zip(specs, nbytes, starts)
        ]

    def canvas(self, key, c: int, spatial: tuple[int, ...], padding,
               dtype=np.float32,
               dilation: tuple[int, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Zero-bordered channel-major canvas ``(C, *spatial)`` + interior view.

        The border is zeroed once at allocation; every later pass writes
        only the interior, so the zeros (= the padding the module path
        re-creates with ``np.pad`` on every call) persist.  With
        ``dilation`` the interior is a strided view: element ``i`` of each
        axis lands at ``pad_lo + i·dilation``, and the zeros between (=
        the ``_dilate`` array of a transposed convolution) persist the same
        way.
        """

        nd = len(spatial)
        if dilation is None:
            dilation = (1,) * nd
        dil_sz = tuple((s - 1) * d + 1 for s, d in zip(spatial, dilation))
        shape = (c,) + tuple(
            ds + pl + ph for ds, (pl, ph) in zip(dil_sz, padding)
        )
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = self._bufs[key] = self._alloc(key, shape, dtype, zero=True)
        interior = buf[(slice(None),) + tuple(
            slice(pl, pl + ds, d)
            for ds, d, (pl, _ph) in zip(dil_sz, dilation, padding)
        )]
        return buf, interior

    def nbytes(self, owner=None) -> int:
        """Bytes held — all of them, or only buffers keyed ``(owner, …)``."""

        return sum(
            b.nbytes for k, b in self._bufs.items()
            if owner is None or (isinstance(k, tuple) and k[0] == owner)
        )

    def _slot_group(self, plan: "CompiledStagePlan", canvas: np.ndarray,
                    spatial: tuple[int, ...],
                    bound: float) -> "_SlotGroup | None":
        """The live slots for a run of ``plan`` on ``canvas``, or None to
        run every slot in the caller.

        Slots run only out of a shared workspace and on a plan's own input
        canvas (the one buffer they can find).  Slots forked at an older
        allocation count, or without ``plan``, are replaced: every plan on
        this input canvas makes a dry pass, then ``width − 1`` processes
        fork, so the first real run is already parallel.
        """

        if not self._shared or self._bufs.get((plan.prefix, "in")) is not canvas:
            return None
        group = self._slots
        if group is None or group.gen != self._gen or group.index(plan) < 0:
            self._close_slots()
            plans = [p for p in (r() for r in self._plans) if p is not None
                     and self._bufs.get((p.prefix, "in")) is canvas]
            if plan not in plans:
                return None  # compiled at width 1: nothing to split
            with _GATE.compute():
                for p in plans:
                    p._execute(canvas, spatial, bound, _DRY, None)
            try:
                with _GATE.fork(self):
                    group = self._slots = _SlotGroup(self, plans,
                                                     plan.budget.width)
            except OSError:
                return None  # no process to fork now: this run stays serial
        return group

    def _close_slots(self) -> None:
        if self._slots is not None:
            self._slots.close()
            self._slots = None


class _SlotGroup:
    """``width − 1`` forked panel slot processes over one shared workspace.

    Slot ``s`` talks to the caller (slot 0) through two pipes: commands
    and barrier releases go down ``cmd``, barrier arrivals and error
    reports come up ``ack``.  A run is one command (plan index, spatial
    shape, bound), after which every process runs the same
    :meth:`CompiledStagePlan._execute` and meets the others at
    :meth:`barrier` after every panel op, stream store, fill and head.
    Slots ignore SIGINT,
    exit when ``cmd`` reaches EOF, and are killed and reaped when the group
    closes or is collected.
    """

    def __init__(self, ws: Workspace, plans: list, width: int) -> None:
        self.gen = ws._gen
        self.plans = [weakref.ref(p) for p in plans]
        self.owner = os.getpid()
        #: ``(pid, cmd write end, ack read end)`` per slot 1 … width − 1.
        self.slots: list[tuple[int, int, int]] = []
        self._finalizer = weakref.finalize(self, _reap, self.owner, self.slots)
        _GROUPS.add(self)
        try:
            for slot in range(1, width):
                cmd_r, cmd_w = os.pipe()
                ack_r, ack_w = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:
                    _close_fds(cmd_r, cmd_w, ack_r, ack_w)
                    raise
                if pid == 0:
                    _slot_main(ws, plans, slot, cmd_r, ack_w)
                _close_fds(cmd_r, ack_w)
                self.slots.append((pid, cmd_w, ack_r))  # lint: allow-alloc
        except BaseException:
            self.close()
            raise

    def index(self, plan: "CompiledStagePlan") -> int:
        return next((i for i, r in enumerate(self.plans) if r() is plan), -1)

    def close(self) -> None:
        self._finalizer()

    def disown(self) -> None:
        """In a forked child: let go of the parent's slots untouched."""

        self._finalizer.detach()
        for _pid, cmd_w, ack_r in self.slots:
            _close_fds(cmd_w, ack_r)
        self.slots.clear()

    def command(self, plan: "CompiledStagePlan", spatial, bound: float) -> None:
        msg = pickle.dumps((self.index(plan), tuple(spatial), float(bound)))
        data = len(msg).to_bytes(4, "little") + msg
        for slot in range(1, len(self.slots) + 1):
            self._send(slot, data)

    def barrier(self) -> None:
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S
        for slot, (_pid, _cmd_w, ack_r) in enumerate(self.slots, 1):
            poll = select.poll()
            poll.register(ack_r, select.POLLIN)
            if not poll.poll(max(0.0, deadline - time.monotonic()) * 1e3):
                raise self._failure(slot, None)
            got = os.read(ack_r, 1)
            if got != b".":
                raise self._failure(slot, got)
        for slot in range(1, len(self.slots) + 1):
            self._send(slot, b".")

    def _send(self, slot: int, data: bytes) -> None:
        try:
            os.write(self.slots[slot - 1][1], data)
        except OSError:
            raise self._failure(slot, b"") from None

    def _failure(self, slot: int, got: bytes | None) -> SlotProcessError:
        """The typed error for slot ``slot``: its report after ``!``, else
        how it ended (``got`` None: it missed the barrier's deadline)."""

        pid, cmd_w, ack_r = self.slots[slot - 1]
        if got == b"!":
            report = b"".join(iter(lambda: os.read(ack_r, 4096), b""))
            return SlotProcessError(slot, report.decode(errors="replace"))
        self.slots[slot - 1] = (0, -1, -1)
        _reap(self.owner, [(pid, cmd_w, ack_r)])  # it cannot take commands
        if got is None:
            return SlotProcessError(slot, f"(pid {pid}) missed a barrier "
                                          f"for {_BARRIER_TIMEOUT_S:g} s")
        return SlotProcessError(slot, f"(pid {pid}) died")


def _close_fds(*fds: int) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


def _reap(owner: int, slots: list) -> None:
    """Kill and reap a group's slots — in the process that forked them."""

    if os.getpid() != owner:
        return
    # Unlist before closing: a slot forked meanwhile by another thread
    # closes every listed descriptor, and a closed number may already
    # belong to its own new pipe.
    gone = slots[:]
    slots.clear()
    for pid, cmd_w, ack_r in gone:
        _close_fds(cmd_w, ack_r)
        if pid:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


class _SlotLink:
    """A slot's end of its pipes (see :class:`_SlotGroup`)."""

    def __init__(self, cmd_r: int, ack_w: int) -> None:
        self.cmd_r, self.ack_w = cmd_r, ack_w

    def _read(self, n: int) -> bytes:
        data = b""
        while len(data) < n:
            chunk = os.read(self.cmd_r, n - len(data))
            if not chunk:  # the caller is gone
                os._exit(0)
            data += chunk
        return data

    def command(self) -> tuple:
        return pickle.loads(self._read(int.from_bytes(self._read(4), "little")))

    def barrier(self) -> None:
        os.write(self.ack_w, b".")
        self._read(1)


def _slot_main(ws: Workspace, plans: list, slot: int, cmd_r: int,
               ack_w: int) -> NoReturn:
    """Body of slot process ``slot``: run commands until EOF, never return.

    Every inherited descriptor but the slot's two pipe ends is closed, so
    a slot holds no socket, file or other group's pipe open.  Any error is
    reported up ``ack`` and ends the process.
    """

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            signal.set_wakeup_fd(-1)
        except ValueError:
            pass
        lo, hi = sorted((cmd_r, ack_w))
        os.closerange(3, lo)
        os.closerange(lo + 1, hi)
        os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
        gc.freeze()  # keep the collector off the parent's pages
        ws._frozen = True
        link = _SlotLink(cmd_r, ack_w)
        while True:
            index, spatial, bound = link.command()
            plan = plans[index]
            plan._execute(ws._bufs[(plan.prefix, "in")], spatial, bound, slot,
                          link)
    except BaseException as exc:  # noqa: BLE001 — reported, then exit
        try:
            os.write(ack_w, b"!" + f"raised {type(exc).__name__}: {exc}"
                     .encode(errors="replace")[:4000])
        except OSError:
            pass
    finally:
        os._exit(1)


def _after_fork_in_child() -> None:
    """A forked child never drives its parent's slots or shares its
    parent's buffers: it disowns every slot group and drops the buffers of
    every shared workspace (its plans re-allocate, warm and fork their own
    slots on their next run) — except, in a new slot, the workspace it
    serves.  The child, which has one thread, starts a fresh gate."""

    global _GATE
    serving = _GATE.forking()
    _GATE = _ForkGate()
    for group in list(_GROUPS):
        group.disown()
    for ws in list(_SHARED):
        if ws is not serving:
            ws._bufs.clear()
            ws._slots = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


class CompiledStagePlan:
    """A stage sequence compiled into reusable-workspace array passes.

    Parameters
    ----------
    stages:
        Iterable of modules within the :func:`stage_kinds` vocabulary.
        Weights are snapshot at construction — rebuild after training.
    half:
        Replicate the fp16 autocast numerics (the deployment mode, §3.3).
        When False the full-precision module path is replicated instead.
    workspace:
        Optional shared :class:`Workspace`.  Two *structurally identical*
        plans (e.g. the two decoder heads of one BCAE) may share a workspace
        **and** a prefix when run sequentially: every buffer an op reads is
        fully rewritten earlier in the same :meth:`run`, so interleaved runs
        only reuse memory, never stale values.  Structurally different plans
        sharing keys stay correct too (buffers reallocate on shape mismatch)
        but lose the steady-state reuse.
    prefix:
        Workspace key namespace for this plan's buffers.

    The panel width is fixed here by :func:`panel_budget` (``_workers``:
    compressors the caller runs at once).  Above width 1, where ``os.fork``
    exists, the workspace turns shared and :meth:`run` drives ``width − 1``
    forked slot processes over it (see *Execution model*); slots own their
    panel scratch and write disjoint rows or channel blocks, so bits are
    identical at any width.
    """

    def __init__(self, stages, half: bool = True,
                 workspace: Workspace | None = None, prefix: str = "",
                 _workers: int = 1) -> None:
        kinds = stage_kinds(stages)
        if kinds is None:
            raise TypeError(
                "stage sequence is outside the compiled vocabulary; "
                "guard with stage_kinds()"
            )
        self.half = bool(half)
        #: The resolved panel width and the inputs that produced it.
        self.budget = panel_budget(_workers)
        self.prefix = prefix
        self._ws = Workspace() if workspace is None else workspace
        #: Per-GEMM-site execution stats (formulation, panel/slot counts)
        #: recorded by :meth:`_gemm` on each run — see :meth:`plan_stats`.
        self._gemm_stats: dict = {}
        #: The slot this process plays in the current run: None runs every
        #: slot here, ``_DRY`` writes nothing, ``s ≥ 0`` is slot ``s`` of a
        #: forked group whose barrier ``_link`` provides.
        self._role: int | None = None
        self._link = None
        if self.budget.width > 1 and hasattr(os, "fork"):
            self._ws._share()
            self._ws._plans.append(weakref.ref(self))
        #: Per-geometry lease counters of the current :meth:`run`.
        self._turn: dict = {}
        # Canvases stay fp32 even in half mode: their values are fp16 grid
        # points, but numpy's casting copy of *strided* views is ~7× slower
        # than a same-dtype copy, and the im2col gather reads canvases far
        # more often than stores write them.
        self._cdtype = np.float32
        #: Per-BatchNorm fold decisions (stage index, placement, folded
        #: flag, reason) — the per-stage record the fold contract requires.
        self.bn_folds: list[dict] = []
        #: Static-verification record, attached by
        #: :func:`repro.analysis.plan_verifier.verify_plan` (None until a
        #: verifier pass has run).  Mirrors the :attr:`bn_folds` idiom: the
        #: plan carries its own decision/diagnostic trail so calibration
        #: rejections and legality checks are explainable after the fact.
        self.verification: dict | None = None
        self._ops: list[tuple[str, object]] = []
        for stage, kind in zip(stages, kinds):
            if kind in ("conv", "conv3d"):
                op: object = _ConvSpec.from_module(stage, self.half)
            elif kind == "convtranspose3d":
                op = _ConvTSpec.from_module(stage, self.half)
            elif kind in ("pool", "pool3d"):
                op = stage.kernel_size
            elif kind in ("up", "up3d"):
                op = stage.scale_factor
            elif kind == "res":
                op = (
                    _ConvSpec.from_module(stage.conv1, self.half),
                    _ConvSpec.from_module(stage.conv2, self.half),
                    float(stage.act1.negative_slope),
                    float(stage.act2.negative_slope),
                )
            elif kind in ("down3d", "upblock3d"):
                down = kind == "down3d"
                cls = _ConvSpec if down else _ConvTSpec
                main = cls.from_module(stage.down if down else stage.up,
                                       self.half)
                skip = cls.from_module(stage.skip, self.half)
                op = (
                    main,
                    _ConvSpec.from_module(stage.conv, self.half),
                    skip,
                    float(stage.act1.negative_slope),
                    float(stage.act2.negative_slope),
                    float(stage.act3.negative_slope),
                ) + self._block_norms(stage) + (cls.stacked(main, skip),)
            elif kind == "bnorm":
                op = _BNSpec.from_module(stage)
            elif kind == "regout":
                op = (float(stage.offset), float(stage.scale),
                      float(stage.max_exponent))
            else:
                op = None
            self._ops.append((kind, op))
        with _GATE.compute():  # the fold probes call BLAS
            self._fold_batchnorms()
        self._release_fold_sources()
        self._nd = _plan_nd(self._ops)
        #: Per-op gather-view cache: sliding_window_view / transpose /
        #: reshape cost ~50µs of pure Python per conv — the views are
        #: rebuilt only when their backing buffers are reallocated
        #: (identity-checked), which only happens on a shape change.
        self._wins: dict = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _block_norms(stage) -> tuple:
        """The three block norms as ``_BNSpec``/None, in path order."""

        return tuple(
            _BNSpec.from_module(m) if isinstance(m, BatchNormNd) else None
            for m in (stage.norm1, stage.norm2, stage.norm3)
        )

    def _fold_batchnorms(self) -> None:
        """Speculative BN folds over the compiled ops (see module docs).

        Two fold sites exist in this vocabulary:

        * a standalone ``bnorm`` whose next non-identity op is an ordinary
          convolution (``BatchNorm → Conv``) — on success the affine stage
          collapses to ``identity`` and the conv spec is replaced by the
          scale/shift-fused one;
        * ``norm1`` inside a residual block, which sits directly before the
          block's inner 3³ convolution.

        Every other placement (``norm2``/``norm3`` feed the residual sum
        through an activation; ``Conv → BatchNorm`` would store off-grid
        values in the conv canvas) runs as the exact affine pass.  Each
        decision lands in :attr:`bn_folds` with its reason.
        """

        conv_kinds = ("conv", "conv3d")
        for i, (kind, op) in enumerate(self._ops):
            if kind == "bnorm":
                nxt = _next_consumer(self._ops, i)
                if nxt in conv_kinds:
                    j = next(
                        k for k in range(i + 1, len(self._ops))
                        if self._ops[k][0] != "identity"
                    )
                    folded, reason = _try_fold_bn_conv(
                        op, self._ops[j][1], self.half
                    )
                    if folded is not None:
                        self._ops[i] = ("identity", None)
                        self._ops[j] = (self._ops[j][0], folded)
                    self.bn_folds.append(
                        {"stage": i, "site": "bnorm->conv",
                         "folded": folded is not None, "reason": reason}
                    )
                else:
                    self.bn_folds.append(
                        {"stage": i, "site": "bnorm", "folded": False,
                         "reason": "kept affine stage: no adjacent "
                                   "convolution to absorb it"}
                    )
            elif kind in ("down3d", "upblock3d"):
                specs, norms = op[:6], op[6:9]
                if not any(norms):
                    continue
                bn1, bn2, bn3 = norms
                if bn1 is not None:
                    folded, reason = _try_fold_bn_conv(bn1, specs[1],
                                                       self.half)
                    if folded is not None:
                        specs = specs[:1] + (folded,) + specs[2:]
                        bn1 = None
                    self.bn_folds.append(
                        {"stage": i, "site": "norm1->inner-conv",
                         "folded": folded is not None, "reason": reason}
                    )
                for site, bn in (("norm2", bn2), ("norm3", bn3)):
                    if bn is not None:
                        self.bn_folds.append(
                            {"stage": i, "site": site, "folded": False,
                             "reason": "kept affine stage: activation "
                                       "between conv and norm"}
                        )
                self._ops[i] = (kind, specs + (bn1, bn2, bn3) + op[9:])

    def _release_fold_sources(self) -> None:
        """Drop the ``w_raw`` fold sources once folding has run.

        ``w_raw`` is a third full copy of every conv weight (next to ``wt``
        and ``wtT``) needed only by the compile-time fold probes; plans are
        long-lived and pooled per serving worker, so it is released rather
        than carried.
        """

        def specs(op):
            if isinstance(op, _ConvSpec):
                yield op
            elif isinstance(op, _ConvTSpec):
                yield op.spec
            elif isinstance(op, tuple):
                for part in op:
                    yield from specs(part)

        for _kind, op in self._ops:
            for spec in specs(op):
                spec.w_raw = None

    # ------------------------------------------------------------------
    @property
    def workspace(self) -> Workspace:
        return self._ws

    @property
    def workspace_bytes(self) -> int:
        """Current workspace footprint (fixed by the sample geometry)."""

        return self._ws.nbytes()

    def plan_stats(self) -> dict:
        """Execution summary: what compiled to what, and what ran how.

        Returns a plain-dict observability record: the resolved
        :class:`PanelBudget` (width, cores, BLAS threads, workers),
        per-stage kind counts, BN fold decisions, per-GEMM-site formulation
        and partition (``panels``, ``threads``, ``rows_per_panel``,
        ``slot_rows``), tail kind (a stacked site lists its ``members``
        split and both tails, ``"act+requant|act"``; an ``act+requant``
        tail adds its ``requant`` formulation, ``"table"`` or
        ``"sequence"``) and ``staging_bytes`` — workspace bytes keyed to
        the site, 0 since every output is finished inside its panel — (as
        recorded by the most recent :meth:`run`, one sample; empty until a
        run has happened, since panel counts depend on the sample geometry)
        and the workspace footprint.  Printed by
        ``repro-tpc analyze --stats``.
        """

        kind_counts: dict[str, int] = {}
        for kind, _op in self._ops:
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
        return {
            "half": self.half,
            "panel_budget": self.budget._asdict(),
            "stage_kinds": kind_counts,
            "bn_folds": {
                "folded": sum(1 for d in self.bn_folds if d["folded"]),
                "kept": sum(1 for d in self.bn_folds if not d["folded"]),
                "decisions": [dict(d) for d in self.bn_folds],
            },
            "gemms": {
                repr(k): dict(v, staging_bytes=self._ws.nbytes(owner=k))
                for k, v in sorted(self._gemm_stats.items(), key=repr)
            },
            "workspace_bytes": self.workspace_bytes,
        }

    def input_padding(self) -> tuple[tuple[int, int], ...]:
        """Padding the input canvas needs for the plan's first consumer."""

        return _next_store_spec(self._ops, -1, self._nd)[0]

    def input_canvas(self, c: int,
                     spatial: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The plan's persistent input canvas ``(canvas, interior view)``.

        Channel-major fp32 ``(C, *spatial)``, one sample.  Callers fill the
        interior with grid-exact values before :meth:`run`; the zero border
        doubles as the first convolution's padding (and, for a leading
        transposed convolution, the dilation gaps stay zero between the
        strided interior positions).
        """

        padding, dilation = _next_store_spec(self._ops, -1, self._nd)
        return self._ws.canvas((self.prefix, "in"), c, spatial, padding,
                               self._cdtype, dilation)

    # ------------------------------------------------------------------
    def run(self, canvas: np.ndarray, spatial: tuple[int, ...],
            bound: float) -> np.ndarray:
        """Execute the plan on one sample; returns the module-graph output.

        ``canvas`` is typically :meth:`input_canvas` with the interior
        filled; ``bound`` is a rigorous magnitude bound on those values.
        The returned array is channel-major fp32 ``(C, *out_spatial)`` and
        is a reused workspace buffer: copy it before the next :meth:`run`
        on this workspace.  On the input canvas of a shared workspace the
        run is split with the panel slot processes; a slot that died or
        raised fails the run with :class:`SlotProcessError`, and the next
        run forks new slots.
        """

        ws = self._ws
        group = ws._slot_group(self, canvas, spatial, bound)
        with _GATE.compute():
            if group is None:
                return self._execute(canvas, spatial, bound, None, None)
            ws._frozen = True
            try:
                group.command(self, spatial, bound)
                return self._execute(canvas, spatial, bound, 0, group)
            except BaseException:
                ws._close_slots()
                raise
            finally:
                ws._frozen = False

    def _execute(self, canvas, spatial, bound, role, link) -> np.ndarray:
        """:meth:`run`'s body in the given ``role``; ``link`` is the
        barrier of a forked group (None when no other process runs)."""

        self._role, self._link = role, link
        try:
            return self._ops_pass(canvas, spatial, bound)
        finally:
            self._role = self._link = None

    def _own(self, c: int) -> slice:
        """The channels of a ``c``-channel array this process writes
        outside panels: all of them when it runs alone, none in the dry
        pass, else its slot's :func:`_channel_block` — one rule for every
        such writer, so a process reads back only channels it wrote."""

        role = self._role
        if role is None:
            return slice(0, c)
        if role == _DRY:
            return slice(0, 0)
        return _channel_block(c, self.budget.width, role)

    def _sync(self) -> None:
        """The barrier every process of a group meets after a write."""

        if self._link is not None:
            self._link.barrier()

    def _ops_pass(self, canvas, spatial, bound) -> np.ndarray:
        ops = self._ops
        nd = self._nd
        self._turn.clear()
        self._gemm_stats.clear()
        carry: np.ndarray | None = None
        carry_bound = 0.0
        result: np.ndarray | None = None
        for i, (kind, op) in enumerate(ops):
            store_spec = _next_store_spec(ops, i, nd)
            key = (self.prefix, i)
            if kind in ("conv", "conv3d"):
                canvas, result, spatial, bound = self._conv_store(
                    key, op, canvas, bound, store_spec
                )
                carry = None
            elif kind == "convtranspose3d":
                canvas, result, spatial, bound = self._convt_store(
                    key, op, canvas, spatial, bound, store_spec
                )
                carry = None
            elif kind in ("pool", "pool3d", "up", "up3d"):
                if carry is None:
                    # Input came from a conv: stored grid values are the
                    # exact fp32 values the module path consumes.
                    src, src_bound = (
                        _interior(canvas, _canvas_padding(canvas, spatial), spatial),
                        bound,
                    )
                else:
                    # The module path pools/upsamples the *unquantized*
                    # fp32 stream.
                    src, src_bound = carry, carry_bound
                if kind in ("pool", "pool3d"):
                    carry, carry_bound = self._pool(key, op, src, spatial, src_bound)
                    spatial = tuple(s // k for s, k in zip(spatial, op))
                else:
                    carry, carry_bound = self._up(op, src, spatial, src_bound)
                    spatial = tuple(s * f for s, f in zip(spatial, op))
                canvas, result, bound = self._store_stream(
                    carry, carry_bound, spatial, store_spec
                )
            elif kind == "bnorm":
                if carry is None:
                    # Input came from a conv: stored grid values are the
                    # exact fp32 stream the module's norm consumes.
                    src, src_bound = (
                        _interior(canvas, _canvas_padding(canvas, spatial), spatial),
                        bound,
                    )
                else:
                    # The module path normalizes the *unquantized* stream.
                    src, src_bound = carry, carry_bound
                carry = op.apply(self._ws, key, src, self._own(src.shape[0]))
                carry_bound = op.out_bound(src_bound)
                canvas, result, bound = self._store_stream(
                    carry, carry_bound, spatial, store_spec
                )
            elif kind == "res":
                # The post-block canvas store is dead when the next consumer
                # is a pool/upsample/norm: those read the carry stream
                # directly.
                store = _next_consumer(ops, i) not in (
                    "pool", "up", "pool3d", "up3d", "bnorm"
                )
                canvas, dest, bound, carry, carry_bound = self._res(
                    key, op, canvas, spatial, bound, carry, carry_bound,
                    store_spec, store,
                )
                if store:
                    result = dest
            elif kind in ("down3d", "upblock3d"):
                canvas, result, spatial, bound, carry, carry_bound = self._block3d(
                    key, op, canvas, spatial, bound, store_spec,
                    transposed=(kind == "upblock3d"),
                )
            elif kind == "sigmoid":
                result = self._sigmoid(key, result)
            elif kind == "regout":
                result = self._regout(key, op, result)
            # "identity": the module pass-through — state is unchanged.
        # A head (sigmoid / regout) is the last op; each process finishes
        # its own channels and the head's barrier is the run's last, so
        # the caller returns a complete output.

        assert result is not None
        return result

    # ------------------------------------------------------------------
    def _gemm(self, key, spec: _ConvSpec, canvas: np.ndarray, bound: float,
              tail, kind: str, crop=None) -> bool:
        """The exact ``conv_forward`` contraction out of a padded canvas,
        finished panel by panel (see *Panel epilogue contract*).

        One panel routine (:meth:`_panels`) runs every formulation — an
        operand orientation over a partition — and the first one
        :func:`_gemm_matches` proves bit-equal to the reference runs:

        * ``blocked`` / ``blocked_ref`` — where the whole-sample slab
          (``rows`` columns of :func:`_column_bytes` each) exceeds
          ``_PANEL_BYTES``, the transposed / reference orientation cut by
          the width's :func:`_partition` into per-slot row blocks of
          ``_PANEL_BYTES`` panels of whole innermost rows; the monolithic
          im2col buffer never materializes;
        * ``transposed`` — one whole-sample panel, run by slot 0 (its
          slab fits one panel, or every blocked formulation was
          rejected): the ``(K, rows)`` im2col operand built directly in
          transposed layout and a single ``wtT @ atT`` call;
        * ``reference`` — the unprobed end of the chain: the oracle's own
          partition, run by slot 0 — panels of
          :func:`~repro.nn.convolution.gemm_chunk_rows` whole rows in
          ``conv_forward``'s own operand orientation, one ``np.dot`` per
          chunk (identical BLAS calls, identical bits).

        ``bound`` is the rigorous magnitude bound of the raw output (the
        saturating clip runs only where it reaches ±65504); ``tail``
        finishes each panel and ``kind`` names it in :meth:`plan_stats`.
        The canvas holds quantized (grid) values, so the module path's
        quantize-on-entry is a no-op and is skipped.

        A stacked ``spec`` takes one tail per member and tries only the
        first formulation (``blocked`` or ``transposed``), probed against
        each member's own reference; where the probe rejects it nothing
        runs and False is returned — the caller runs the members' own
        sites.
        """

        out_spatial = spec.out_spatial(canvas.shape[1:])
        rows = math.prod(out_spatial)
        K = canvas.shape[0] * math.prod(spec.kernel)
        o = spec.out_channels
        # Panels always cover whole innermost-axis rows.
        ow = out_spatial[-1]
        whole = _Partition(ow, rows // ow, (rows // ow,))
        splits = spec.members
        # (name, partition, reference orientation), in order of preference.
        chain = [("transposed", whole, False)]
        if rows * _column_bytes(K, o) > _PANEL_BYTES:
            part = _partition(K, o, ow, rows, self.budget.width)
            chain[:0] = [("blocked", part, False), ("blocked_ref", part, True)]
        # One problem serves every candidate the chain probes.
        problem = functools.cache(
            functools.partial(_ProbeProblem, rows, K, o, ow, splits))
        for name, part, ref in chain[:1] if splits else chain:
            if _gemm_matches(rows, K, o, part, ref, splits, problem):
                break
        else:
            if splits:
                return False
            # The oracle's own calls: one panel per chunk of whole rows.
            name, ref = "reference", True
            part = _Partition(ow, min(gemm_chunk_rows(K, ow), rows // ow),
                              (rows // ow,))
        del problem  # its chunk of operand is as large as the oracle's
        tails = tail if splits else (tail,)
        self._panels(key, spec, canvas, out_spatial, part, ref, bound, tails,
                     crop)
        self._gemm_stats[key] = {
            "formulation": name, "m": rows, "K": K, "o": o,
            "panels": len(part.panels()), "threads": len(part.slot_rows),
            "rows_per_panel": part.rows_per_panel,
            "slot_rows": list(part.slot_rows),
            "tail": kind, **({"members": list(splits)} if splits else {}),
            **{"requant": "sequence" if t.table is None else "table"
               for t in tails if hasattr(t, "table")},
        }
        return True

    # ------------------------------------------------------------------
    def _slab(self, slot: int, spec: _ConvSpec, c: int, rows: int, ow: int,
              ref: bool) -> tuple:
        """Slot ``slot``'s panel scratch for ``rows`` whole output rows.

        Carved from the slot's arena, so every GEMM site reuses the same
        cache-resident bytes.  Returns ``(g, a, b, yp, v, scr, parts)``: the
        gather destination in tap/row layout, the two ``np.dot`` operands
        and its output, the channel-major ``(O, rows, ow)`` view of the
        real output channels, and the :func:`_scratch` bundle in the same
        layout — and, per member of the spec, the row block of the
        finished values and of the bundle its tail is handed (cut here, not
        in every panel), which ends in the tail's fp32 temporary: the dead
        one of the GEMM block and the snap result (the finished values are
        the latter in half mode, the former otherwise).  ``ref`` selects
        the reference orientation, whose panels are ``(rows·ow, O)`` in
        memory — their
        channel-major views are transposed, and elementwise passes over
        identically strided views still run in memory order.
        """

        o = spec.out_channels
        pw, K = rows * ow, c * math.prod(spec.kernel)
        if ref:
            scr, (g, yp) = _scratch(
                self._ws, ("slab", slot), (rows, ow, o),
                ((rows, ow, c) + spec.kernel, _F32), ((rows, ow, o), _F32))
            a, b, y = g.reshape(pw, K), spec.wt, yp.reshape(pw, o)
            v = yp.transpose(2, 0, 1)
            scr = tuple(x.transpose(2, 0, 1) for x in scr)
        else:
            scr, (g, yp) = _scratch(
                self._ws, ("slab", slot), (o, rows, ow),
                ((c,) + spec.kernel + (rows, ow), _F32), ((o, rows, ow), _F32))
            a, b, y, v = spec.wtT, g.reshape(K, pw), yp.reshape(o, pw), yp
        # The snap leaves the finished block in the bundle's result array.
        fin, tmp = (scr[1], v) if self.half else (v, scr[1])
        cuts = [0, *itertools.accumulate(spec.members or (o,))]
        return g, a, b, y, v, scr, [
            (fin[lo:hi], tuple(x[lo:hi] for x in scr + (tmp,)))
            for lo, hi in zip(cuts, cuts[1:])]

    def _panels(self, key, spec: _ConvSpec, canvas: np.ndarray,
                out_spatial: tuple[int, ...], part: _Partition, ref: bool,
                bound: float, tails, crop) -> None:
        """Gather → GEMM → bias → clip → snap → tail, one panel at a time.

        A panel is a column range of ``part`` — whole innermost-axis rows
        of the flattened ``out_spatial`` grid — gathered into the
        slot's ``(K, P)`` slab (``(P, K)`` when ``ref``), multiplied with
        one GEMM, and handed to ``tails`` — one per member of ``spec``, each
        on its own row block — still cache-hot; nothing of the result is
        staged in main memory.  The per-panel box maps (gather sources,
        store destinations with ``crop`` applied) are cached per site
        against the canvas identity and the partition.

        Slot ``s`` of the partition's ``T`` owns one contiguous block of
        output rows and runs its panels in order, the last one possibly
        narrower, so nothing is left for slot 0 after the barrier.  Every
        process carves every slot's slabs — one per distinct panel width,
        aliasing in the slot's arena since the slot runs one panel at a
        time — and builds the same maps, so the dry pass leaves them all in
        the shared workspace and a slot process only looks them up.  This
        process then runs its own slot (every slot when it runs alone,
        none in the dry pass) and meets the others at the barrier.  Slots
        write disjoint rows, and every multi-slot partition was probed
        bit-equal to the reference, so output bits are identical at every
        width.
        """

        c = canvas.shape[0]
        nd = len(spec.kernel)
        ow = out_spatial[-1]
        pre = () if ref else (slice(None),) * (1 + nd)

        cached = self._wins.get(key)
        if cached is None or cached[0] is not canvas or cached[1] != part:
            win = sliding_window_view(canvas, spec.kernel,
                                      axis=tuple(range(1, 1 + nd)))
            win = win[(slice(None),)
                      + tuple(slice(None, None, s) for s in spec.stride)]
            # Taps lead in the transposed orientation — one gathered w-row
            # is a (C, *k, ow) column group — and trail in the reference
            # orientation, where it is an (ow, C, *k) row group.
            taps = (0,) + tuple(range(1 + nd, 1 + 2 * nd))
            grid = tuple(range(1, 1 + nd))
            view = win.transpose(grid + taps if ref else taps + grid)
            lo, avail = crop if crop is not None else ((0,) * nd, out_spatial)
            hi = tuple(l + a for l, a in zip(lo, avail))
            cached = self._wins[key] = (canvas, part, [
                tuple(((c1 - c0) // ow, _panel_map(
                    view, pre, c0 // ow, c1 // ow, out_spatial, lo, hi))
                      for c0, c1 in slot)
                for slot in part.slots()
            ])
        slots = cached[2]

        bias = None if spec.bias is None else spec.bias.reshape(-1, 1, 1)
        snap = self.half
        clip = snap and bound >= _FP16_MAX

        def run_panel(slab, panel) -> None:
            g, a, b, yp, v, scr, parts = slab
            for j0, j1, src in panel[0]:
                np.copyto(g[pre + (slice(j0, j1),)].reshape(src.shape), src)
            np.dot(a, b, out=yp)
            if bias is not None:
                np.add(v, bias, out=v)
            if snap:
                _snap(v, scr, v if clip else None)
            for tail, (rows, rscr) in zip(tails, parts):
                tail(rows, panel[1], rscr)

        # Widest panel first, so the slot's arena is sized once.
        slabs = [{rows: self._slab(s, spec, c, rows, ow, ref)
                  for rows in dict.fromkeys(rows for rows, _ in slot)}
                 for s, slot in enumerate(slots)]

        role = self._role
        for s in (range(len(slots)) if role is None
                  else (role,) if 0 <= role < len(slots) else ()):
            own = slabs[s]
            for rows, panel in slots[s]:
                run_panel(own[rows], panel)
        self._sync()

    # ------------------------------------------------------------------
    def _grid(self, src: np.ndarray, bound: float) -> tuple[np.ndarray, float]:
        """``quantize_fp16`` replica for a whole stream (network entry of
        non-integer input, pool / upsample / norm stores — conv outputs are
        quantized by the panel epilogue instead).

        Returns an array of the shared ``"grid"`` arena, consume it before
        the next call, holding ``src``'s values snapped onto the fp16 grid
        in this process's channels (:meth:`_own`: the arena is carved at
        full shape and each process snaps its own block of it), and the
        stored bound.  The saturating clip runs only when ``bound`` says
        ±65504 is reachable and a lane is beyond it — elsewhere it is the
        identity — and never mutates ``src``: the residual stream keeps
        its unclipped fp32 values.
        """

        scr, (t,) = _scratch(self._ws, "grid", src.shape, (src.shape, _F32))
        ch = self._own(src.shape[0])
        if ch.start < ch.stop:
            _snap(src[ch], tuple(x[ch] for x in scr),
                  t[ch] if bound >= _FP16_MAX else None)
        return scr[1], min(bound, _FP16_MAX)

    def _cap(self, bound: float) -> float:
        """Magnitude bound of a conv output as stored (saturated in half)."""

        return min(bound, _FP16_MAX) if self.half else bound

    def _lease(self, c: int, spatial, padding=None, dilation=None,
               stream: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The next canvas (or unpadded fp32 ``stream``) of this geometry.

        Buffers are leased per geometry, round robin, instead of owned per
        site: a stage has at most three canvases live (input, ``mid``,
        output — the input was the previous stage's latest lease) and two
        streams (carry in, carry out), so rotating over that many never
        hands out a live buffer, and the rotation restarts with every
        :meth:`run` so a site meets the same buffer on every call (its
        cached gather views stay valid).
        """

        nd = len(spatial)
        padding = ((0, 0),) * nd if padding is None else tuple(padding)
        dilation = (1,) * nd if dilation is None else tuple(dilation)
        key = (self.prefix, "lease", stream, c, tuple(spatial), padding,
               dilation)
        turn = self._turn.get(key, 0)
        self._turn[key] = turn + 1
        return self._ws.canvas(key + (turn % (2 if stream else 3),), c,
                               spatial, padding, self._cdtype, dilation)

    # ------------------------------------------------------------------
    def _store_tail(self, dest: np.ndarray, slope: float | None = None,
                    bn=None, requant_bound: float | None = None):
        """Panel tail: (activation → norm → requantize →) store into ``dest``.

        Bare, it stores a conv output.  With ``slope`` the stored values
        are the activated (and normalized) stream; with ``requant_bound``
        they are snapped back onto the grid — the activation fused with
        the *next* convolution's entry quantize (positive lanes are grid
        values already, so only the scaled lanes move), clipped first
        where the bound says ±65504 is reachable.  With no norm in between,
        activation + requantize of the snapped block is one
        :func:`_act_table` lookup of its bits ``>> 13`` (``tail.table``,
        None where the sequence runs, for :meth:`plan_stats` and the plan
        verifier).
        """

        requant = self.half and requant_bound is not None
        clip = requant and requant_bound >= _FP16_MAX
        table = (_act_table(slope, clip)
                 if requant and bn is None and _fast_snap_ok() else None)

        def tail(v, boxes, scr) -> None:
            if table is not None:
                np.right_shift(scr[0], 13, out=scr[0])
                v = np.take(table, scr[0], out=scr[5].view(np.uint32),
                            mode="wrap").view(_F32)
            elif slope is not None:
                v = _act(v, scr[5], slope, bn)
                if requant:
                    v = _snap(v, scr, v if clip else None)
            for box in boxes:
                np.copyto(dest[box[4]], _rows(v, box))

        if requant:
            tail.table = table
        return tail

    def _sum_tail(self, slope: float, bn, skip: np.ndarray,
                  carry: np.ndarray, dest: np.ndarray | None, bound: float):
        """Panel tail closing a residual block: activation (→ norm), the
        fp32 residual sum ``skip + act`` into the ``carry`` rows, and —
        unless the next consumer reads the carry stream (``dest`` None) —
        the sum quantized into the next canvas.  ``bound`` bounds the sum.
        """

        clip = self.half and bound >= _FP16_MAX

        def tail(v, boxes, scr) -> None:
            t = _act(v, scr[5], slope, bn)
            for box in boxes:
                rows = _rows(t, box)
                np.add(skip[box[4]], rows, out=rows)
                np.copyto(carry[box[4]], rows)
            if dest is None:
                return
            if self.half:
                t = _snap(t, scr, t if clip else None)
            for box in boxes:
                np.copyto(dest[box[4]], _rows(t, box))

        return tail

    # ------------------------------------------------------------------
    def _conv_store(self, key, spec, canvas, bound, store_spec):
        """Convolve and store the (quantized) output into the next canvas."""

        out_spatial = spec.out_spatial(canvas.shape[1:])
        out_canvas, dest = self._lease(spec.out_channels, out_spatial,
                                       *store_spec)
        out_bound = spec.out_bound(bound)
        self._gemm(key, spec, canvas, out_bound, self._store_tail(dest),
                   "store")
        return out_canvas, dest, out_spatial, self._cap(out_bound)

    # ------------------------------------------------------------------
    def _convt_geometry(self, tspec: _ConvTSpec, canvas, spatial, bound):
        """Output geometry of a transposed conv over its dilated canvas.

        Returns ``(out_spatial, crop, fill, out_bound)``: the
        transposed-conv output spatial shape, the per-axis ``(lo, avail)``
        crop mapping the full correlation the GEMM computes onto output
        positions, the per-channel fill value for output positions beyond
        the full correlation's support (the module path's zero canvas plus
        bias and quantize — only nonzero when ``output_padding`` reaches
        past the correlation), and the raw output magnitude bound.
        """

        out_sp = tspec.out_spatial(spatial)
        full_sp = tspec.spec.out_spatial(canvas.shape[1:])
        lo = tuple(pl for (pl, _ph) in tspec.padding)
        avail = tuple(
            min(osz, f - l) for osz, f, l in zip(out_sp, full_sp, lo)
        )
        fill = None
        if avail != out_sp:
            # Output positions past the correlation's support: the module
            # path leaves canvas zeros there, adds the bias, and quantizes.
            b = tspec.spec.bias
            fv = np.zeros(tspec.out_channels, np.float32) if b is None else b
            fill = quantize_fp16(fv) if self.half else fv.copy()
        return out_sp, (lo, avail), fill, tspec.out_bound(bound)

    def _act_fill(self, dest, fill, slope=None, bn=None,
                  quantize: bool = False) -> None:
        """Pre-fill ``dest`` where a transposed conv's crop will not reach.

        Beyond the correlation's support the module stream is (norm ∘)
        act of q(bias) — re-quantized by the next conv's entry when
        ``quantize`` — the same scalar ufunc chain on ``(C,)``.  Each
        process fills its own channels (:meth:`_own`); the barrier keeps
        every slot's panels, which write rows of all channels, after the
        fill.
        """

        if fill is None:
            return
        if slope is not None:
            fill = fill * np.where(fill > 0, np.float32(1.0),
                                   np.float32(slope))
            if bn is not None:
                fill = bn.apply_channels(fill)
            if quantize and self.half:
                fill = quantize_fp16(fill)
        ch = self._own(dest.shape[0])
        dest[ch] = fill[ch].reshape((-1,) + (1,) * (dest.ndim - 1))
        self._sync()

    def _convt_store(self, key, tspec, canvas, spatial, bound, store_spec):
        """Transposed-convolve and store the quantized crop into the next canvas."""

        out_sp, crop, fill, out_bound = self._convt_geometry(
            tspec, canvas, spatial, bound
        )
        out_canvas, dest = self._lease(tspec.out_channels, out_sp,
                                       *store_spec)
        self._act_fill(dest, fill)
        self._gemm(key, tspec.spec, canvas, out_bound, self._store_tail(dest),
                   "store", crop)
        return out_canvas, dest, out_sp, self._cap(out_bound)

    # ------------------------------------------------------------------
    def _pool(self, key, kernel, src, spatial, bound):
        """AvgPool replica: fp32 mean of the exact unquantized values.

        For the ubiquitous 2×2 pool the multi-axis ``mean`` reduction is
        replicated with slice adds in numpy's pairwise order
        ``((x00+x01) + (x10+x11)) / 4`` — bit-equal (the full-model
        identity tests guard this against numpy reduction-order changes)
        and ~3× faster than the strided ``mean`` kernel.  Other kernels
        (including 3D pools) run the same multi-axis ``mean`` call the
        module path runs, pinned to fp32.  ``dtype=float32`` pins the
        arithmetic to fp32 when the source is an fp16-stored canvas (the
        widening cast is exact).  Each process pools its own channels
        (:meth:`_own`); the stream store after it reads the same ones.
        """

        kernel = tuple(kernel)
        c = src.shape[0]
        ch = self._own(c)
        out_sp = tuple(s // k for s, k in zip(spatial, kernel))
        full = self._lease(c, out_sp, stream=True)[1]
        out = full[ch]
        if kernel == (2, 2):
            t1 = self._ws.get((key, "pt1"), full.shape)[ch]
            a, h = spatial
            v = src[ch].reshape(-1, a // 2, 2, h // 2, 2)
            np.add(v[:, :, 0, :, 0], v[:, :, 0, :, 1], out=t1, dtype=_F32)
            np.add(v[:, :, 1, :, 0], v[:, :, 1, :, 1], out=out, dtype=_F32)
            np.add(t1, out, out=out)
            np.divide(out, np.float32(4.0), out=out)
        else:
            # The module path's exact call: reshape to interleaved
            # (.., s/k, k, ..) axes and mean over the kernel axes.  The
            # source may be a canvas interior view; the reduction is made
            # from a contiguous copy so the ufunc loop matches the module
            # path's contiguous input (bit-for-bit identical pairing).
            if not src.flags.c_contiguous:
                buf = self._ws.get((key, "poolsrc"), src.shape)
                np.copyto(buf[ch], src[ch])
                src = buf
            shape: list[int] = [-1]
            for s, k in zip(spatial, kernel):
                shape.extend([s // k, k])
            kernel_axes = tuple(range(2, 2 + 2 * len(kernel), 2))
            src[ch].reshape(shape).mean(axis=kernel_axes, dtype=_F32, out=out)
        return full, bound  # mean cannot grow the magnitude bound

    # ------------------------------------------------------------------
    def _up(self, factors, src, spatial, bound):
        """Upsample replica: nearest-neighbour repeat of the exact values.

        A broadcast store into the reused output buffer places value ``v``
        at every position of its factor block — the same values the module
        path's per-axis ``np.repeat`` produces, without the intermediate
        allocations.  Repetition cannot grow the bound.  Each process
        repeats its own channels (:meth:`_own`).
        """

        factors = tuple(factors)
        c = src.shape[0]
        ch = self._own(c)
        out_sp = tuple(s * f for s, f in zip(spatial, factors))
        out = self._lease(c, out_sp, stream=True)[1]
        shape: list[int] = [c]
        src_index: list = [ch]
        for s, f in zip(spatial, factors):
            shape.extend([s, f])
            src_index.extend([slice(None), None])
        out.reshape(shape)[ch] = src[tuple(src_index)]
        return out, bound

    # ------------------------------------------------------------------
    def _sigmoid(self, key, x):
        """``Tensor.sigmoid`` replica on the stored conv output.

        The module path splits on sign for numerical stability; both
        branches are elementwise, so computing each over the full array and
        merging by the same sign mask reproduces the selected values bit
        for bit.  ``dtype=float32`` pins the math to fp32 over the
        fp16-stored grid values (the widening cast is exact).  The
        discarded branch may overflow to inf (→ 0 or NaN) — harmless and
        silenced, exactly because it is discarded.  Two fp32 buffers carry
        it: the ``x < 0`` branch lands in ``out`` with ``t`` as its
        temporary, then the ``x ≥ 0`` branch in ``t``.  Each process runs
        its own channels (:meth:`_own`) and meets the others at the run's
        last barrier.
        """

        full = self._ws.get((key, "sig"), x.shape)
        ch = self._own(x.shape[0])
        pos = self._ws.get((key, "pos"), x.shape, np.bool_)[ch]
        t = self._ws.get((key, "st"), x.shape)[ch]
        out, x = full[ch], x[ch]
        np.greater_equal(x, np.float32(0.0), out=pos)
        with np.errstate(over="ignore", invalid="ignore"):
            # x < 0 branch into out, t the temporary: exp(x) / (1 + exp(x))
            np.exp(x, out=t, dtype=_F32)
            np.add(t, np.float32(1.0), out=out)
            np.divide(t, out, out=out)
            # x >= 0 branch into t: 1 / (1 + exp(-x))
            np.negative(x, out=t, dtype=_F32)
            np.exp(t, out=t)
            np.add(t, np.float32(1.0), out=t)
            np.divide(np.float32(1.0), t, out=t)
        np.copyto(out, t, where=pos)
        self._sync()
        return full

    # ------------------------------------------------------------------
    def _regout(self, key, op, x):
        """``RegOutputTransform`` replica: ``offset + scale · exp(min(x, c))``.

        The module path clamps with a weak python-float bound (fp32
        arithmetic under NEP 50), exponentiates, and scales/offsets with
        fp32 scalars (``Tensor`` coerces python floats to fp32) — the same
        ufunc chain over the same contiguous grid values, staged through a
        reused buffer.  Each process runs its own channels (:meth:`_own`)
        and meets the others at the run's last barrier.
        """

        offset, scale, max_exponent = op
        full = self._ws.get((key, "ro"), x.shape)
        ch = self._own(x.shape[0])
        out = full[ch]
        np.clip(x[ch], None, max_exponent, out=out)
        np.exp(out, out=out)
        np.multiply(out, np.float32(scale), out=out)
        np.add(out, np.float32(offset), out=out)
        self._sync()
        return full

    # ------------------------------------------------------------------
    def _res(self, key, op, canvas, spatial, bound, carry, carry_bound,
             store_spec, store: bool = True):
        """ResBlock2d replica: ``act2(conv2(act1(conv1(x)))) + x``.

        conv1's tail stores ``act1`` re-quantized as conv2's input (the
        activation merged with conv2's entry quantize on the fp16 grid);
        conv2's tail keeps ``act2`` unquantized fp32 (the module path does
        not re-quantize before the residual sum), adds the skip into the
        carry rows and stores the quantized sum.  ``carry`` is the
        unquantized fp32 block input the skip needs (None when the block
        input came straight from a conv, whose stored grid values are
        already exact and are read from the input canvas).  ``store=False``
        skips the quantized canvas store when the next consumer reads the
        carry stream.
        """

        spec1, spec2, slope1, slope2 = op
        c = canvas.shape[0]
        out_spatial = spec1.out_spatial(canvas.shape[1:])
        mid_canvas, mid = self._lease(spec1.out_channels, out_spatial,
                                      spec2.padding)
        b1_raw = spec1.out_bound(bound)
        b1 = self._cap(b1_raw)
        self._gemm((key, 0), spec1, canvas, b1_raw,
                   self._store_tail(mid, slope1, None, b1 * abs(slope1)),
                   "act+requant")

        skip = carry
        if carry is None:
            skip = _interior(canvas, spec1.padding, spatial)
            carry = self._lease(c, spatial, stream=True)[1]
            carry_bound = bound
        b2_raw = spec2.out_bound(b1)
        carry_bound = carry_bound + self._cap(b2_raw)
        out_canvas, dest = canvas, None
        if store:
            out_canvas, dest = self._lease(c, out_spatial, *store_spec)
        self._gemm((key, 1), spec2, mid_canvas, b2_raw,
                   self._sum_tail(slope2, None, skip, carry, dest, carry_bound),
                   "act+skip+store" if store else "act+skip")
        return out_canvas, dest, self._cap(carry_bound), carry, carry_bound

    # ------------------------------------------------------------------
    def _block3d(self, key, op, canvas, spatial, bound, store_spec,
                 transposed: bool):
        """DownBlock3d / UpBlock3d replica (Figure 4, both norm forms).

        ``main + skip`` where ``main = norm2(act2(conv(norm1(act1(sconv(x))))))``
        and ``skip = norm3(act3(sconv'(x)))``; ``sconv`` is the strided
        convolution (``transposed=False``, encoder side) or the transposed
        convolution over the shared dilated canvas (``transposed=True``,
        decoder side), and each ``norm`` is either absent (BCAE++/HT, §2.3)
        or an eval-mode BatchNorm affine (the original BCAE) — ``norm1``
        may already be folded into the inner convolution's weights at
        compile time (see :meth:`_fold_batchnorms`), in which case its slot
        is None here and the no-norm path runs with the fused spec.  Both
        strided convolutions consume the same quantized input canvas — the
        module path quantizes the same tensor twice and gets the same grid
        values, which is why one stacked GEMM site (``pair``, compiled by
        :meth:`_ConvSpec.stacked`) can serve both.  Three tails: the main
        conv's stores act1 (→ norm1) re-quantized as the inner
        convolution's input, the skip conv's stores act3 (→ norm3)
        unquantized into the carry stream, and the inner conv's adds act2
        (→ norm2) onto it — the module path's plain fp32 ``main + skip`` —
        and stores the sum re-quantized for the next stage's convolutions.
        """

        main_spec, inner_spec, skip_spec, s1, s2, s3, bn1, bn2, bn3, pair = op
        o = inner_spec.out_channels
        if transposed:
            out_sp, crop1, fill1, b1_raw = self._convt_geometry(
                main_spec, canvas, spatial, bound)
            _sp, crop3, fill3, b3_raw = self._convt_geometry(
                skip_spec, canvas, spatial, bound)
            main_spec, skip_spec = main_spec.spec, skip_spec.spec
        else:
            out_sp = main_spec.out_spatial(canvas.shape[1:])
            crop1 = crop3 = fill1 = fill3 = None
            b1_raw = main_spec.out_bound(bound)
            b3_raw = skip_spec.out_bound(bound)
        mid_canvas, mid = self._lease(o, out_sp, inner_spec.padding)
        total = self._lease(o, out_sp, stream=True)[1]
        out_canvas, dest = self._lease(o, out_sp, *store_spec)

        # norm1 sits between act1 and the inner conv's entry quantize:
        # leaky on the exact stream, the affine on the fp32 values, then
        # one grid snap during the mid store.
        b1 = self._cap(b1_raw)
        b_mid = b1 * abs(s1) if bn1 is None else bn1.out_bound(b1)
        self._act_fill(mid, fill1, s1, bn1, quantize=True)
        tail1 = self._store_tail(mid, s1, bn1, b_mid)

        b_l3 = self._cap(b3_raw)
        if bn3 is not None:
            b_l3 = bn3.out_bound(b_l3)
        self._act_fill(total, fill3, s3, bn3)
        tail3 = self._store_tail(total, s3, bn3)
        # One stacked site where calibration accepts it: the shared clip is
        # the identity on a member whose own bound would elide it.
        if pair is None or not self._gemm(
                (key, 0), pair, canvas, max(b1_raw, b3_raw), (tail1, tail3),
                "act+requant|act", crop1):
            self._gemm((key, 0), main_spec, canvas, b1_raw, tail1,
                       "act+requant", crop1)
            self._gemm((key, 2), skip_spec, canvas, b3_raw, tail3, "act",
                       crop3)

        b2_raw = inner_spec.out_bound(b1 if bn1 is None else self._cap(b_mid))
        b_l2 = self._cap(b2_raw)
        if bn2 is not None:
            b_l2 = bn2.out_bound(b_l2)
        carry_bound = b_l2 + b_l3
        self._gemm((key, 1), inner_spec, mid_canvas, b2_raw,
                   self._sum_tail(s2, bn2, total, total, dest, carry_bound),
                   "act+skip+store")
        return (out_canvas, dest, out_sp, self._cap(carry_bound), total,
                carry_bound)

    # ------------------------------------------------------------------
    def _store_stream(self, src, bound, spatial, store_spec):
        """Store the unquantized fp32 stream into a conv-input canvas.

        Each process snaps and stores its own channels (:meth:`_own`) —
        the block its pool / upsample / norm wrote, so no barrier sits
        between them — and the barrier after the store keeps the next
        op's panels, which read every channel, after it."""

        canvas, dest = self._lease(src.shape[0], spatial, *store_spec)
        if self.half:
            src, bound = self._grid(src, bound)
        ch = self._own(src.shape[0])
        np.copyto(dest[ch], src[ch])
        self._sync()
        return canvas, dest, bound


def _interior(canvas: np.ndarray, padding, spatial: tuple[int, ...]) -> np.ndarray:
    return canvas[(slice(None),) + tuple(
        slice(pl, pl + s) for s, (pl, _ph) in zip(spatial, padding)
    )]


def _canvas_padding(canvas: np.ndarray, spatial) -> tuple[tuple[int, int], ...]:
    """Recover the (symmetric) padding a canvas was allocated with."""

    out = []
    for axis, s in enumerate(spatial):
        p = canvas.shape[1 + axis] - s
        out.append((p // 2, p - p // 2))
    return tuple(out)


def _plan_nd(ops) -> int:
    """Spatial rank of a compiled plan, from its first geometric op."""

    for kind, op in ops:
        if kind in ("conv", "conv3d"):
            return len(op.kernel)
        if kind == "convtranspose3d":
            return len(op.kernel)
        if kind == "res":
            return len(op[0].kernel)
        if kind in ("down3d", "upblock3d"):
            return 3
        if kind in ("pool", "up"):
            return 2
        if kind in ("pool3d", "up3d"):
            return 3
    return 2


def _next_consumer(ops, i) -> str | None:
    """Kind of the next non-identity op, or None at the end of the plan."""

    for kind, _op in ops[i + 1:]:
        if kind != "identity":
            return kind
    return None


def _next_store_spec(ops, i, nd) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(padding, dilation) the next consumer needs its input stored with.

    Ordinary convolutions need their zero padding pre-allocated around the
    interior; transposed convolutions additionally need the stride-dilation
    gaps (the module path's ``_dilate`` + ``np.pad``, kept as persistent
    zeros).  Pools, upsamples and heads consume raw interior values.
    """

    ones = (1,) * nd
    for kind, op in ops[i + 1:]:
        if kind in ("conv", "conv3d"):
            return op.padding, ones
        if kind == "convtranspose3d":
            return op.store_padding, op.dilation
        if kind == "res":
            return op[0].padding, ones
        if kind == "down3d":
            return op[0].padding, ones
        if kind == "upblock3d":
            return op[0].store_padding, op[0].dilation
        if kind in ("pool", "pool3d", "up", "up3d", "bnorm", "sigmoid", "regout"):
            # These consume raw interior values — no conv padding needed.
            return ((0, 0),) * nd, ones
        # "identity" is transparent: keep scanning for the real consumer.
    return ((0, 0),) * nd, ones
