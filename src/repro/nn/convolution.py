"""N-dimensional convolution primitives for ``repro.nn``.

All convolutions in the BCAE family (2D and 3D, strided, asymmetrically
padded, transposed) are expressed with three NumPy primitives:

``conv_forward``
    cross-correlation of an ``(N, C, *S)`` input with an ``(O, C, *K)``
    kernel, arbitrary per-axis stride and *(lo, hi)* padding;
``conv_input_grad``
    the adjoint map (gradient w.r.t. the input) — also the forward pass of a
    transposed convolution;
``conv_weight_grad``
    gradient w.r.t. the kernel.

The implementation uses ``numpy.lib.stride_tricks.sliding_window_view`` (a
zero-copy view) followed by BLAS-backed GEMMs — the standard im2col/GEMM
formulation, vectorized end to end per the HPC guidance for this
repository.  No Python loop touches voxel data: ``conv_forward`` loops over
samples and fixed chunks of whole output rows (:func:`gemm_chunk_rows`),
one ``np.dot`` each.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "normalize_tuple",
    "normalize_padding",
    "conv_output_shape",
    "conv_transpose_output_shape",
    "conv_forward",
    "conv_input_grad",
    "conv_weight_grad",
    "gemm_chunk_rows",
    "row_boxes",
]

#: Byte budget of one chunk of the reference contraction's fp32 im2col
#: operand: ``conv_forward`` copies and multiplies one chunk of whole output
#: rows at a time instead of a whole sample's im2col.
_CHUNK_BYTES = 4 << 20


def gemm_chunk_rows(K: int, ow: int) -> int:
    """Whole output rows per chunk of the reference contraction.

    The reference contraction of one sample — :func:`conv_forward`'s GEMM,
    and therefore the oracle every compiled formulation of
    :mod:`repro.core.fast_plan` is probed against — is one ``np.dot`` per
    chunk of this many whole innermost-axis rows (``ow`` output positions
    of ``K`` operand values each) of the flattened output grid, the last
    chunk possibly narrower: as many rows as fit ``_CHUNK_BYTES`` of fp32
    operand, at least one.  A function of the problem shape only: the
    chunk, like the BLAS dispatch it selects, never depends on the data or
    the batch.

    A bound in bytes rather than in rows keeps the chunks of narrow-``K``
    sites long: BLAS contracts a one-column product (``O = 1``, a GEMV)
    with a different summation order below some tens of thousands of
    rows, so shorter chunks there would change the bits of the single
    whole-sample call this contraction replaced.
    """

    return max(1, _CHUNK_BYTES // (4 * K * ow))


def row_boxes(r0: int, r1: int, dims: tuple[int, ...], j: int = 0) -> list:
    """Index boxes tiling rows ``[r0, r1)`` of a C-ordered ``dims`` grid.

    Returns ``(j0, j1, idx)`` triples: rows ``j0:j1`` of the range (counted
    from ``j``) are exactly the box ``idx`` — one int or slice per dim.  A
    chunk or panel of whole innermost rows is a row range of the flattened
    ``out_spatial[:-1]`` grid, but a padded input is not uniformly strided
    across it, so a range that crosses a plane boundary is addressed as at
    most ``2·len(dims) − 1`` boxes (one for the common 2-D case, one for a
    whole-result range).
    """

    if r0 >= r1:
        return []
    if len(dims) == 1:
        return [(j, j + r1 - r0, (slice(r0, r1),))]
    s = int(np.prod(dims[1:]))

    def sub(i, a, b, jj):
        return [(x, y, (i,) + idx) for x, y, idx in row_boxes(a, b, dims[1:], jj)]

    i0, i1 = -(-r0 // s), r1 // s   # whole leading indices [i0, i1)
    if i0 > i1:
        return sub(r0 // s, r0 % s, r1 - r0 // s * s, j)
    whole = []
    if i1 > i0:
        whole = [(j + i0 * s - r0, j + i1 * s - r0,
                  (slice(i0, i1),) + (slice(None),) * (len(dims) - 1))]
    return (sub(i0 - 1, r0 - (i0 - 1) * s, s, j) + whole
            + sub(i1, 0, r1 - i1 * s, j + i1 * s - r0))


def normalize_tuple(value, nd: int, name: str = "value") -> tuple[int, ...]:
    """Broadcast an int or length-``nd`` sequence to a tuple of ints."""

    if isinstance(value, (int, np.integer)):
        return (int(value),) * nd
    value = tuple(int(v) for v in value)
    if len(value) != nd:
        raise ValueError(f"{name} must have length {nd}, got {len(value)}")
    return value


def normalize_padding(padding, nd: int) -> tuple[tuple[int, int], ...]:
    """Normalize padding to per-axis ``(lo, hi)`` pairs.

    Accepts an int, a length-``nd`` sequence of ints, or a length-``nd``
    sequence of ``(lo, hi)`` pairs (asymmetric padding — needed to reproduce
    the original BCAE's odd code shape ``(8, 17, 13, 16)``).
    """

    if isinstance(padding, (int, np.integer)):
        return ((int(padding),) * 2,) * nd
    padding = tuple(padding)
    if len(padding) != nd:
        raise ValueError(f"padding must have length {nd}, got {len(padding)}")
    out = []
    for p in padding:
        if isinstance(p, (int, np.integer)):
            out.append((int(p), int(p)))
        else:
            lo, hi = p
            out.append((int(lo), int(hi)))
    return tuple(out)


def conv_output_shape(
    spatial: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[tuple[int, int]],
) -> tuple[int, ...]:
    """Spatial output shape of a (cross-correlation) convolution."""

    out = []
    for s, k, st, (pl, ph) in zip(spatial, kernel, stride, padding):
        span = s + pl + ph - k
        if span < 0:
            raise ValueError(
                f"kernel {k} larger than padded input {s + pl + ph}"
            )
        out.append(span // st + 1)
    return tuple(out)


def conv_transpose_output_shape(
    spatial: Sequence[int],
    kernel: Sequence[int],
    stride: Sequence[int],
    padding: Sequence[tuple[int, int]],
    output_padding: Sequence[int],
) -> tuple[int, ...]:
    """Spatial output shape of a transposed convolution."""

    out = []
    for s, k, st, (pl, ph), op in zip(spatial, kernel, stride, padding, output_padding):
        if op >= st and not (op == 0 and st == 1):
            raise ValueError("output_padding must be smaller than stride")
        out.append((s - 1) * st - pl - ph + k + op)
    return tuple(out)


def _strided_windows(xp: np.ndarray, kernel: tuple[int, ...], stride: tuple[int, ...]) -> np.ndarray:
    """View of all kernel-sized windows of ``xp`` subsampled by ``stride``.

    ``xp`` has shape ``(N, C, *padded_spatial)``; the result is a zero-copy
    view of shape ``(N, C, *out_spatial, *kernel)``.
    """

    nd = len(kernel)
    v = sliding_window_view(xp, kernel, axis=tuple(range(2, 2 + nd)))
    sel = (slice(None), slice(None)) + tuple(slice(None, None, st) for st in stride)
    sel += (slice(None),) * nd
    return v[sel]


def conv_forward(
    x: np.ndarray,
    w: np.ndarray,
    stride,
    padding,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Strided cross-correlation.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, *spatial)``.
    w:
        Kernel of shape ``(O, C, *kernel)``.
    stride, padding:
        Per-axis stride / ``(lo, hi)`` padding (see :func:`normalize_padding`).
    bias:
        Optional per-output-channel bias of shape ``(O,)``.

    Returns
    -------
    ndarray of shape ``(N, O, *out_spatial)``.
    """

    nd = x.ndim - 2
    kernel = w.shape[2:]
    stride = normalize_tuple(stride, nd, "stride")
    padding = normalize_padding(padding, nd)
    if w.shape[1] != x.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, kernel {w.shape[1]}")

    pad_width = ((0, 0), (0, 0)) + padding
    xp = np.pad(x, pad_width) if any(pl or ph for pl, ph in padding) else x
    win = _strided_windows(xp, kernel, stride)
    # win: (N, C, *out, *k) ; w: (O, C, *k) -> contract over C and kernel
    # axes.  This is tensordot's contraction written out with *pinned*
    # operand layouts (C-contiguous im2col rows against an F-contiguous
    # kernel matrix) and *pinned* GEMM shapes: one sample at a time, one
    # chunk of gemm_chunk_rows(K, ow) whole output rows at a time, only
    # that chunk's im2col rows copied.  BLAS picks its kernel — and therefore its
    # summation order, and therefore the result bits — from operand shapes
    # and layouts, so a whole-batch GEMM would make a compressed payload
    # depend on how wedges were batched together.  Every call here is a
    # C-contiguous (P, K) chunk of one sample against the same F-contiguous
    # kernel, with P set by the problem shape alone, so a sample's rows
    # are bit-identical to a batch-of-one call: compression output is
    # invariant to batch composition (asserted by the serving benchmarks).
    out_spatial = conv_output_shape(x.shape[2:], kernel, stride, padding)
    n = x.shape[0]
    rows = int(np.prod(out_spatial))
    kdim = w.shape[1] * int(np.prod(kernel))
    ow = out_spatial[-1]
    grid = out_spatial[:-1] or (1,)
    tv = win.transpose((0,) + tuple(range(2, 2 + nd)) + (1,) + tuple(range(2 + nd, 2 + 2 * nd)))
    tv = tv.reshape((n,) + grid + tv.shape[nd:])  # (N, *grid, ow, C, *k)
    bt = np.asfortranarray(
        w.transpose(tuple(range(1, 2 + nd)) + (0,)).reshape(kdim, w.shape[0])
    )
    y2 = np.empty((n * rows, w.shape[0]), dtype=np.result_type(tv, bt))
    nrows = rows // ow
    step = min(gemm_chunk_rows(kdim, ow), nrows)
    chunk = np.empty((step * ow, kdim), dtype=tv.dtype)
    for i in range(n):
        for r0 in range(0, nrows, step):
            r1 = min(r0 + step, nrows)
            at = chunk[:(r1 - r0) * ow]
            for j0, j1, idx in row_boxes(r0, r1, grid):
                src = tv[(i,) + idx]
                np.copyto(at[j0 * ow:j1 * ow].reshape(src.shape), src)
            lo = i * rows + r0 * ow
            np.dot(at, bt, out=y2[lo:lo + (r1 - r0) * ow])
    y = y2.reshape((n,) + out_spatial + (w.shape[0],))
    # y: (N, *out, O) -> (N, O, *out)
    y = np.moveaxis(y, -1, 1)
    if bias is not None:
        y += bias.reshape((1, -1) + (1,) * nd)
    return np.ascontiguousarray(y)


def _dilate(x: np.ndarray, stride: tuple[int, ...]) -> np.ndarray:
    """Insert ``stride - 1`` zeros between spatial elements of ``x``."""

    if all(st == 1 for st in stride):
        return x
    n, c = x.shape[:2]
    spatial = x.shape[2:]
    out_spatial = tuple((s - 1) * st + 1 for s, st in zip(spatial, stride))
    out = np.zeros((n, c) + out_spatial, dtype=x.dtype)
    sel = (slice(None), slice(None)) + tuple(slice(None, None, st) for st in stride)
    out[sel] = x
    return out


def _flip_spatial(w: np.ndarray) -> np.ndarray:
    """Reverse every spatial axis of a kernel."""

    nd = w.ndim - 2
    sel = (slice(None), slice(None)) + (slice(None, None, -1),) * nd
    return w[sel]


def conv_input_grad(
    gy: np.ndarray,
    w: np.ndarray,
    input_spatial: Sequence[int],
    stride,
    padding,
) -> np.ndarray:
    """Adjoint of :func:`conv_forward` w.r.t. its input.

    Also serves as the forward pass of a transposed convolution: feed the
    transposed-conv input as ``gy`` (with ``w`` laid out ``(O, C, *k)``) and
    the desired output spatial size as ``input_spatial``.

    Parameters
    ----------
    gy:
        Upstream gradient / transposed-conv input, shape ``(N, O, *out)``.
    w:
        Kernel of shape ``(O, C, *kernel)`` — same layout as the forward.
    input_spatial:
        Spatial shape of the original convolution input.
    stride, padding:
        The original convolution's stride and padding.
    """

    nd = gy.ndim - 2
    kernel = w.shape[2:]
    stride = normalize_tuple(stride, nd, "stride")
    padding = normalize_padding(padding, nd)
    input_spatial = tuple(int(s) for s in input_spatial)

    # Full correlation of the stride-dilated gradient with the flipped,
    # channel-swapped kernel, then crop away the original padding.
    g = _dilate(gy, stride)
    pad_width = ((0, 0), (0, 0)) + tuple((k - 1, k - 1) for k in kernel)
    gp = np.pad(g, pad_width)
    wt = np.ascontiguousarray(np.swapaxes(_flip_spatial(w), 0, 1))  # (C, O, *k)
    full = conv_forward(gp, wt, stride=(1,) * nd, padding=((0, 0),) * nd)
    # full spatial size: (out-1)*stride + 2k - 2 - k + 1 = (out-1)*stride + k - 1 ... per axis
    canvas_spatial = tuple(
        s + pl + ph for s, (pl, ph) in zip(input_spatial, padding)
    )
    n, c = full.shape[:2]
    dx = np.zeros((n, c) + canvas_spatial, dtype=full.dtype)
    place = tuple(slice(0, min(fs, cs)) for fs, cs in zip(full.shape[2:], canvas_spatial))
    dx[(slice(None), slice(None)) + place] = full[
        (slice(None), slice(None)) + place
    ]
    crop = tuple(slice(pl, pl + s) for s, (pl, _ph) in zip(input_spatial, padding))
    return np.ascontiguousarray(dx[(slice(None), slice(None)) + crop])


def conv_weight_grad(
    x: np.ndarray,
    gy: np.ndarray,
    kernel: Sequence[int],
    stride,
    padding,
) -> np.ndarray:
    """Adjoint of :func:`conv_forward` w.r.t. its kernel.

    Parameters
    ----------
    x:
        Forward input, shape ``(N, C, *spatial)``.
    gy:
        Upstream gradient, shape ``(N, O, *out)``.
    kernel:
        Kernel spatial shape.

    Returns
    -------
    ndarray of shape ``(O, C, *kernel)``.
    """

    nd = x.ndim - 2
    kernel = tuple(int(k) for k in kernel)
    stride = normalize_tuple(stride, nd, "stride")
    padding = normalize_padding(padding, nd)

    pad_width = ((0, 0), (0, 0)) + padding
    xp = np.pad(x, pad_width) if any(pl or ph for pl, ph in padding) else x
    win = _strided_windows(xp, kernel, stride)  # (N, C, *out, *k)
    # Contract batch and output-spatial axes of the windows against gy.
    win_axes = (0,) + tuple(range(2, 2 + nd))
    gy_axes = (0,) + tuple(range(2, 2 + nd))
    gw = np.tensordot(win, gy, axes=(win_axes, gy_axes))
    # gw: (C, *k, O) -> (O, C, *k)
    gw = np.moveaxis(gw, -1, 0)
    return np.ascontiguousarray(gw)
