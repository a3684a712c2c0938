"""The adaptive codec-selection tier: a drop-in compressor wrapper.

:class:`AdaptiveCompressor` presents the same serving surface as
:class:`~repro.core.BCAECompressor` (``compress`` / ``compress_into`` /
``decompress`` / ``decompress_into`` / ``code_shape_for`` /
``compression_ratio``) so the whole serving stack — worker pools, the shm
transport, the gateway — hosts it unchanged.  Per batch it:

1. scans each wedge **once** for its hit list (:func:`~repro.rate.policy.
   wedge_hits`) and asks the :class:`~repro.rate.policy.OccupancyPolicy`
   for a codec from it (pure per-wedge decision — batch-invariant);
2. codes each classical-routed wedge from that same hit list, in O(hits):
   the log transform is elementwise and ``log2(0 + 1) = 0``, so the hits'
   **log-ADC** values (the domain the BCAE reconstructs into, the domain
   the error bound is documented on) give the bytes the whole log volume
   would;
3. compresses the BCAE-routed wedges as **one sub-batch** through the
   wrapped compressor's fast path (payload bytes are batch-composition
   independent, so each routed wedge's record is byte-identical to the
   all-BCAE path's — the property the round-trip tests pin);
4. concatenates the records in stream order and returns a
   :class:`~repro.core.CompressedWedges` carrying the per-wedge
   ``codec_ids`` / ``record_sizes`` / :class:`RateDecision` ledger.

Decompression inverts the routing: BCAE records regroup into one
sub-batch for the compiled decode path, classical records decode
individually, and reconstructions scatter back to stream order.
"""

from __future__ import annotations

import numpy as np

from ..core.compressor import BCAECompressor, CompressedWedges
from ..tpc.transforms import log_transform
from .policy import OccupancyPolicy, RateDecision, wedge_hits
from .records import record_views
from .registry import (
    BCAE_CODEC_ID,
    classical_codec,
    codec_name,
    validate_codec_ids,
)

__all__ = ["AdaptiveCompressor", "aggregate_ratio"]


class AdaptiveCompressor:
    """Route each wedge to the BCAE fast path or a classical codec.

    Parameters
    ----------
    inner:
        The :class:`BCAECompressor` serving the dense route (and the
        decode path for BCAE records).
    policy:
        The selection policy.  ``None`` builds a decode-only tier: it can
        decompress any mixed archive (the registry, not the policy, maps
        ids to codecs) but refuses to compress.
    """

    #: Marker the serving layer uses to pick the variable-size shm path.
    is_adaptive = True

    def __init__(self, inner: BCAECompressor,
                 policy: OccupancyPolicy | None = None) -> None:
        self.inner = inner
        self.policy = policy
        self._codecs: dict[int, object] = {}

    # -- delegated surface ---------------------------------------------
    @property
    def model(self):
        return self.inner.model

    @property
    def half(self) -> bool:
        return self.inner.half

    def code_shape_for(self, wedge_spatial) -> tuple[int, ...]:
        return self.inner.code_shape_for(wedge_spatial)

    def compression_ratio(self, wedge_spatial) -> float:
        return self.inner.compression_ratio(wedge_spatial)

    # ------------------------------------------------------------------
    def _codec(self, codec_id: int):
        codec = self._codecs.get(codec_id)
        if codec is None:
            codec = classical_codec(codec_id)
            self._codecs[codec_id] = codec
        return codec

    def _classical_record(self, codec_id: int, shape, idx: np.ndarray,
                          values: np.ndarray) -> bytes:
        """One classical record from a wedge's hit list (raw values)."""

        codec = self._codec(codec_id)
        logged = log_transform(values)
        if hasattr(codec, "compress_hits"):
            return codec.compress_hits(shape, idx, logged)
        # A dense-volume codec on the sparse route: scatter the hits back
        # (bit-identical to log_transform of the wedge — zeros map to 0.0).
        volume = np.zeros(shape, dtype=np.float32)
        volume.reshape(-1)[idx] = logged
        return codec.compress(volume)

    # ------------------------------------------------------------------
    def compress(self, wedges: np.ndarray) -> CompressedWedges:
        """Adaptive compression of raw ADC wedges ``(B, R, A, H)``."""

        return self.compress_into(wedges)

    def compress_into(self, wedges: np.ndarray,
                      out: bytearray | None = None) -> CompressedWedges:
        """Route, compress and assemble one mixed-codec batch.

        The returned payload is always owned bytes (records are
        variable-size, so there is no pre-sizable ring-buffer contract to
        honour); ``out``, when given, additionally receives a copy of the
        payload prefix for callers that insist on their own buffer.
        """

        if self.policy is None:
            raise ValueError(
                "this AdaptiveCompressor was built decode-only (no policy) "
                "— construct it with an OccupancyPolicy to compress"
            )
        wedges = np.asarray(wedges)
        if wedges.ndim == 3:
            wedges = wedges[None]
        n = wedges.shape[0]
        horizontal = int(wedges.shape[-1])
        code_shape = self.inner.code_shape_for(wedges.shape[1:])
        bcae_record = int(np.prod(code_shape)) * 2

        codec_ids: list[int] = [BCAE_CODEC_ID] * n
        features: list[tuple[float, float, int]] = [(0.0, 0.0, 0)] * n
        records: list[bytes] = [b""] * n
        for i in range(n):
            idx, values = wedge_hits(wedges[i])
            codec_id, occ, act, est = self.policy.select_hits(
                wedges[i].size, values, bcae_record
            )
            codec_ids[i] = codec_id
            features[i] = (occ, act, est)
            if codec_id != BCAE_CODEC_ID:
                records[i] = self._classical_record(
                    codec_id, wedges.shape[1:], idx, values
                )
        bcae_idx = [i for i in range(n) if codec_ids[i] == BCAE_CODEC_ID]

        if bcae_idx:
            sub = self.inner.compress_into(
                wedges[np.asarray(bcae_idx)]  # lint: allow-alloc
            )
            payload = bytes(sub.payload)
            for j, i in enumerate(bcae_idx):
                records[i] = payload[j * bcae_record:(j + 1) * bcae_record]

        decisions = tuple(
            RateDecision(
                occupancy=features[i][0],
                activity=features[i][1],
                codec_id=codec_ids[i],
                codec=codec_name(codec_ids[i]),
                est_bytes=features[i][2],
                actual_bytes=len(records[i]),
            )
            for i in range(n)
        )
        blob = b"".join(records)
        if out is not None:
            if len(out) < len(blob):
                raise ValueError(
                    f"out buffer holds {len(out)} bytes, payload needs {len(blob)}"
                )
            out[:len(blob)] = blob
        return CompressedWedges(
            payload=blob,
            code_shape=tuple(code_shape),
            n_wedges=n,
            original_horizontal=horizontal,
            half=self.inner.half,
            codec_ids=tuple(codec_ids),
            record_sizes=tuple(len(r) for r in records),
            decisions=decisions,
        )

    # ------------------------------------------------------------------
    def decompress(self, compressed: CompressedWedges) -> np.ndarray:
        """Decode a mixed (or plain BCAE) batch to log-ADC reconstructions."""

        if compressed.codec_ids is None:
            return self.inner.decompress(compressed)
        validate_codec_ids(compressed.codec_ids, context="compressed batch")
        n = compressed.n_wedges
        if n == 0:
            # An empty batch has nothing to route; the inner path already
            # knows how to shape a zero-wedge reconstruction.
            import dataclasses

            return self.inner.decompress(dataclasses.replace(
                compressed, codec_ids=None, record_sizes=None, decisions=None
            ))
        views = record_views(compressed)
        recons: list[np.ndarray | None] = [None] * n
        bcae_idx = [i for i in range(n)
                    if compressed.codec_ids[i] == BCAE_CODEC_ID]
        if bcae_idx:
            sub = CompressedWedges(
                payload=b"".join(bytes(views[i]) for i in bcae_idx),
                code_shape=compressed.code_shape,
                n_wedges=len(bcae_idx),
                original_horizontal=compressed.original_horizontal,
                half=compressed.half,
                code_dtype=compressed.code_dtype,
            )
            decoded = self.inner.decompress_into(sub)
            for j, i in enumerate(bcae_idx):
                recons[i] = np.array(decoded[j])  # lint: allow-alloc
        for i in range(n):
            if recons[i] is None:
                recons[i] = self._codec(
                    int(compressed.codec_ids[i])
                ).decompress(bytes(views[i]))
        return np.stack(recons).astype(np.float32, copy=False)

    def decompress_into(self, compressed: CompressedWedges,
                        out: np.ndarray | None = None) -> np.ndarray:
        """``decompress`` with an optional destination (service surface)."""

        if compressed.codec_ids is None:
            return self.inner.decompress_into(compressed, out=out)
        recon = self.decompress(compressed)
        if out is None:
            return recon
        np.copyto(out, recon)
        return out

    def decompress_adc(self, compressed: CompressedWedges) -> np.ndarray:
        """Back to integer ADC counts (mixed-aware)."""

        from ..tpc.transforms import inverse_log_transform

        return inverse_log_transform(self.decompress(compressed))


def aggregate_ratio(batches, wedge_spatial) -> float:
    """Paper-convention aggregate compression ratio of served batches.

    Input and output are both counted in bytes with the paper's fp16
    convention on the input side (§3.1: ratio treats input voxels as
    16-bit), so an all-BCAE stream reproduces ``compression_ratio`` and a
    mixed stream credits the classical records' actual sizes.
    """

    per_wedge_in = 2 * int(np.prod(wedge_spatial))
    n_wedges = sum(b.n_wedges for b in batches)
    total_out = sum(
        (sum(b.record_sizes) if b.record_sizes is not None
         else b.n_wedges * int(np.prod(b.code_shape))
         * np.dtype(b.code_dtype).itemsize)
        for b in batches
    )
    if total_out == 0:
        return float("inf") if n_wedges else 0.0
    return n_wedges * per_wedge_in / total_out
