"""Occupancy-driven per-wedge codec selection, with a recorded decision.

TPC occupancy varies wildly per wedge (paper §1; the follow-up arXiv
2411.11942 builds a whole model family on it): a central-membrane wedge in
a busy event is dense, an outer wedge in a quiet crossing is almost empty.
The fixed-rate BCAE spends the same 24 576 fp16 code elements either way —
on a near-empty wedge that is nearly all waste, and a cheap classical
codec (long zero runs → cheap Huffman symbols) beats it by orders of
magnitude.  :class:`OccupancyPolicy` routes each wedge accordingly and
records *why* in a :class:`RateDecision`, the auditable unit the archive
header, the serving ledger and the bench all carry.

Determinism contract: selection is a pure function of the single wedge
(features + the stateless :class:`~repro.rate.budget.RateBudget`
allowance).  No running totals, no batch context — so inline, process-pool
and gateway serving produce identical decisions for identical streams, as
the parity tests assert.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .budget import RateBudget
from .registry import BCAE_CODEC_ID, SPARSE_CODEC_ID, codec_name

__all__ = [
    "POLICY_NAMES",
    "OccupancyPolicy",
    "RateDecision",
    "make_policy",
    "wedge_features",
    "wedge_hits",
]

#: Policy names the CLI / ServiceConfig accept.
POLICY_NAMES = ("occupancy",)

#: Classical-record size model for the sparse coordinate-list codec:
#: header floor plus amortized index-gap + value bits per occupied voxel.
#: Deliberately crude — the estimate only has to rank codecs consistently,
#: and the *actual* bytes are recorded next to it in every decision.
_CLASSICAL_BASE_BYTES = 96
_CLASSICAL_BYTES_PER_HIT = 3


@dataclasses.dataclass(frozen=True)
class RateDecision:
    """Why one wedge was routed to its codec.

    Stored per wedge in mixed-codec archives and carried through the
    serving ledger; all fields are pure functions of the wedge, so two
    decisions for the same wedge are equal regardless of how the stream
    was batched or sharded.
    """

    #: Fraction of nonzero voxels in the raw wedge.
    occupancy: float
    #: Mean log2(ADC + 1) over the occupied voxels (0.0 for empty wedges).
    activity: float
    #: Chosen codec (see :mod:`repro.rate.registry`).
    codec_id: int
    #: Stable codec name (redundant with the id; kept for readability).
    codec: str
    #: The policy's record-size estimate at selection time.
    est_bytes: int
    #: The record size actually produced.
    actual_bytes: int

    def as_row(self) -> tuple[float, float, float, float, float]:
        """Numeric row for npz storage (name is recovered from the id)."""

        return (
            float(self.codec_id),
            float(self.occupancy),
            float(self.activity),
            float(self.est_bytes),
            float(self.actual_bytes),
        )

    @classmethod
    def from_row(cls, row) -> "RateDecision":
        codec_id = int(row[0])
        return cls(
            occupancy=float(row[1]),
            activity=float(row[2]),
            codec_id=codec_id,
            codec=codec_name(codec_id),
            est_bytes=int(row[3]),
            actual_bytes=int(row[4]),
        )


def wedge_hits(wedge: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hit list of one raw wedge: ascending flat (C-order) indices of
    its nonzero voxels and the raw values there.  The tier's **one scan**
    (a compare to a byte mask, then the indices of that mask): features,
    selection and the sparse record all come from the O(hits) result."""

    flat = np.asarray(wedge).reshape(-1)
    idx = np.flatnonzero(flat != 0)
    return idx, flat[idx]


def hit_features(size: int, values: np.ndarray) -> tuple[float, float]:
    """:func:`wedge_features` from the hit values of a ``size``-voxel wedge."""

    if values.size == 0:
        return 0.0, 0.0
    activity = float(np.log2(values.astype(np.float64) + 1.0).mean())
    return float(values.size / size), activity


def wedge_features(wedge: np.ndarray) -> tuple[float, float]:
    """``(occupancy, activity)`` of one raw ADC wedge ``(R, A, H)``.

    Occupancy is the nonzero fraction; activity is the mean log2(ADC+1)
    over occupied voxels (the scale reconstruction error lives on).
    """

    return hit_features(np.size(wedge), wedge_hits(wedge)[1])


class OccupancyPolicy:
    """Sparse wedges → a cheap classical codec; dense wedges → the BCAE.

    Parameters
    ----------
    sparse_occupancy:
        Wedges with a nonzero fraction *below* this route to the classical
        codec.  The default (5%) sits well under typical busy-event
        occupancy while catching the near-empty wedges where fixed-rate
        codes are pure waste.
    sparse_codec_id:
        Which classical codec takes the sparse route (default
        :data:`~repro.rate.registry.SPARSE_CODEC_ID` — the coordinate-list
        codec, whose payload scales with occupancy and which carries a
        hard error bound).
    budget:
        Optional :class:`~repro.rate.budget.RateBudget`.  When the chosen
        codec's estimated record exceeds the per-wedge allowance, the
        policy falls back to the candidate with the smallest estimate —
        still a pure per-wedge rule.
    """

    name = "occupancy"

    def __init__(self, sparse_occupancy: float = 0.05,
                 sparse_codec_id: int = SPARSE_CODEC_ID,
                 budget: RateBudget | None = None) -> None:
        if not 0.0 <= sparse_occupancy <= 1.0:
            raise ValueError(
                f"sparse_occupancy must be in [0, 1], got {sparse_occupancy}"
            )
        if sparse_codec_id == BCAE_CODEC_ID:
            raise ValueError("sparse_codec_id must name a classical codec")
        codec_name(sparse_codec_id)  # fail fast on unknown ids
        self.sparse_occupancy = float(sparse_occupancy)
        self.sparse_codec_id = int(sparse_codec_id)
        self.budget = budget

    # ------------------------------------------------------------------
    def estimate_bytes(self, codec_id: int, wedge: np.ndarray,
                       bcae_record_nbytes: int) -> int:
        """Deterministic record-size estimate for one candidate codec."""

        if codec_id == BCAE_CODEC_ID:
            return int(bcae_record_nbytes)
        hits = int(np.count_nonzero(wedge))
        return _CLASSICAL_BASE_BYTES + _CLASSICAL_BYTES_PER_HIT * hits

    def select(self, wedge: np.ndarray,
               bcae_record_nbytes: int) -> tuple[int, float, float, int]:
        """Route one wedge; returns ``(codec_id, occupancy, activity,
        est_bytes)``.

        Pure per-wedge function — see the module docstring's determinism
        contract.
        """

        return self.select_hits(np.size(wedge), wedge_hits(wedge)[1],
                                bcae_record_nbytes)

    def select_hits(self, size: int, values: np.ndarray,
                    bcae_record_nbytes: int) -> tuple[int, float, float, int]:
        """:meth:`select` from the hit values (:func:`wedge_hits`) of a
        ``size``-voxel wedge: no further pass over the volume."""

        occupancy, activity = hit_features(size, values)
        # Per candidate, what estimate_bytes returns for the wedge.
        estimates = {
            BCAE_CODEC_ID: int(bcae_record_nbytes),
            self.sparse_codec_id: (_CLASSICAL_BASE_BYTES
                                   + _CLASSICAL_BYTES_PER_HIT * values.size),
        }
        codec_id = (self.sparse_codec_id
                    if occupancy < self.sparse_occupancy
                    else BCAE_CODEC_ID)
        if self.budget is not None and not self.budget.fits(estimates[codec_id]):
            codec_id = min(estimates, key=estimates.get)  # ties: the BCAE
        return codec_id, occupancy, activity, estimates[codec_id]


def make_policy(name: str, budget_mbps: float | None = None,
                wedges_per_second: float | None = None,
                sparse_occupancy: float = 0.05) -> OccupancyPolicy:
    """Build a selection policy from CLI-shaped knobs.

    ``budget_mbps`` (with an optional nominal ``wedges_per_second``)
    attaches a stateless :class:`RateBudget`; see that class for why the
    budget is per-wedge rather than cumulative.
    """

    if name not in POLICY_NAMES:
        raise ValueError(f"rate policy must be one of {POLICY_NAMES}, got {name!r}")
    budget = None
    if budget_mbps is not None:
        kwargs = {}
        if wedges_per_second is not None:
            kwargs["wedges_per_second"] = wedges_per_second
        budget = RateBudget(budget_mbps, **kwargs)
    return OccupancyPolicy(sparse_occupancy=sparse_occupancy, budget=budget)
