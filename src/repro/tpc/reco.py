"""Hit clustering and position reconstruction (the paper's §2.1 criterion).

Why MAE alone is not the end of the story: "trajectory locations must be
interpolated from neighboring sensors using the ADC values, it is important
to preserve the relative ADC ratio between the sensors" (§2.1).  The
physics-level figure of merit of a TPC compressor is therefore the shift it
induces in *cluster centroids* — the ADC-weighted positions from which
track fits interpolate trajectories.

This module provides the minimal reconstruction chain needed to measure it:

* :func:`find_clusters` — per-layer connected-component clustering of
  nonzero voxels (scipy.ndimage) with ADC-weighted centroids;
* :func:`match_clusters` — greedy nearest-centroid matching between two
  cluster sets (e.g. original vs decompressed wedge);
* :func:`centroid_residuals` — the distribution of matched-centroid shifts,
  in bins, plus efficiency/fake rates — the numbers that tell a physicist
  whether a compressor is usable.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Cluster",
    "find_clusters",
    "match_clusters",
    "ResidualSummary",
    "centroid_residuals",
]


@dataclasses.dataclass
class Cluster:
    """One contiguous charge blob on a single pad layer.

    Attributes
    ----------
    layer:
        Radial layer index.
    centroid:
        ADC-weighted (azimuthal, horizontal) centre in fractional bins.
    charge:
        Total ADC-equivalent charge.
    size:
        Number of voxels.
    """

    layer: int
    centroid: tuple[float, float]
    charge: float
    size: int


def find_clusters(
    wedge: np.ndarray,
    min_charge: float = 0.0,
    min_size: int = 1,
    connectivity: int = 2,
) -> list[Cluster]:
    """Cluster the nonzero voxels of a ``(R, A, H)`` wedge, layer by layer.

    Parameters
    ----------
    wedge:
        Raw ADC or log-ADC values; zeros are background.
    min_charge, min_size:
        Quality cuts applied after labelling (noise rejection).
    connectivity:
        1 = edge-adjacency, 2 = include diagonals (default; drift diffusion
        couples diagonal bins).
    """

    import scipy.ndimage  # on use: repro.tpc is on the compress path

    wedge = np.asarray(wedge)
    if wedge.ndim != 3:
        raise ValueError(f"expected (radial, azim, horiz), got {wedge.shape}")
    structure = scipy.ndimage.generate_binary_structure(2, connectivity)
    out: list[Cluster] = []
    for layer in range(wedge.shape[0]):
        plane = wedge[layer]
        labels, n = scipy.ndimage.label(plane > 0, structure=structure)
        if n == 0:
            continue
        idx = np.arange(1, n + 1)
        charges = scipy.ndimage.sum_labels(plane, labels, idx)
        sizes = scipy.ndimage.sum_labels(plane > 0, labels, idx)
        centroids = scipy.ndimage.center_of_mass(plane, labels, idx)
        for (ca, ch), q, s in zip(centroids, charges, sizes):
            if q >= min_charge and s >= min_size:
                out.append(
                    Cluster(
                        layer=layer,
                        centroid=(float(ca), float(ch)),
                        charge=float(q),
                        size=int(s),
                    )
                )
    return out


def match_clusters(
    reference: list[Cluster],
    test: list[Cluster],
    max_distance: float = 3.0,
) -> list[tuple[Cluster, Cluster]]:
    """Greedy nearest-centroid matching within each layer.

    Each reference cluster grabs the closest unmatched test cluster within
    ``max_distance`` bins (Euclidean in the azim-horiz plane), largest
    charge first — the standard reco-efficiency convention.
    """

    pairs: list[tuple[Cluster, Cluster]] = []
    by_layer: dict[int, list[Cluster]] = {}
    for c in test:
        by_layer.setdefault(c.layer, []).append(c)
    taken: set[int] = set()
    for ref in sorted(reference, key=lambda c: -c.charge):
        candidates = by_layer.get(ref.layer, [])
        best = None
        best_d = max_distance
        for cand in candidates:
            if id(cand) in taken:
                continue
            d = float(np.hypot(
                ref.centroid[0] - cand.centroid[0],
                ref.centroid[1] - cand.centroid[1],
            ))
            if d <= best_d:
                best, best_d = cand, d
        if best is not None:
            taken.add(id(best))
            pairs.append((ref, best))
    return pairs


@dataclasses.dataclass
class ResidualSummary:
    """Cluster-level comparison of original vs decompressed wedges."""

    n_reference: int
    n_test: int
    n_matched: int
    mean_shift: float  # bins
    p95_shift: float  # bins
    mean_charge_ratio: float

    @property
    def efficiency(self) -> float:
        """Matched fraction of reference clusters."""

        return self.n_matched / max(self.n_reference, 1)

    @property
    def fake_rate(self) -> float:
        """Unmatched fraction of test clusters (fabricated blobs)."""

        return 1.0 - self.n_matched / max(self.n_test, 1)

    def row(self) -> str:
        """One-line summary for physics-impact tables."""

        return (
            f"clusters ref/test={self.n_reference}/{self.n_test} "
            f"eff={self.efficiency:6.3f} fake={self.fake_rate:6.3f} "
            f"shift(mean/p95)={self.mean_shift:.3f}/{self.p95_shift:.3f} bins "
            f"charge ratio={self.mean_charge_ratio:.3f}"
        )


def centroid_residuals(
    original: np.ndarray,
    reconstructed: np.ndarray,
    min_charge: float = 0.0,
    min_size: int = 2,
    max_distance: float = 3.0,
) -> ResidualSummary:
    """The §2.1 figure of merit: centroid shifts induced by compression.

    Parameters
    ----------
    original, reconstructed:
        Same-shape ``(R, A, H)`` wedges (raw or log scale — centroids are
        scale-covariant as long as both use the same scale).
    """

    if original.shape != reconstructed.shape:
        raise ValueError("wedges must share a shape")
    ref = find_clusters(original, min_charge=min_charge, min_size=min_size)
    test = find_clusters(reconstructed, min_charge=min_charge, min_size=min_size)
    pairs = match_clusters(ref, test, max_distance=max_distance)

    if pairs:
        shifts = np.array(
            [
                np.hypot(a.centroid[0] - b.centroid[0], a.centroid[1] - b.centroid[1])
                for a, b in pairs
            ]
        )
        ratios = np.array([b.charge / max(a.charge, 1e-12) for a, b in pairs])
        mean_shift = float(shifts.mean())
        p95 = float(np.quantile(shifts, 0.95))
        mean_ratio = float(ratios.mean())
    else:
        mean_shift = p95 = float("nan")
        mean_ratio = float("nan")
    return ResidualSummary(
        n_reference=len(ref),
        n_test=len(test),
        n_matched=len(pairs),
        mean_shift=mean_shift,
        p95_shift=p95,
        mean_charge_ratio=mean_ratio,
    )
