"""The tier's one-scan sparse route against the dense-volume oracle.

The tier extracts each wedge's hit list once and computes features,
selection and the sparse record from it.  The oracle here is the code it
replaced, kept verbatim: features by ``count_nonzero`` + boolean mask, the
``96 + 3·hits`` estimate, and ``codec.compress(log_transform(wedge))``
over the whole log volume.  Records and decisions must be *equal*, not
close — the arithmetic is unchanged, only its operands are fewer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rate import (
    BCAE_CODEC_ID,
    SPARSE_CODEC_ID,
    SZLIKE_CODEC_ID,
    AdaptiveCompressor,
    OccupancyPolicy,
    RateBudget,
    classical_codec,
    wedge_features,
)
from repro.rate import policy as policy_module
from repro.rate import tier as tier_module
from repro.tpc import log_transform

_SETTINGS = dict(max_examples=60, deadline=None)
#: Far above any test wedge's sparse estimate, so the budget fallback
#: (argmin of the estimates) sends even a *full* wedge down the sparse route.
_BCAE_RECORD = 2 * 10**9


class _NoModel:
    """Stands in for the BCAE compressor: the sparse route never runs it."""

    half = True

    def code_shape_for(self, spatial):
        return (_BCAE_RECORD // 2,)

    def compress_into(self, wedges):  # pragma: no cover - must not be reached
        raise AssertionError("a sparse-routed wedge reached the model")


def _sparse_tier(codec_id: int = SPARSE_CODEC_ID) -> AdaptiveCompressor:
    policy = OccupancyPolicy(sparse_occupancy=1.0, sparse_codec_id=codec_id,
                             budget=RateBudget(1e-9))
    return AdaptiveCompressor(_NoModel(), policy)


def _oracle_features(wedge):
    """``wedge_features`` as it was before the hit list."""

    wedge = np.asarray(wedge)
    hits = np.count_nonzero(wedge)
    if hits == 0:
        return 0.0, 0.0
    vals = wedge[wedge != 0].astype(np.float64)
    return float(hits / wedge.size), float(np.log2(vals + 1.0).mean())


def _check(wedge, codec_id: int = SPARSE_CODEC_ID):
    """One wedge through the tier == the dense-volume oracle."""

    tier = _sparse_tier(codec_id)
    out = tier.compress_into(wedge[None])
    want = classical_codec(codec_id).compress(log_transform(np.asarray(wedge)))
    assert bytes(out.payload) == want
    assert out.codec_ids == (codec_id,) and out.record_sizes == (len(want),)
    (decision,) = out.decisions
    occupancy, activity = _oracle_features(wedge)
    assert (decision.occupancy, decision.activity) == (occupancy, activity)
    assert wedge_features(wedge) == (occupancy, activity)
    assert decision.est_bytes == 96 + 3 * int(np.count_nonzero(wedge))
    assert decision.est_bytes == tier.policy.estimate_bytes(
        codec_id, wedge, _BCAE_RECORD)
    assert decision.actual_bytes == len(want)
    assert tier.policy.select(wedge, _BCAE_RECORD) == (
        codec_id, occupancy, activity, decision.est_bytes)
    return out


def _wedge(rng, shape, dtype, occupancy):
    wedge = np.zeros(shape, dtype=dtype)
    mask = rng.random(shape) < occupancy
    n = int(mask.sum())
    if np.issubdtype(dtype, np.floating):
        # Fractional ADC, values that vanish next to 1.0 (their log is 0.0:
        # a raw hit that is not a log-volume hit) and a signed zero.
        values = rng.choice(
            [0.3, 1.0, 64.5, 1023.0, 1e-12, 5e-8, -0.0], size=n)
    else:
        values = rng.integers(1, 1024, size=n)
    wedge[mask] = values.astype(dtype)
    return wedge


class TestEqualsDenseOracle:
    @settings(**_SETTINGS)
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 7), st.integers(1, 9)),
           dtype=st.sampled_from([np.uint16, np.int32, np.float32]),
           occupancy=st.sampled_from([0.0, 0.01, 0.04, 0.3, 1.0]),
           view=st.sampled_from(["contiguous", "strided", "transposed"]),
           seed=st.integers(0, 2**16))
    def test_record_and_decision_equal_the_oracle(
            self, shape, dtype, occupancy, view, seed):
        """uint16 / int32 / float32, any size (mostly not divisible by 4),
        contiguous or not, empty to full."""

        rng = np.random.default_rng(seed)
        if view == "strided":
            wedge = _wedge(rng, (shape[0], 2 * shape[1], 3 * shape[2]),
                           dtype, occupancy)[:, ::2, 1::3]
        elif view == "transposed":
            wedge = _wedge(rng, shape[::-1], dtype, occupancy).T
        else:
            wedge = _wedge(rng, shape, dtype, occupancy)
        assert wedge.shape == shape
        _check(wedge)

    def test_empty_wedge(self):
        out = _check(np.zeros((3, 5, 7), dtype=np.uint16))
        assert out.decisions[0].occupancy == 0.0

    def test_single_voxel_at_the_last_index(self):
        wedge = np.zeros((3, 5, 7), dtype=np.uint16)
        wedge[-1, -1, -1] = 1023
        _check(wedge)

    def test_full_wedge_every_adc_value(self):
        """All 1023 nonzero ADC counts, in every position class of a
        vector loop (the log of the hits must not depend on where in the
        array a value sits)."""

        adc = np.arange(1, 1024, dtype=np.uint16)
        for pad in range(5):
            wedge = np.concatenate([adc, adc[:pad + 1]]).reshape(1, 1, -1)
            _check(wedge)

    def test_values_on_quantiser_bin_boundaries(self):
        """Raw floats whose log lands on the quantiser's bin edges
        ((k + ½)·step on the log scale), scattered among zeros."""

        edges = (np.arange(1, 20) + 0.5) * 0.5
        raw = (np.exp2(edges) - 1.0).astype(np.float32)
        wedge = np.zeros((2, 5, 19), dtype=np.float32)
        wedge[1, ::2, :] = raw
        _check(wedge)

    @pytest.mark.parametrize("bits", [1, 7, 8, 12])
    def test_gaps_at_the_bit_width_limit(self, bits):
        for gap in (2**bits - 1, 2**bits):
            wedge = np.zeros((1, 2, 2**12 + 2), dtype=np.uint16)
            wedge.reshape(-1)[[0, gap + 1]] = 700
            _check(wedge)

    def test_a_batch_mixes_routes_in_stream_order(self, adaptive, mixed_wedges):
        """Through the real tier and model: sparse records equal the dense
        oracle, in place, between the BCAE records."""

        out = adaptive.compress_into(mixed_wedges)
        codec = classical_codec(SPARSE_CODEC_ID)
        offset = 0
        for i, (codec_id, size) in enumerate(
                zip(out.codec_ids, out.record_sizes)):
            if codec_id != BCAE_CODEC_ID:
                want = codec.compress(log_transform(mixed_wedges[i]))
                assert bytes(out.payload[offset:offset + size]) == want
                assert out.decisions[i].occupancy == _oracle_features(
                    mixed_wedges[i])[0]
            offset += size

    def test_dense_volume_codec_on_the_sparse_route(self, rng):
        """``sparse_codec_id`` may name a codec that needs the volume (the
        SZ-family predictor): the hits are scattered back, bit-identical
        to the log transform of the wedge."""

        wedge = _wedge(rng, (4, 6, 10), np.uint16, 0.04)
        _check(wedge, SZLIKE_CODEC_ID)


class TestOneScan:
    """The contract, asserted by counting calls rather than by timing:
    per sparse-routed wedge the volume is scanned once (``wedge_hits``)
    and no other numpy routine is handed a volume-sized array."""

    _WATCHED = ("flatnonzero", "nonzero", "count_nonzero", "log2", "log",
                "rint", "diff", "cumsum", "packbits", "zeros", "zeros_like",
                "where", "not_equal", "ascontiguousarray", "array", "mean")

    def test_one_volume_pass_per_sparse_wedge(self, monkeypatch, rng):
        wedge = _wedge(rng, (8, 24, 30), np.uint16, 0.01)
        volume = wedge.size
        assert 0 < np.count_nonzero(wedge) < volume // 20
        tier = _sparse_tier()
        tier.compress_into(wedge[None])  # builds the codec outside the count

        scans, big_calls = [], []
        real_hits = policy_module.wedge_hits

        def counted_hits(w):
            scans.append(np.size(w))
            return real_hits(w)

        monkeypatch.setattr(tier_module, "wedge_hits", counted_hits)

        def watch(name):
            real = getattr(np, name)

            def wrapper(*args, **kwargs):
                sizes = [np.size(a) for a in args if isinstance(a, np.ndarray)]
                if isinstance(args[0] if args else None, (tuple, int)):
                    sizes.append(int(np.prod(args[0])))  # np.zeros(shape)
                if sizes and max(sizes) >= volume:
                    big_calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np, name, wrapper)

        for name in self._WATCHED:
            watch(name)
        out = tier.compress_into(wedge[None])
        monkeypatch.undo()

        assert out.codec_ids == (SPARSE_CODEC_ID,)
        assert scans == [volume], "exactly one hit-list scan per wedge"
        # The scan's own index extraction is the only volume-sized call
        # (np.flatnonzero is np.nonzero of the ravel: one call, two names).
        assert big_calls in (["flatnonzero"], ["flatnonzero", "nonzero"])

    def test_the_counter_sees_a_dense_volume_pass(self, monkeypatch, rng):
        """The watch list is live: the oracle's route trips it."""

        wedge = _wedge(rng, (8, 24, 30), np.uint16, 0.01)
        seen = []
        real = np.log2
        monkeypatch.setattr(
            np, "log2", lambda x, *a, **k: (seen.append(np.size(x)),
                                            real(x, *a, **k))[1])
        log_transform(wedge)
        assert seen == [wedge.size]
