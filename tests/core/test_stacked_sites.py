"""Stacked main + skip GEMM sites of the 3-D residual blocks.

A ``down3d`` / ``upblock3d`` stage starts its main and its skip path with
the same convolution geometry over the same canvas, so the two weight
operands compile into one stacked ``_ConvSpec`` and run as one GEMM site
wherever the ``splits=`` form of the calibration probes proves the stacked
rows equal **each member's own** reference contraction; elsewhere the two
members keep their own sites.  Either way the bytes are the module graph's.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fast_plan as fp
from repro.core import BCAECompressor, build_model

#: ``(rows, K, (o1, o2), ow)`` of the four pair sites of a BCAE++ encode at
#: paper geometry ``(16, 192, 249)``, one wedge.
PAPER_PAIR_SITES = [
    (196608, 48, (8, 8), 128),
    (49152, 384, (16, 16), 64),
    (12288, 768, (32, 32), 32),
    (3072, 1536, (32, 32), 16),
]


def _wedges(n, spatial, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1024, size=(n,) + spatial).astype(np.uint16)
    w[w < 500] = 0
    return w


def _model(name, spatial):
    model = build_model(name, wedge_spatial=spatial, seed=0)
    model.eval()
    return model


def _plans(comp):
    return [comp._fast_encoder().plan, *comp._fast_decoder().plans.values()]


def _pair_sites(plan):
    """``(stacked, apart)``: the fused sites of a plan after a run, and the
    skip-path sites of the pairs that run as two."""

    gemms = plan.plan_stats()["gemms"].values()
    return ([g for g in gemms if "members" in g],
            [g for g in gemms if g["tail"] == "act"])


class TestStackingProbe:
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("rows,K,splits,ow", PAPER_PAIR_SITES)
    def test_accepts_the_paper_shapes(self, rows, K, splits, ow, width):
        part = fp._partition(K, sum(splits), ow, rows, width)
        assert fp._blocked_gemm_matches(1, rows, K, sum(splits), part, splits)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_blocked_probe_stops_at_the_first_mismatch(self, monkeypatch,
                                                       where):
        """One flipped bit in the reference rejects the shape, and the
        probe compares no panel past the one that holds it."""

        n, rows, K, o = 2, 48, 16, 4
        part = fp._Partition(16, 2, (6,))  # three panels of 32 columns
        monkeypatch.setattr(fp, "_BLOCKED_GEMM_OK", {})
        assert fp._blocked_gemm_matches(n, rows, K, o, part)

        class Panels(np.ndarray):
            """A reference that counts the panel slices taken from it."""

            def __getitem__(self, idx):
                compared.append(idx)
                return np.ndarray.__getitem__(self, idx)

        compared = []
        real = fp._probe_problem

        def corrupted(*args):
            a, b, ref = real(*args)
            row = 0 if where == "first" else -1
            ref[row, 0] = np.nextafter(ref[row, 0], np.float32(np.inf))
            return a, b, ref.view(Panels)

        monkeypatch.setattr(fp, "_probe_problem", corrupted)
        monkeypatch.setattr(fp, "_BLOCKED_GEMM_OK", {})
        assert fp._blocked_gemm_matches(n, rows, K, o, part) is False
        assert len(compared) == (1 if where == "first" else 3)

    def test_compares_each_member_with_its_own_reference(self):
        """At ``(n, rows, K) = (2, 240, 384)`` this host's BLAS contracts
        8 kernel columns differently from two 4-column products, so a probe
        against the 8-column reference would accept rows the members' own
        sites do not produce."""

        n, rows, K, splits = 2, 240, 384, (4, 4)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((n * rows, K), dtype=np.float32)
        b = np.asfortranarray(rng.standard_normal((K, 8), dtype=np.float32))

        def reference(lo, hi):
            cols = np.asfortranarray(b[:, lo:hi])
            return np.concatenate([np.dot(a[i * rows:(i + 1) * rows], cols)
                                   for i in range(n)])

        stacked = np.dot(np.ascontiguousarray(b.T), np.ascontiguousarray(a.T)).T
        own = np.concatenate([reference(0, 4), reference(4, 8)], axis=1)
        wide = reference(0, 8)
        assert fp._transposed_gemm_matches(n, rows, K, 8, splits) == \
            np.array_equal(stacked, own)
        assert fp._transposed_gemm_matches(n, rows, K, 8) == \
            np.array_equal(stacked, wide)
        if np.array_equal(wide, own):
            pytest.skip("this BLAS contracts 8 columns like two 4-column "
                        "products at this shape")
        assert not (fp._transposed_gemm_matches(n, rows, K, 8, splits)
                    and fp._transposed_gemm_matches(n, rows, K, 8))

    def test_rejected_shape_runs_as_two_sites(self):
        """Whatever the probe decided per pair, the stats agree with it and
        the bytes are the oracle's (this geometry rejects every encoder
        pair of BCAE-HT on the recording host)."""

        spatial, n = (8, 16, 16), 2
        comp = BCAECompressor(_model("bcae_ht", spatial))
        w = _wedges(n, spatial, seed=2)
        ref = comp.compress(w)
        got = comp.compress_into(w)
        assert bytes(got.payload) == bytes(ref.payload)
        assert np.array_equal(comp.decompress(ref),
                              np.asarray(comp.decompress_into(got)))
        for plan in _plans(comp):
            stats = plan.plan_stats()
            stacked, apart = _pair_sites(plan)
            assert len(stacked) + len(apart) == sum(
                stats["stage_kinds"].get(k, 0) for k in ("down3d", "upblock3d"))
            assert {g["formulation"] for g in stacked} <= {"transposed"}
            for g in stacked:
                assert g["tail"] == "act+requant|act"
                assert fp._transposed_gemm_matches(
                    n, g["m"] // n, g["K"], g["o"], tuple(g["members"]))
            for g in apart:
                assert not fp._transposed_gemm_matches(
                    n, g["m"] // n, g["K"], 2 * g["o"], (g["o"], g["o"]))

    def test_forced_rejection_same_bytes(self, monkeypatch):
        """With every stacking probe refusing, all pairs run as two sites
        and nothing about the bytes changes."""

        spatial = (8, 24, 30)
        model = _model("bcae", spatial)
        w = _wedges(3, spatial, seed=4)
        fused = BCAECompressor(model)
        payload = bytes(fused.compress_into(w).payload)
        recon = np.array(fused.decompress_into(fused.compress_into(w)))
        assert any(_pair_sites(p)[0] for p in _plans(fused))

        whole, blocked = fp._transposed_gemm_matches, fp._blocked_gemm_matches
        monkeypatch.setattr(
            fp, "_transposed_gemm_matches",
            lambda n, rows, K, o, splits=None:
                splits is None and whole(n, rows, K, o))
        monkeypatch.setattr(
            fp, "_blocked_gemm_matches",
            lambda n, rows, K, o, part, splits=None:
                splits is None and blocked(n, rows, K, o, part))
        apart = BCAECompressor(model)
        assert bytes(apart.compress_into(w).payload) == payload
        assert np.array_equal(
            np.asarray(apart.decompress_into(apart.compress_into(w))), recon)
        for plan in _plans(apart):
            stacked, two = _pair_sites(plan)
            assert not stacked and two


class TestStackedSitesMatchOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(["bcae_pp", "bcae_ht", "bcae"]),
        radial=st.sampled_from([8, 16]),
        azimuth=st.sampled_from([16, 24, 32]),
        horizontal=st.integers(17, 48),
        n=st.sampled_from([1, 3]),
        threads=st.sampled_from([1, 2]),
        half=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_small_3d_geometries(self, name, radial, azimuth, horizontal, n,
                                 threads, half, seed):
        """Payload and reconstruction equal the module-graph oracle byte
        for byte whether or not a pair fused, through the BatchNorm tails,
        the ``output_padding`` crop and the crop fill of the original BCAE,
        and a wedge's payload does not depend on its batch."""

        spatial = (radial, azimuth, horizontal)
        comp = BCAECompressor(_model(name, spatial), half=half)
        w = _wedges(n, spatial, seed=seed)
        ref = comp.compress(w)
        # The plans compile on their first call, at the forced width.
        with mock.patch.object(fp, "_FORCED_WIDTH", threads):
            got = comp.compress_into(w)
            recon = np.array(comp.decompress_into(got))
        payload = bytes(got.payload)
        assert payload == bytes(ref.payload)
        assert np.array_equal(recon, comp.decompress(ref))
        record = len(payload) // n
        for j in range(n):
            alone = bytes(comp.compress_into(w[j:j + 1]).payload)
            assert alone == payload[j * record:(j + 1) * record]

    @pytest.mark.paper_geometry
    @pytest.mark.parametrize("name", ["bcae_pp", "bcae_ht"])
    def test_one_paper_wedge(self, name):
        """What the e2e harness checks on its first and last wedge: a
        dense paper-geometry wedge through four stacked sites."""

        spatial = (16, 192, 249)
        comp = BCAECompressor(_model(name, spatial))
        w = _wedges(1, spatial, seed=23)
        got = bytes(comp.compress_into(w).payload)
        assert got == bytes(comp.compress(w).payload)
        stacked, apart = _pair_sites(comp._fast_encoder().plan)
        assert len(stacked) == 4 and not apart
        # BCAE-HT's last pair is below the panel-blocking threshold.
        assert sum(g["formulation"] == "blocked" for g in stacked) >= 3
