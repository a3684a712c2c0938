"""Panel epilogue contract: every conv output is finished inside its panel.

The blocked GEMM sites are exercised at a geometry that engages them on
its own (no threshold monkeypatching — `test_parallel_ulp.py` covers the
shrunk-threshold variant): 64×64 spatial with K = 288 puts the 2-D
decoder's im2col above ``_BLOCKED_MIN_BYTES``, and the 3-D geometries do
the same for the transposed-conv tails of BCAE++ and the BatchNorm BCAE.
Everything is compared against the module-graph oracle.
"""

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro import nn
from repro.core import BCAECompressor, build_model
from repro.core.fast_plan import (
    ULP_TIER_MAX_ULP,
    ULP_TIER_RECON_GRID_STEPS,
    grid_steps_at_scale,
)
from repro.nn import Tensor

MID = {
    "bcae_2d": dict(wedge_spatial=(16, 64, 64), m=1, n=2, d=1),
    "bcae_pp": dict(wedge_spatial=(8, 32, 48)),
    "bcae": dict(wedge_spatial=(8, 32, 46)),
}


def _wedges(n, spatial, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 1024, size=(n,) + spatial).astype(np.uint16)
    w[w < 500] = 0
    return w


def _model(name):
    model = build_model(name, seed=0, **MID[name])
    model.eval()
    return model


def _gemms(plan):
    return list(plan.plan_stats()["gemms"].values())


def _blocked(plan):
    return [g for g in _gemms(plan) if g["formulation"].startswith("blocked")]


class TestRowBoxes:
    """The box maps that address a panel inside a padded canvas."""

    @pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 4), (2, 2, 3, 2)])
    def test_boxes_tile_every_row_range(self, dims):
        total = int(np.prod(dims))
        grid = np.arange(total).reshape(dims)
        for r0 in range(total + 1):
            for r1 in range(r0, total + 1):
                boxes = fp._row_boxes(r0, r1, dims)
                got = np.full(r1 - r0, -1)
                for j0, j1, idx in boxes:
                    got[j0:j1] = grid[idx].reshape(-1)
                assert np.array_equal(got, np.arange(r0, r1))
                assert len(boxes) <= max(1, 2 * len(dims) - 1)

    @pytest.mark.parametrize("dims", [(2, 3, 5), (2, 3, 4, 5)])
    def test_cropped_store_equals_slice(self, dims):
        """Panel-wise cropped stores rebuild exactly ``full[crop]``."""

        rng = np.random.default_rng(0)
        rows, ow = int(np.prod(dims[:-1])), dims[-1]
        full = rng.standard_normal((3,) + dims).astype(np.float32)
        for _ in range(60):
            lo = (0,) + tuple(int(rng.integers(0, d)) for d in dims[1:])
            hi = (dims[0],) + tuple(
                int(rng.integers(l + 1, d + 1)) for l, d in zip(lo[1:], dims[1:]))
            ref = full[(slice(None),) + tuple(map(slice, lo, hi))]
            dest = np.full(ref.shape, np.nan, np.float32)
            r0 = 0
            while r0 < rows:
                r1 = min(rows, r0 + int(rng.integers(1, 7)))
                v = full.reshape(3, rows, ow)[:, r0:r1]
                for j0, j1, idx in fp._row_boxes(r0, r1, dims[:-1]):
                    box = fp._crop_box(idx, dims, lo, hi)
                    if box is not None:
                        dest[box[2]] = fp._rows(v, (j0, j1) + box)
                r0 = r1
            assert np.array_equal(dest, ref)


class TestBlockedSitesMatchOracle:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bcae_2d_both_heads(self, n, threads):
        """Encoder payload and both raw decoder heads, bit for bit, with
        panels that cross a sample boundary at ``n = 3``."""

        model = _model("bcae_2d")
        comp = BCAECompressor(model, panel_threads=threads)
        w = _wedges(n, MID["bcae_2d"]["wedge_spatial"], seed=n)
        ref = comp.compress(w)
        got = comp.compress_into(w)
        assert bytes(got.payload) == bytes(ref.payload)

        codes = ref.codes_view().astype(np.float32)
        with nn.no_grad(), nn.amp.autocast(True):
            seg_ref, reg_ref = model.decode(Tensor(codes))
        dec = comp._fast_decoder()
        seg, reg = dec.decode(codes)
        assert np.array_equal(seg_ref.data, np.asarray(seg))
        assert np.array_equal(reg_ref.data, np.asarray(reg))

        assert _blocked(comp._fast_encoder().plan)
        for plan in dec.plans.values():
            sites = _blocked(plan)
            assert sites, "geometry no longer engages the blocked sites"
            assert {g["tail"] for g in sites} >= {
                "act+requant", "act+skip+store"}
            assert "store" in {g["tail"] for g in _gemms(plan)}
            if n == 3:
                # 64 rows per sample, 14 rows per panel: panels straddle.
                g = max(sites, key=lambda g: g["K"])
                rows = fp._panel_cols(g["K"], 64, g["m"]) // 64
                assert (g["m"] // 64 // n) % rows
            assert all(g["threads"] == min(threads, g["m"] // fp._panel_cols(
                g["K"], 64, g["m"])) for g in sites)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("name", ["bcae_pp", "bcae"])
    def test_3d_tails(self, name, n, threads):
        """Transposed-conv crops, three-tail residual blocks and the
        BatchNorm-in-tail chain of the original BCAE.  The main and skip
        tails run on one stacked site where its probe accepted the shape
        and on two sites where it did not — either way both tails ran."""

        model = _model(name)
        comp = BCAECompressor(model, panel_threads=threads)
        w = _wedges(n, MID[name]["wedge_spatial"], seed=n)
        ref = comp.compress(w)
        got = comp.compress_into(w)
        assert bytes(got.payload) == bytes(ref.payload)
        assert np.array_equal(comp.decompress(ref),
                              np.asarray(comp.decompress_into(got)))
        codes = ref.codes_view().astype(np.float32)
        with nn.no_grad(), nn.amp.autocast(True):
            seg_ref, reg_ref = model.decode(Tensor(codes))
        seg, reg = comp._fast_decoder().decode(codes)
        assert np.array_equal(seg_ref.data, np.asarray(seg))
        assert np.array_equal(reg_ref.data, np.asarray(reg))
        for plan in comp._fast_decoder().plans.values():
            tails = {t for g in _blocked(plan) for t in g["tail"].split("|")}
            assert tails >= {"act+requant", "act", "act+skip+store"}
            for g in _gemms(plan):
                stacked = g["tail"] == "act+requant|act"
                assert stacked == ("members" in g)
                if stacked:
                    assert sum(g["members"]) == g["o"]
                    assert g["formulation"] in ("blocked", "transposed")

    @pytest.mark.parametrize("name", ["bcae_2d", "bcae"])
    def test_ulp_tier_within_recorded_bounds(self, name):
        """The opt-in ulp tier runs through the same tails: every
        engagement is recorded within its cap and the reconstruction stays
        within the tier's end-to-end bound of the bit tier."""

        model = _model(name)
        w = _wedges(3, MID[name]["wedge_spatial"], seed=5)
        bit = BCAECompressor(model, precision="bit")
        ulp = BCAECompressor(model, precision="ulp", panel_threads=2)
        r_bit = np.array(bit.decompress_into(bit.compress_into(w)))
        r_ulp = np.array(ulp.decompress_into(ulp.compress_into(w)))
        assert (grid_steps_at_scale(r_ulp, r_bit, True)
                <= ULP_TIER_RECON_GRID_STEPS)
        plans = [ulp._fast_encoder().plan, *ulp._fast_decoder().plans.values()]
        for plan in plans:
            assert all(s["max_ulp"] <= ULP_TIER_MAX_ULP for s in plan.ulp_sites)
        assert not bit._fast_encoder().plan.ulp_sites


class TestWorkingSet:
    @pytest.mark.parametrize("name", ["bcae_2d", "bcae_pp"])
    def test_no_full_size_staging(self, name):
        """No GEMM site owns workspace bytes, and the decoder's whole
        workspace stays a small multiple of its largest canvas — a
        per-site ``o×m`` staging buffer (8–12 sites here, 66 at paper
        scale) cannot come back unnoticed."""

        model = _model(name)
        comp = BCAECompressor(model)
        comp.decompress_into(comp.compress_into(
            _wedges(1, MID[name]["wedge_spatial"])))
        dec = comp._fast_decoder()
        ws = dec._ws
        for plan in dec.plans.values():
            sites = _gemms(plan)
            assert sites and all(g["staging_bytes"] == 0 for g in sites)
            assert plan.plan_stats()["workspace_bytes"] == ws.nbytes()
        canvas = max(b.nbytes for k, b in ws._bufs.items()
                     if isinstance(k, tuple) and "lease" in k)
        slabs = sum(b.nbytes for k, b in ws._bufs.items()
                    if isinstance(k, tuple) and k[0] == "slab")
        # Beside the per-slot panel arenas: ≤ 3 canvases + 2 streams per
        # geometry (a 4/3 pyramid), the 19 B/element stream-quantize
        # arena, the head buffers — 12.2 canvases on bcae_2d today.
        assert ws.nbytes() - slabs <= 14 * canvas

    def test_batch_change_does_not_accumulate(self):
        """Leases are keyed by geometry, not batch, and arenas only grow to
        the largest request: the footprint is bounded by the largest batch
        seen, however many batch sizes a serving worker meets."""

        model = _model("bcae_2d")
        comp = BCAECompressor(model)
        sp = MID["bcae_2d"]["wedge_spatial"]
        comp.decompress_into(comp.compress_into(_wedges(3, sp)))
        largest = comp._fast_decoder().workspace_bytes
        for n in (1, 2, 3, 1):
            comp.decompress_into(comp.compress_into(_wedges(n, sp)))
            assert comp._fast_decoder().workspace_bytes <= largest


class TestSnapKernel:
    def test_probe_accepts_shipped_kernel(self):
        assert fp._fast_snap_ok()

    def test_negative_midpoints_and_signed_zero(self):
        """Round-half-even on the negative side, and the sign of lanes
        that round to zero, match numpy's cast pair bit for bit."""

        grid = np.arange(0x0001, 0x7C00, dtype=np.uint16).view(np.float16)
        pos = grid.astype(np.float32)
        mid = (pos[:-1] + pos[1:]) * np.float32(0.5)
        tiny = np.float32(2.0) ** np.arange(-30, -22).astype(np.float32)
        v = np.concatenate([-mid, mid, -tiny, -np.float32(1.5) * tiny,
                            np.float32([-0.0, 0.0])])
        u = np.empty(v.shape, np.uint32)
        out = fp._snap_bits(v, u, u.view(np.float32),
                            np.empty(v.shape, np.uint32),
                            np.empty(v.shape, np.bool_), np.empty_like(v))
        ref = v.astype(np.float16).astype(np.float32)
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))

    def test_cast_pair_fallback_same_bits(self, monkeypatch):
        """A build that fails the probe runs the two casts through the
        same tails and produces the same bytes."""

        model = _model("bcae_2d")
        w = _wedges(2, MID["bcae_2d"]["wedge_spatial"], seed=9)
        fast = BCAECompressor(model)
        payload = bytes(fast.compress_into(w).payload)
        recon = np.array(fast.decompress_into(fast.compress_into(w)))
        monkeypatch.setattr(fp, "_FAST_SNAP_OK", False)
        slow = BCAECompressor(model)
        assert bytes(slow.compress_into(w).payload) == payload
        assert np.array_equal(
            np.asarray(slow.decompress_into(slow.compress_into(w))), recon)


class TestVocabularySlopes:
    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
    def test_out_of_range_slope_stays_on_module_path(self, slope):
        """``maximum(x, x·slope)`` is LeakyReLU only for 0 < slope ≤ 1."""

        from repro.core.blocks import ResBlock2d

        block = ResBlock2d(4)
        stages = nn.Sequential(block, nn.Conv2d(4, 4, 1))
        assert fp.stage_kinds(stages) is not None
        block.act2.negative_slope = slope
        assert fp.stage_kinds(stages) is None
