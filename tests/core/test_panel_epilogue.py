"""Panel epilogue contract: every conv output is finished inside its panel.

The blocked GEMM sites are exercised at a geometry that engages them on
its own (no slab monkeypatching — `test_parallel_panels.py` covers the
shrunk-slab variant): 64×64 spatial with K = 288 puts the 2-D decoder's
whole-sample slab above ``_PANEL_BYTES``, and the 3-D geometries do
the same for the transposed-conv tails of BCAE++ and the BatchNorm BCAE.
Everything is compared against the module-graph oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fast_plan as fp
from repro import nn
from repro.core import BCAECompressor, build_model
from repro.nn import Tensor
from repro.nn.amp import quantize_fp16
from repro.nn.convolution import row_boxes

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
                boxes = row_boxes(r0, r1, dims)
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
                for j0, j1, idx in row_boxes(r0, r1, dims[:-1]):
                    box = fp._crop_box(idx, dims, lo, hi)
                    if box is not None:
                        dest[box[2]] = fp._rows(v, (j0, j1) + box)
                r0 = r1
            assert np.array_equal(dest, ref)


class TestBlockedSitesMatchOracle:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bcae_2d_both_heads(self, n, threads, monkeypatch):
        """Encoder payload and both raw decoder heads, bit for bit, one
        wedge and a batch of three."""

        monkeypatch.setattr(fp, "_FORCED_WIDTH", threads)
        model = _model("bcae_2d")
        comp = BCAECompressor(model)
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
            for g in sites:
                part = fp._partition(g["K"], g["o"], 64, g["m"], threads)
                assert (g["threads"], g["rows_per_panel"], g["slot_rows"],
                        g["panels"]) == (len(part.slot_rows),
                                         part.rows_per_panel,
                                         list(part.slot_rows),
                                         len(part.panels()))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("name", ["bcae_pp", "bcae"])
    def test_3d_tails(self, name, n, threads, monkeypatch):
        """Transposed-conv crops, three-tail residual blocks and the
        BatchNorm-in-tail chain of the original BCAE.  The main and skip
        tails run on one stacked site where its probe accepted the shape
        and on two sites where it did not — either way both tails ran."""

        monkeypatch.setattr(fp, "_FORCED_WIDTH", threads)
        model = _model(name)
        comp = BCAECompressor(model)
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

    @pytest.mark.parametrize("name", ["bcae", "bcae_pp"])
    def test_full_precision_tails(self, name):
        """In full precision nothing is snapped, so a tail's input *is* the
        GEMM block: its activation temporary must be the other block, with
        a BatchNorm between activation and store (``bcae``) and without."""

        model = _model(name)
        comp = BCAECompressor(model, half=False)
        w = _wedges(2, MID[name]["wedge_spatial"], seed=7)
        ref = comp.compress(w)
        assert bytes(comp.compress_into(w).payload) == bytes(ref.payload)
        codes = ref.codes_view().astype(np.float32)
        with nn.no_grad(), nn.amp.autocast(False):
            seg_ref, reg_ref = model.decode(Tensor(codes))
        seg, reg = comp._fast_decoder().decode(codes)
        assert np.array_equal(seg_ref.data, np.asarray(seg))
        assert np.array_equal(reg_ref.data, np.asarray(reg))
        for plan in comp._fast_decoder().plans.values():
            assert _blocked(plan) and not plan.half
            # No snap, no lookup: the table is a half-mode formulation.
            assert not any("requant" in g for g in _gemms(plan))


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
        # geometry (a 4/3 pyramid), the 15 B/element stream-quantize
        # arena, the head buffers — 11.2 canvases on bcae_2d today.
        assert ws.nbytes() - slabs <= 14 * canvas

    def test_batch_change_does_not_accumulate(self):
        """A plan runs one wedge at a time and only the batch-sized
        outputs follow the batch: the footprint is bounded by the largest
        batch seen, however many batch sizes a serving worker meets."""

        model = _model("bcae_2d")
        comp = BCAECompressor(model)
        sp = MID["bcae_2d"]["wedge_spatial"]
        comp.decompress_into(comp.compress_into(_wedges(3, sp)))
        largest = comp._fast_decoder().workspace_bytes
        for n in (1, 2, 3, 1):
            comp.decompress_into(comp.compress_into(_wedges(n, sp)))
            assert comp._fast_decoder().workspace_bytes <= largest


def _snap_ref(v, clip):
    """The module's ``quantize_fp16`` (``np.clip`` → the cast pair), or the
    cast pair alone where the engine's bound elides the clip."""

    return quantize_fp16(v) if clip else v.astype(np.float16).astype(np.float32)


#: What ``_run_snap`` pre-fills the clip destination with.
_UNTOUCHED = np.float32(123.0)


def _run_snap(src, clip):
    """``_snap_bits`` over fresh scratch laid out like ``src``; returns
    the result and the clip destination (None when not requested)."""

    def like(dtype):
        # Same strides as ``src`` (a transposed view stays transposed).
        order = np.argsort(src.strides)[::-1]
        base = np.empty([src.shape[i] for i in order], dtype)
        return base.transpose(np.argsort(order))

    u = like(np.uint32)
    dest = None
    if clip:
        dest = like(np.float32)
        dest[...] = _UNTOUCHED
    out = fp._snap_bits(src, u, u.view(np.float32), like(np.bool_),
                        like(np.float32), dest)
    return out, dest


#: Lane classes of the snap property: name -> generator of n lanes.
#: "normal" lanes stay inside the snap's call domain |x| ≤ 65504 (a
#: standard normal times 2^14 passes it about once in 400 000 lanes);
#: lanes beyond it are the "beyond" class, drawn only under the clip flag.
_LANES = {
    "normal": lambda rng, n: np.clip(rng.standard_normal(n)
                                     * 2.0 ** rng.integers(-13, 15, n),
                                     -65504.0, 65504.0),
    "denormal": lambda rng, n: (rng.uniform(-1, 1, n)
                                * 2.0 ** rng.integers(-30, -14, n)),
    "zero": lambda rng, n: rng.choice([0.0, -0.0], n),
    "nonfinite": lambda rng, n: rng.choice([np.inf, -np.inf, np.nan], n),
    "beyond": lambda rng, n: (rng.choice([-1.0, 1.0], n)
                              * rng.uniform(65504.0, 1e9, n)),
}


class TestSnapKernel:
    def test_probe_accepts_shipped_kernel(self):
        assert fp._fast_snap_ok()

    def test_probe_drives_both_fixups_and_the_gated_clip(self, monkeypatch):
        """The probe snaps its lanes four times — the call domain unclipped
        and every lane through the gated clip, each once with a minority
        of denormal-range lanes (gathered fix-up) and once with a majority
        (dense) — and a build where any of the three formulations deviates
        is rejected, which puts the engine on the two casts."""

        real_dense, real_snap = fp._denormal_dense, fp._snap_bits
        dense, snaps = [], []

        def spy_dense(src, uf, mask, d):
            dense.append(mask.size)
            real_dense(src, uf, mask, d)

        def spy_snap(src, u, uf, mask, d, clip=None):
            out = real_snap(src, u, uf, mask, d, clip)
            snaps.append((src.size, clip is not None, int(mask.sum()),
                          bool((np.isfinite(src)
                                & (np.abs(src) > fp.FP16_MAX)).any())))
            return out

        monkeypatch.setattr(fp, "_denormal_dense", spy_dense)
        monkeypatch.setattr(fp, "_snap_bits", spy_snap)
        monkeypatch.setattr(fp, "_FAST_SNAP_OK", None)
        assert fp._fast_snap_ok()
        assert [c for _n, c, _l, _b in snaps] == [False, False, True, True]
        # Finite lanes beyond ±65504 appear exactly where the clip is on.
        assert [b for _n, _c, _l, b in snaps] == [False, False, True, True]
        few, many = snaps[0::2], snaps[1::2]
        assert all(0 < 2 * lanes <= n for n, _c, lanes, _b in few)
        assert all(2 * lanes > n for n, _c, lanes, _b in many)
        assert dense == [n for n, _c, _l, _b in many]
        # All 65 536 f16 patterns and both their neighbours are in each.
        assert min(n for n, _c, _l, _b in snaps) > 3 * 65536

        def flip_gathered(src, u, uf, mask, d, clip=None):
            out = real_snap(src, u, uf, mask, d, clip)
            lanes = np.flatnonzero(mask)
            if 0 < 2 * lanes.size <= mask.size:
                out.view(np.uint32).flat[lanes[0]] ^= np.uint32(0x2000)
            return out

        for broken in ("dense", "gathered", "gate"):
            with monkeypatch.context() as m:
                m.setattr(fp, "_FAST_SNAP_OK", None)
                m.setattr(fp, "_denormal_dense", real_dense)
                m.setattr(fp, "_snap_bits", real_snap)
                if broken == "dense":
                    m.setattr(fp, "_denormal_dense",
                              lambda src, uf, mask, d: None)
                elif broken == "gathered":
                    m.setattr(fp, "_snap_bits", flip_gathered)
                else:  # a gate that never fires: lanes beyond stay beyond
                    m.setattr(fp, "_FP16_MAX_BITS", np.uint32(0xFFFFFFFF))
                assert not fp._fast_snap_ok(), broken

    def test_negative_midpoints_and_signed_zero(self):
        """Round-half-even on the negative side, and the sign of lanes
        that round to zero, match numpy's cast pair bit for bit."""

        grid = np.arange(0x0001, 0x7C00, dtype=np.uint16).view(np.float16)
        pos = grid.astype(np.float32)
        mid = (pos[:-1] + pos[1:]) * np.float32(0.5)
        tiny = np.float32(2.0) ** np.arange(-30, -22).astype(np.float32)
        v = np.concatenate([-mid, mid, -tiny, -np.float32(1.5) * tiny,
                            np.float32([-0.0, 0.0])])
        out, _ = _run_snap(v, clip=False)
        assert np.array_equal(out.view(np.uint32),
                              _snap_ref(v, False).view(np.uint32))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           shape=st.sampled_from([(7,), (4, 33), (3, 5, 16), (8, 2, 31)]),
           denormal=st.sampled_from([0, 1, 3, "many"]),
           extras=st.sets(st.sampled_from(["zero", "nonfinite", "beyond"])),
           clip=st.booleans(), transposed=st.booleans())
    def test_snap_bits_equals_clip_and_cast_pair(self, seed, shape, denormal,
                                                 extras, clip, transposed):
        """Bits equal ``np.clip`` → ``astype(float16).astype(float32)`` for
        blocks with no, one, a few and a majority of denormal-range lanes,
        ±0.0, NaN / ±inf lanes and lanes beyond ±65504 (those only under
        the clip flag — without it they are outside the domain), in the
        contiguous and the reference-orientation layout; ``src`` is never
        written unless it is itself the clip destination."""

        rng = np.random.default_rng(seed)
        n = int(np.prod(shape))
        if "beyond" in extras and not clip:
            extras = extras - {"beyond"}
        v = _LANES["normal"](rng, n)
        k = n // 2 + 1 if denormal == "many" else min(denormal, n)
        v[rng.choice(n, k, replace=False)] = _LANES["denormal"](rng, k)
        for kind in sorted(extras):
            at = rng.choice(n, min(n, 1 + int(rng.integers(0, 4))),
                            replace=False)
            v[at] = _LANES[kind](rng, at.size)
        v = v.astype(np.float32).reshape(shape)
        if transposed and v.ndim == 3:
            # (rows, ow, o) memory viewed channel-major, as ``_slab`` does.
            v = np.ascontiguousarray(v.transpose(1, 2, 0)).transpose(2, 0, 1)
        keep = v.copy()
        ref = _snap_ref(v, clip)

        out, dest = _run_snap(v, clip)
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))
        assert np.array_equal(v.view(np.uint32), keep.view(np.uint32))
        if clip and not extras & {"beyond", "nonfinite"}:
            # The gate held: no clip pass ran.
            assert (dest == _UNTOUCHED).all()

        if clip:  # in place, as the panel epilogue clips
            u = np.empty(v.shape, np.uint32)
            out = fp._snap_bits(v, u, u.view(np.float32),
                                np.empty(v.shape, np.bool_),
                                np.empty(v.shape, np.float32), v)
            assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))

    def test_gate_threshold_is_the_first_pattern_beyond(self):
        """65504 itself passes the gate untouched; the next fp32 pattern
        (which the cast pair alone would round back to 65504 — the clip is
        what keeps 65520 from becoming inf) takes the clip."""

        top = np.float32(fp.FP16_MAX)
        for lane in (top, np.nextafter(top, np.float32(np.inf)),
                     np.float32(65520.0), np.float32(-65520.0)):
            v = np.full(40, 0.5, np.float32)
            v[17] = lane
            out, dest = _run_snap(v, clip=True)
            assert np.array_equal(out.view(np.uint32),
                                  _snap_ref(v, True).view(np.uint32))
            assert abs(out[17]) == top

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


class TestActTable:
    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("slope", [0.01, 0.2, 1.0])
    def test_every_entry_equals_the_module_oracle(self, slope, clip):
        """All 2^19 patterns: entry = ``quantize_fp16(leaky_relu(x))`` —
        the module's own ``x·where(x > 0, 1, slope)`` and cast pair.
        Without the clip (the bound proved it away) finite patterns beyond
        ±65504 are outside the domain: the first snap cannot emit them."""

        table = fp._act_table(slope, clip)
        assert table.shape == (1 << 19,) and table.dtype == np.uint32
        assert not table.flags.writeable
        assert fp._act_table(slope, clip) is table  # one per (slope, clip)
        x = (np.arange(1 << 19, dtype=np.uint32) << np.uint32(13)).view(
            np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            act = Tensor(x).leaky_relu(slope).data
            if clip:
                ref = quantize_fp16(act)
                domain = np.ones(x.shape, bool)
            else:
                ref = act.astype(np.float16).astype(np.float32)
                domain = ~(np.isfinite(act) & (np.abs(act) > fp.FP16_MAX))
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(table.view(np.float32)), nan)
        same = (table == ref.view(np.uint32)) | nan
        assert same[domain].all()
        assert domain.sum() > (1 << 18)

    def test_paper_geometry_decode_takes_the_table_and_no_dense_fixup(
            self, monkeypatch):
        """One BCAE-2D wedge at the paper's geometry: every ``act+requant``
        site ran the lookup, and no snap met a majority of denormal-range
        lanes (the dense fix-up is for mostly-zero entry streams).  The
        snap spy sees only this process, so it watches a width-1 decode of
        the same wedge, whose panels all run here; the derived width's
        decode must equal it."""

        from repro.tpc import generate_wedge_stream

        w = np.asarray(generate_wedge_stream(1, seed=3))
        model = build_model("bcae_2d", w.shape[1:], seed=0)
        model.eval()
        comp = BCAECompressor(model)
        rec = comp.compress_into(w)
        recon = np.asarray(comp.decompress_into(rec))
        assert recon.shape == w.shape and np.isfinite(recon).all()
        monkeypatch.setattr(fp, "_FORCED_WIDTH", 1)
        alone = BCAECompressor(model)
        dense = []
        real = fp._denormal_dense
        monkeypatch.setattr(
            fp, "_denormal_dense",
            lambda src, uf, mask, d: (dense.append(mask.shape),
                                      real(src, uf, mask, d))[1])
        assert np.array_equal(np.asarray(alone.decompress_into(rec)), recon)
        assert dense == [] and alone._fast_decoder()._ws._slots is None
        panels = 0
        for plan in comp._fast_decoder().plans.values():
            sites = _gemms(plan)
            requant = [g for g in sites if "act+requant" in g["tail"]]
            assert requant and all(g["requant"] == "table" for g in requant)
            assert all("requant" not in g for g in sites
                       if "act+requant" not in g["tail"])
            panels += sum(g["panels"] for g in sites)
        assert panels > 600  # 1 MB slabs


class TestVocabularySlopes:
    @pytest.mark.parametrize("act", ["act1", "act2"])
    @pytest.mark.parametrize("slope", [0.0, -0.1, 1.5])
    def test_out_of_range_slope_stays_on_module_path(self, slope, act):
        """``maximum(x, x·slope)`` — and the table built from it, for
        ``act1`` — is LeakyReLU only for 0 < slope ≤ 1."""

        from repro.core.blocks import ResBlock2d

        block = ResBlock2d(4)
        stages = nn.Sequential(block, nn.Conv2d(4, 4, 1))
        assert fp.stage_kinds(stages) is not None
        getattr(block, act).negative_slope = slope
        assert fp.stage_kinds(stages) is None
