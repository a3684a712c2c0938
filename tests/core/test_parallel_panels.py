"""Slot-parallel panel executor: determinism at every width.

The executor's contract is *bit-identity at any width*: slot ``s`` of ``T``
owns one contiguous block of output rows, cut into panels, with per-slot
workspace slabs and deterministic output placement, so the payload and
reconstruction bytes cannot depend on the thread count.  There is one
numerics contract: a formulation whose probe sees any deviation, however
small, is not compiled — and the probe walks exactly the partition the
executor runs.

The width is derived from the host (:func:`panel_budget`), so the rule is
tested against faked affinity and BLAS variables, and the width-dependent
cases force a width through the private ``_FORCED_WIDTH`` hook.
"""

import hashlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.fast_plan as fp
from repro import nn
from repro.core import BCAECompressor, build_model
from repro.core.fast_decode import make_fast_decoder
from repro.core.fast_encode import make_fast_encoder
from repro.core.model_zoo import MODEL_NAMES
from repro.nn import Tensor
from repro.nn.norm import BatchNormNd
from repro.serve import ServiceConfig, StreamingCompressionService


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the panel slab so the panel-blocked im2col paths (and with
    them the parallel executor) run at test scale: a site is blocked where
    its whole-sample slab exceeds ``_PANEL_BYTES``."""

    monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 12)


def _build(name, seed=3):
    kw = (dict(wedge_spatial=(16, 24, 30), m=2, n=2, d=2)
          if name == "bcae_2d" else dict(wedge_spatial=(8, 16, 14)))
    model = build_model(name, seed=seed, **kw)
    model.eval()
    sp = (3, 16, 24, 30) if name == "bcae_2d" else (3, 8, 16, 14)
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 1024, size=sp, dtype=np.uint16)
    raw[raw < 600] = 0
    return model, raw


def _all_plans(comp):
    """(label, plan) for the compressor's compiled encoder + decoder heads."""

    plans = [("encoder", comp._fast_encoder().plan)]
    plans += [(f"decoder.{head}", plan)
              for head, plan in comp._fast_decoder().plans.items()]
    return plans


def _mild_bn_statistics(model, seed=5):
    """Running variances a few fp32 ulps off 1: the fold probe sees a
    nonzero-but-tiny deviation on the original BCAE's BatchNorm sites."""

    rng = np.random.default_rng(seed)
    bns = [m for _name, m in model.named_modules()
           if isinstance(m, BatchNormNd)]
    assert bns, "model must carry BatchNorm stages"
    for bn in bns:
        rv = bn.running_var
        rv[...] = (1.0 + rng.random(size=rv.shape) * 3e-7).astype(rv.dtype)
    model.eval()


def _compressor_at(monkeypatch, model, width, **kw):
    """A compressor whose plans compile at ``width``, set through the
    private width hook (plans compile on their first call)."""

    monkeypatch.setattr(fp, "_FORCED_WIDTH", width)
    comp = BCAECompressor(model, **kw)
    comp._fast_encoder(), comp._fast_decoder()
    monkeypatch.setattr(fp, "_FORCED_WIDTH", None)
    return comp


class TestThreadInvariance:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bits_identical_across_widths(self, small_blocks, monkeypatch,
                                          name, half):
        """Payload and reconstruction bytes match at widths 1/2/4 for
        every Table-1 model in both inference modes."""

        model, raw = _build(name)
        payloads, recons = [], []
        for t in (1, 2, 4):
            comp = _compressor_at(monkeypatch, model, t, half=half)
            assert comp._fast_encoder().plan.budget.width == t
            cw = comp.compress_into(raw)
            payloads.append(bytes(cw.payload))
            recons.append(np.array(comp.decompress_into(cw), copy=True))
        assert all(p == payloads[0] for p in payloads[1:]), \
            f"{name}/half={half}: payload depends on panel width"
        assert all(np.array_equal(r, recons[0]) for r in recons[1:]), \
            f"{name}/half={half}: reconstruction depends on panel width"

    def test_repeated_runs_stable(self, small_blocks, monkeypatch):
        """The threaded path is deterministic run to run, not just
        width to width."""

        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 4, half=True)
        first = bytes(comp.compress_into(raw).payload)
        for _ in range(3):
            assert bytes(comp.compress_into(raw).payload) == first


class TestPartition:
    """One partition feeds the executor, the probes and ``plan_stats()``."""

    @settings(max_examples=200, deadline=None)
    @example(K=288, o=1, ow=249, rows=192, width=2, budget=4 << 20)
    @example(K=9, o=2, ow=64, rows=300, width=1, budget=1 << 16)
    @given(K=st.integers(1, 4096), o=st.integers(1, 128),
           ow=st.integers(1, 300), rows=st.integers(1, 5000),
           width=st.integers(1, 8),
           budget=st.sampled_from([1 << 12, 1 << 16, 1 << 20, 4 << 20]))
    def test_blocks_cover_every_row_once(self, K, o, ow, rows, width, budget):
        """Contiguous, disjoint blocks cover every row once; block sizes
        differ by at most one row; no panel crosses a block boundary and
        every panel is whole rows whose slab fits the byte budget (or one
        row) — on an O ≤ 2 site with the GEMM block charged at
        ``_NARROW_GEMM_ROWS`` rows, whichever formulation the probe picks."""

        with mock.patch.object(fp, "_PANEL_BYTES", budget):
            part = fp._partition(K, o, ow, rows * ow, width)
        assert len(part.slot_rows) == min(width, rows)
        assert sum(part.slot_rows) == rows
        assert max(part.slot_rows) - min(part.slot_rows) <= 1
        rpp = part.rows_per_panel
        oy = fp._NARROW_GEMM_ROWS if o <= 2 else o
        assert rpp == 1 or rpp * ow * (4 * K + 4 * oy + 11 * o) <= budget
        edge = 0
        for block, slot in zip(part.slot_rows, part.slots()):
            assert slot[0][0] == edge * ow
            for (c0, c1), nxt in zip(slot, [*slot[1:], None]):
                assert c0 % ow == 0 and c1 % ow == 0 and c0 < c1
                assert c1 - c0 <= rpp * ow
                if nxt is not None:  # only a block's last panel is narrower
                    assert nxt[0] == c1 and c1 - c0 == rpp * ow
            edge += block
            assert slot[-1][1] == edge * ow
        assert part.panels() == [p for slot in part.slots() for p in slot]

    @pytest.mark.parametrize("ref", [False, True],
                             ids=["transposed", "reference"])
    def test_probes_walk_the_partition(self, monkeypatch, ref):
        """The probe gathers exactly the partition's column ranges, in the
        executor's order, in either orientation (a rejecting walk stops
        early, so the walk is a prefix)."""

        rows, K, o = 140, 12, 2
        with mock.patch.object(fp, "_PANEL_BYTES", 3 * 10 * fp._column_bytes(K, o)):
            part = fp._partition(K, o, 10, rows, 3)
        assert part.slot_rows == (5, 5, 4) and part.rows_per_panel == 3
        walks = _record_probe_walks(monkeypatch)
        accepted = fp._gemm_matches(rows, K, o, part, ref)
        assert len(walks) == 1 and walks[0] == part.panels()[:len(walks[0])]
        if accepted:
            assert walks[0] == part.panels()

    @pytest.mark.parametrize("width", [1, 5])
    def test_executor_runs_the_probed_partition(self, small_blocks,
                                                monkeypatch, width):
        """Every blocked site's executor maps exactly the column ranges a
        probe walked in full, and its stats report that partition."""

        monkeypatch.setattr(fp, "_PANEL_BYTES", 1 << 16)  # multi-row panels
        walks = _record_probe_walks(monkeypatch)
        ran, real_map = {}, fp._panel_map
        real_panels = fp.CompiledStagePlan._panels

        def panels(plan, key, spec, canvas, out_spatial, part, *rest):
            # A site's first call builds its maps: above width 1 that is
            # the dry pass before the slots fork.
            ran.setdefault(key, (part, []))
            return real_panels(plan, key, spec, canvas, out_spatial, part,
                               *rest)

        def panel_map(view, pre, r0, r1, dims, lo, hi):
            ranges = ran[next(reversed(ran))][1]
            ranges.append((r0 * dims[-1], r1 * dims[-1]))
            return real_map(view, pre, r0, r1, dims, lo, hi)

        monkeypatch.setattr(fp.CompiledStagePlan, "_panels", panels)
        monkeypatch.setattr(fp, "_panel_map", panel_map)
        model, raw = _build("bcae_2d")
        comp = _compressor_at(monkeypatch, model, width)
        ran.clear()
        # One wedge: a site builds its box maps on its first run only.
        comp.compress_into(raw[:1])
        sites = comp._fast_encoder().plan.plan_stats()["gemms"]
        blocked = [k for k in ran
                   if sites[repr(k)]["formulation"].startswith("blocked")]
        assert blocked
        for key in blocked:
            part, ranges = ran[key]
            g = sites[repr(key)]
            assert ranges == part.panels() and ranges in walks
            assert (g["threads"], g["rows_per_panel"], g["slot_rows"],
                    g["panels"]) == (len(part.slot_rows), part.rows_per_panel,
                                     list(part.slot_rows), len(ranges))
            assert g["threads"] == min(width, g["m"] // part.ow)
        # Some block is not a whole number of panels: a walk that ignored
        # the slot boundaries would differ.
        assert width == 1 or any(
            b % ran[k][0].rows_per_panel for k in blocked
            for b in ran[k][0].slot_rows)


def _record_probe_walks(monkeypatch) -> list[list[tuple[int, int]]]:
    """Empty the probe's cache and patch its operands so every row range
    the probe gathers from its im2col stand-in is recorded; a range
    starting at column 0 opens a new walk."""

    monkeypatch.setattr(fp, "_GEMM_OK", {})
    walks: list = []

    class Recorded(np.ndarray):
        def __getitem__(self, idx):
            if isinstance(idx, slice):
                if idx.start == 0:
                    walks.append([])
                walks[-1].append((idx.start, idx.stop))
            return np.ndarray.__getitem__(self, idx).view(np.ndarray)

    real = fp._probe_problem
    monkeypatch.setattr(fp, "_probe_problem", lambda *args: (
        lambda a, b, ref: (a.view(Recorded), b, ref))(*real(*args)))
    return walks


class TestSelectionChain:
    """``_gemm`` runs the first formulation the probe accepts — where the
    whole-sample slab exceeds ``_PANEL_BYTES`` ``blocked`` → ``blocked_ref``
    → ``transposed``, else ``transposed`` — and otherwise the unprobed
    ``reference``; a stacked site tries its first candidate only.  The
    probe is replaced by an accept set, so the chain is checked whatever
    this host's BLAS decides."""

    ROWS, OW, K, O = 120, 10, 36, 4

    @pytest.mark.parametrize("splits", [None, (2, 2)],
                             ids=["single", "stacked"])
    @pytest.mark.parametrize("big", [True, False], ids=["big", "small"])
    @pytest.mark.parametrize("accept", [
        (), ("blocked",), ("blocked_ref",), ("transposed",),
        ("blocked_ref", "transposed"), ("blocked", "blocked_ref", "transposed"),
    ], ids=lambda a: "+".join(a) or "none")
    def test_first_accepted_formulation_runs(self, monkeypatch, accept, big,
                                             splits):
        rows, ow, K, o = self.ROWS, self.OW, self.K, self.O
        monkeypatch.setattr(fp, "_PANEL_BYTES", 2 * ow * fp._column_bytes(K, o))
        blocked = fp._partition(K, o, ow, rows, 2)
        if not big:  # the whole-sample slab fits one panel: not blocked
            monkeypatch.setattr(fp, "_PANEL_BYTES",
                                rows * fp._column_bytes(K, o))
        whole = fp._Partition(ow, rows // ow, (rows // ow,))
        candidates = {"blocked": (blocked, False),
                      "blocked_ref": (blocked, True),
                      "transposed": (whole, False),
                      "reference": (whole, True)}
        assert len(set(candidates.values())) == 4
        probed = []

        def probe(prows, pK, po, part, ref, psplits=None, problem=None):
            assert (prows, pK, po, psplits) == (rows, K, o, splits)
            probed.append((part, ref))
            return (part, ref) in {candidates[a] for a in accept}

        ran = []
        plan = SimpleNamespace(
            budget=SimpleNamespace(width=2), _gemm_stats={},
            _panels=lambda key, spec, canvas, out_spatial, part, ref, *rest:
                ran.append((part, ref)))
        spec = SimpleNamespace(out_spatial=lambda spatial: (rows // ow, ow),
                               kernel=(3, 3), out_channels=o, members=splits)
        canvas = np.empty((K // 9, 1, 1), np.float32)
        monkeypatch.setattr(fp, "_gemm_matches", probe)
        tail = (None, None) if splits else None
        done = fp.CompiledStagePlan._gemm(plan, "site", spec, canvas, 1.0,
                                          tail, "store")

        chain = ["blocked", "blocked_ref", "transposed"] if big else [
            "transposed"]
        if splits:
            chain = chain[:1]
        label = next((name for name in chain if name in accept), None)
        tried = chain if label is None else chain[:chain.index(label) + 1]
        assert probed == [candidates[name] for name in tried]
        if label is None and splits:
            assert done is False and not ran and not plan._gemm_stats
            return
        label = label or "reference"
        assert done is True and ran == [candidates[label]]
        g = plan._gemm_stats["site"]
        part = candidates[label][0]
        assert g["formulation"] == label
        assert (g["panels"], g["rows_per_panel"], g["slot_rows"]) == (
            len(part.panels()), part.rows_per_panel, list(part.slot_rows))


class TestWidthThreeParity:
    def test_uneven_blocks_match_oracle_and_width_one(self, small_blocks,
                                                      monkeypatch):
        """Width 3 on a geometry whose row counts 3 does not divide: the
        payload and both head digests equal the module-graph oracle and
        width 1."""

        spatial = (16, 28, 30)
        model = build_model("bcae_2d", wedge_spatial=spatial, m=2, n=2, d=2,
                            seed=3)
        model.eval()
        rng = np.random.default_rng(11)
        raw = rng.integers(0, 1024, size=(1,) + spatial, dtype=np.uint16)
        raw[raw < 600] = 0

        def digests(comp):
            rec = comp.compress_into(raw)
            seg, reg = comp._fast_decoder().decode(rec.codes_view())
            return [hashlib.sha256(bytes(x)).hexdigest() for x in (
                rec.payload, np.ascontiguousarray(seg),
                np.ascontiguousarray(reg))]

        oracle = BCAECompressor(model).compress(raw)
        with nn.no_grad(), nn.amp.autocast(True):
            heads = model.decode(Tensor(oracle.codes_view().astype(np.float32)))
        want = [hashlib.sha256(bytes(x)).hexdigest() for x in (
            oracle.payload, *(np.ascontiguousarray(h.data) for h in heads))]

        three = _compressor_at(monkeypatch, model, 3)
        assert digests(three) == want
        assert digests(_compressor_at(monkeypatch, model, 1)) == want
        uneven = [g for p in (three._fast_encoder().plan,
                              *three._fast_decoder().plans.values())
                  for g in p.plan_stats()["gemms"].values()
                  if g["threads"] == 3 and len(set(g["slot_rows"])) > 1]
        assert uneven, "no site split its rows into uneven blocks"


@pytest.fixture
def host(monkeypatch):
    """A host shape for the width rule: ``host(cores, **env)`` pins the
    usable cores and sets exactly the given BLAS variables."""

    def shape(cores, **env):
        monkeypatch.setattr(fp.os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        for name in fp._BLAS_THREAD_VARS + ("REPRO_PANEL_THREADS",):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)

    return shape


class TestPanelBudget:
    """The width rule: usable cores // (BLAS threads × workers), ≥ 1."""

    def test_two_cores_pinned_blas(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget() == fp.PanelBudget(
            width=2, cores=2, blas_threads=1, workers=1)

    def test_unpinned_blas_owns_every_core(self, host):
        host(2)
        assert fp.panel_budget() == fp.PanelBudget(
            width=1, cores=2, blas_threads=2, workers=1)

    def test_one_core_affinity(self, host):
        """What a ``taskset -c 0`` process sees."""

        host(1, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget().width == 1

    def test_two_blas_threads_on_two_cores(self, host):
        host(2, OMP_NUM_THREADS="2")
        assert fp.panel_budget().width == 1

    def test_workers_share_the_cores(self, host):
        host(4, OPENBLAS_NUM_THREADS="1")
        assert fp.panel_budget(workers=2).width == 2
        assert fp.panel_budget(workers=0).width == 4  # inline counts as 1

    def test_largest_blas_variable_wins(self, host):
        host(4, OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="2")
        assert fp.panel_budget().blas_threads == 2
        assert fp.panel_budget().width == 2

    @pytest.mark.parametrize("value", ["auto", "0", "-1", "1.5", ""])
    def test_bad_blas_value_is_not_an_error(self, host, value):
        """These are BLAS's variables: a value the rule cannot read means
        BLAS owns every core, and nothing raises."""

        host(2, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS=value)
        assert fp.panel_budget().width == 1

    def test_old_environment_knob_is_ignored(self, host):
        host(2, OPENBLAS_NUM_THREADS="1", REPRO_PANEL_THREADS="4")
        assert fp.panel_budget().width == 2
        host(2, REPRO_PANEL_THREADS="4")
        assert fp.panel_budget().width == 1

    def test_budget_reaches_plans(self, host):
        host(2, OPENBLAS_NUM_THREADS="1")
        model, _raw = _build("bcae_ht")
        comp = BCAECompressor(model, half=True)
        assert comp._fast_encoder().plan.budget.width == 2
        assert {p.budget.width for p in comp._fast_decoder().plans.values()} \
            == {2}

    def test_service_workers_reach_plans(self, host):
        """A pooled compressor's plans divide by the service's workers."""

        host(4, OPENBLAS_NUM_THREADS="1")
        model, _raw = _build("bcae_2d")
        for workers, width in ((0, 4), (2, 2)):
            service = StreamingCompressionService(
                model, ServiceConfig(workers=workers))
            plan = service._idle[0]._fast_encoder().plan
            assert plan.budget == fp.PanelBudget(
                width=width, cores=4, blas_threads=1, workers=max(1, workers))


class TestOneNumericsContract:
    """Every compiled formulation is probe-proven bit-identical; there is
    no relaxed tier to opt into."""

    @pytest.mark.parametrize("half", [True, False])
    def test_mild_bn_statistics_stay_bit_exact(self, small_blocks, half):
        """Folds whose probe sees only a tiny deviation are refused, and
        the kept affine stages reproduce the module graph byte for byte."""

        model, raw = _build("bcae")
        _mild_bn_statistics(model)
        comp = BCAECompressor(model, half=half)
        ref = comp.compress(raw)
        got = comp.compress_into(raw)
        assert bytes(got.payload) == bytes(ref.payload)
        assert np.array_equal(np.asarray(comp.decompress_into(got)),
                              comp.decompress(ref))
        folds = [d for _label, plan in _all_plans(comp)
                 for d in plan.bn_folds if d["site"] == "norm1->inner-conv"]
        assert folds and any(not d["folded"] for d in folds)

    def test_mild_bn_statistics_width_invariant(self, small_blocks,
                                                monkeypatch):
        """The kept affine stages are deterministic at every width."""

        model, raw = _build("bcae")
        _mild_bn_statistics(model)
        outs = []
        for t in (1, 4):
            comp = _compressor_at(monkeypatch, model, t, half=True)
            cw = comp.compress_into(raw)
            outs.append((bytes(cw.payload),
                         np.array(comp.decompress_into(cw), copy=True)))
        assert outs[0][0] == outs[1][0]
        assert np.array_equal(outs[0][1], outs[1][1])

    @pytest.mark.parametrize("keyword", [{"precision": "bit"},
                                         {"panel_threads": 2}],
                             ids=["precision", "panel_threads"])
    @pytest.mark.parametrize("entry", ["BCAECompressor", "make_fast_encoder",
                                       "make_fast_decoder", "ServiceConfig"])
    def test_precision_keyword_removed(self, entry, keyword):
        """The old tier selector and the old panel-width knob are gone
        outright, with no alias."""

        model, _raw = _build("bcae_ht")
        build = {
            "BCAECompressor": lambda **kw: BCAECompressor(model, **kw),
            "make_fast_encoder": lambda **kw: make_fast_encoder(model, **kw),
            "make_fast_decoder": lambda **kw: make_fast_decoder(model, **kw),
            "ServiceConfig": lambda **kw: ServiceConfig(**kw),
        }[entry]
        build()
        with pytest.raises(TypeError):
            build(**keyword)


class TestPlanStats:
    def test_stats_record_execution(self, small_blocks, monkeypatch):
        model, raw = _build("bcae_ht")
        comp = _compressor_at(monkeypatch, model, 2, half=True)
        comp.decompress_into(comp.compress_into(raw))
        for label, plan in _all_plans(comp):
            stats = plan.plan_stats()
            assert stats["panel_budget"]["width"] == 2
            assert stats["stage_kinds"]
            assert stats["workspace_bytes"] > 0
        dec_stats = [plan.plan_stats()
                     for _l, plan in _all_plans(comp)[1:]]
        gemms = [g for s in dec_stats for g in s["gemms"].values()]
        assert gemms, "decoder ran no recorded GEMM sites"
        assert {g["formulation"] for g in gemms} <= {
            "blocked", "blocked_ref", "transposed", "reference"}
        blocked = [g for g in gemms if g["formulation"].startswith("blocked")]
        assert blocked, "no panel-blocked site engaged at test scale"
        assert all(1 <= g["threads"] <= 2 for g in blocked)
        assert any(g["threads"] == 2 for g in blocked)

    def test_stats_carry_no_tier_ledger(self, small_blocks):
        """The record holds what ran and how, and nothing about a
        numerics tier: no ``precision`` key, no relaxed-site list."""

        model, raw = _build("bcae")
        comp = BCAECompressor(model, half=True)
        comp.decompress_into(comp.compress_into(raw))
        for label, plan in _all_plans(comp):
            stats = plan.plan_stats()
            assert set(stats) == {"half", "panel_budget", "stage_kinds",
                                  "bn_folds", "gemms", "workspace_bytes"}, \
                label
