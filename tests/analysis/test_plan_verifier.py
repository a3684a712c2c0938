"""Static plan verifier: green on the zoo, loud on corrupted plans.

The acceptance contract: every Table-1 plan verifies clean with its
clip-elision intervals re-derived, and a deliberately corrupted plan
(mutated stride / dtype / weight values) produces an error diagnostic
*naming the stage*.
"""

import numpy as np
import pytest

import repro.core.fast_plan as fp
from repro.core import MODEL_NAMES, build_model
from repro.core.fast_decode import make_fast_decoder
from repro.core.fast_encode import LOG_INPUT_BOUND, make_fast_encoder
from repro.core.fast_plan import FP16_MAX
from repro.analysis import analyze_model_plans, verify_plan
from repro.analysis.runner import SMOKE_WEDGE

WEDGE = (8, 16, 14)


def _encoder_2d(seed=0):
    model = build_model("bcae_2d", wedge_spatial=WEDGE, seed=seed,
                        m=2, n=2, d=2)
    model.eval()
    return make_fast_encoder(model)


def _verify_2d(enc):
    channels, spatial = enc.geometry.network_input(WEDGE)
    return verify_plan(enc.plan, channels, spatial,
                       LOG_INPUT_BOUND, label="t.encoder")


def _errors(record):
    return [d for d in record["diagnostic_objects"] if d.severity == "error"]


class TestCleanPlans:
    def test_all_zoo_plans_verify(self):
        """All four models, encoder + both decoder heads: zero errors,
        intervals re-derived at every quantize site."""

        diags, records = analyze_model_plans(wedge_spatial=SMOKE_WEDGE)
        assert len(records) == 3 * len(MODEL_NAMES)
        assert all(r["ok"] for r in records), [
            r["label"] for r in records if not r["ok"]]
        assert not [d for d in diags if d.severity == "error"]
        for rec in records:
            assert rec["clip_sites"], f"{rec['label']} derived no intervals"
            for site in rec["clip_sites"]:
                # The independent float64 chain must agree with the plan's
                # own fp32 chain away from the saturation boundary.
                if site["bound"] < FP16_MAX and site["bound"] > 0:
                    assert site["bound64"] == pytest.approx(
                        site["bound"], rel=1e-4)
                assert site["clip_elided"] == (site["bound"] < FP16_MAX)

    def test_record_attaches_to_plan(self):
        enc = _encoder_2d()
        assert enc.plan.verification is None
        rec = _verify_2d(enc)
        assert enc.plan.verification is rec
        assert rec["ok"] and rec["label"] == "t.encoder"
        # bn_folds decisions surface as info diagnostics (explainability).
        assert rec["bn_folds"] == enc.bn_folds

    def test_rejected_folds_verify_clean_as_info(self):
        """A BatchNorm plan whose folds the probe refused verifies clean:
        each decision is one PV040 info diagnostic naming its stage, and
        no rule grades a plan against a relaxed-numerics budget."""

        model = build_model("bcae", wedge_spatial=WEDGE, seed=0)
        rng = np.random.default_rng(3)
        for _name, m in model.named_modules():
            if hasattr(m, "running_var"):
                c = m.num_features
                m.set_buffer("running_mean",
                             rng.normal(0, 0.5, c).astype(np.float32))
                m.set_buffer("running_var",
                             (0.5 + rng.random(c)).astype(np.float32))
        model.eval()
        enc = make_fast_encoder(model)
        assert any(not d["folded"] for d in enc.bn_folds)
        channels, spatial = enc.geometry.network_input(WEDGE)
        rec = verify_plan(enc.plan, channels, spatial, LOG_INPUT_BOUND,
                          label="t.encoder")
        assert rec["ok"]
        infos = [d for d in rec["diagnostic_objects"] if d.rule == "PV040"]
        assert len(infos) == len(enc.bn_folds)
        for d, fold in zip(infos, enc.bn_folds):
            assert d.severity == "info" and f"stage {fold['stage']}" in d.scope
            assert d.message.startswith(
                "bn-fold applied" if fold["folded"] else "bn-fold rejected")
        assert {d.rule for d in rec["diagnostic_objects"]} <= {
            "PV020", "PV031", "PV040"}
        assert "ulp" not in rec

    def test_static_shape_chain_matches_runtime(self):
        """The inferred output shape equals what run() actually produces."""

        enc = _encoder_2d()
        rec = _verify_2d(enc)
        x = np.random.default_rng(0).normal(
            size=(2,) + WEDGE).astype(np.float32)
        target = enc.geometry.network_input(WEDGE)[1][-1]
        code = enc.encode(x, horizontal_target=target)
        out = rec["out"]
        assert code.shape == (2, out["channels"]) + tuple(out["spatial"])


class TestCorruptedPlans:
    def test_mutated_stride_flagged_with_stage_name(self):
        enc = _encoder_2d()
        idx = next(i for i, (kind, _op) in enumerate(enc.plan._ops)
                   if kind == "res")
        enc.plan._ops[idx][1][0].stride = (2, 2)  # conv1 of the res block
        rec = _verify_2d(enc)
        assert not rec["ok"]
        errs = _errors(rec)
        assert any(f"stage {idx}:res" in d.scope and d.rule == "PV103"
                   for d in errs)

    def test_mutated_dtype_flagged_with_stage_name(self):
        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.wt = np.asfortranarray(spec.wt, dtype=np.float64)
        rec = _verify_2d(enc)
        errs = _errors(rec)
        assert any(f"stage {idx}:conv" in d.scope and d.rule == "PV001"
                   for d in errs)

    def test_diverged_gemm_orientations_flagged(self):
        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.wtT = np.ascontiguousarray(spec.wtT * np.float32(1.5))
        rec = _verify_2d(enc)
        assert any(d.rule == "PV003" and f"stage {idx}" in d.scope
                   for d in _errors(rec))

    def test_understated_bound_slope_flagged(self):
        """An understated w_l1 could wrongly elide a saturating clip —
        the exact corruption the independent re-derivation exists for."""

        enc = _encoder_2d()
        idx, spec = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                         if kind == "conv")
        spec.w_l1 = spec.w_l1 * 0.5
        rec = _verify_2d(enc)
        assert any(d.rule == "PV005" and f"stage {idx}" in d.scope
                   for d in _errors(rec))

    def test_channel_mismatch_flagged(self):
        enc = _encoder_2d()
        rec = verify_plan(enc.plan, 3, (16, 16), LOG_INPUT_BOUND,
                          label="bad-channels")
        assert any(d.rule == "PV102" for d in _errors(rec))

    def test_pool_divisibility_flagged(self):
        enc = _encoder_2d()
        r, _a, _h = WEDGE
        rec = verify_plan(enc.plan, r, (15, 17), LOG_INPUT_BOUND,
                          label="odd-spatial")
        assert any(d.rule == "PV104" for d in _errors(rec))

    def test_stage_after_head_flagged(self):
        """Epilogue legality: run() applies heads to the result stream, so
        any canvas-consuming op after a head silently drops the head."""

        model = build_model("bcae_2d", wedge_spatial=WEDGE, seed=0,
                            m=2, n=2, d=2)
        model.eval()
        dec = make_fast_decoder(model)
        plan = dec.plans["seg"]
        conv_op = next(op for kind, op in plan._ops if kind == "conv")
        plan._ops.append(("conv", conv_op))
        rec = verify_plan(plan, 2 ** (2 * 2), (4, 4), FP16_MAX,
                          label="t.seg")
        assert any(d.rule == "PV105" for d in _errors(rec))


class TestStackedSites:
    """PV060: a block's stacked main+skip operand is re-derived from its
    members, like PV020 re-derives clip elision."""

    @staticmethod
    def _encoder_3d():
        model = build_model("bcae_pp", wedge_spatial=SMOKE_WEDGE, seed=0)
        model.eval()
        enc = make_fast_encoder(model)
        idx, op = next((i, op) for i, (kind, op) in enumerate(enc.plan._ops)
                       if kind == "down3d")
        return enc, idx, op

    @staticmethod
    def _verify(enc):
        return verify_plan(enc.plan, *enc.geometry.network_input(SMOKE_WEDGE),
                           LOG_INPUT_BOUND, label="t.encoder3d")

    def _pv060(self, enc, idx):
        return [d for d in _errors(self._verify(enc))
                if d.rule == "PV060" and f"stage {idx}:down3d" in d.scope]

    def test_clean_pair_and_clip_ledger(self):
        """Every zoo block compiled a pair; its ledger site clips exactly
        where either member's does."""

        _diags, records = analyze_model_plans(
            names=["bcae", "bcae_pp", "bcae_ht"], wedge_spatial=SMOKE_WEDGE)
        pairs = 0
        for rec in records:
            assert rec["ok"]
            by_stage = {}
            for site in rec["clip_sites"]:
                by_stage.setdefault(site["stage"], {})[site["site"]] = site
            for sites in by_stage.values():
                if "pair" in sites:
                    pairs += 1
                    assert sites["pair"]["clip_elided"] == (
                        sites["main"]["clip_elided"]
                        and sites["skip"]["clip_elided"])
        assert pairs == 3 * 3 * 4  # models x plans x blocks

    def test_diverged_member_rows_flagged(self):
        enc, idx, op = self._encoder_3d()
        pair, o1 = op[9], op[0].out_channels
        assert not self._pv060(enc, idx)
        pair.wtT[o1:] *= np.float32(1.5)          # the skip member's rows
        pair.wt = np.asfortranarray(pair.wtT.T)   # keep PV003 quiet
        assert self._pv060(enc, idx)

    def test_diverged_bias_flagged(self):
        enc, idx, op = self._encoder_3d()
        op[9].bias[0] += np.float32(1.0)
        assert self._pv060(enc, idx)

    def test_member_geometry_disagreement_flagged(self):
        enc, idx, op = self._encoder_3d()
        op[2].padding = tuple((p + 1, q) for p, q in op[2].padding)
        assert self._pv060(enc, idx)

    def test_stale_member_split_flagged(self):
        enc, idx, op = self._encoder_3d()
        op[9].members = (op[9].out_channels, 0)
        assert self._pv060(enc, idx)


class TestLookupTails:
    """PV021: the table an ``act+requant`` tail looks up is re-derived from
    the module oracle, like PV020 re-derives clip elision."""

    @staticmethod
    def _pv021(rec):
        return [d for d in _errors(rec) if d.rule == "PV021"]

    def test_clean_zoo_ledger(self):
        """Norm-free ``act1`` sites take the table and verify against the
        oracle; a site with a norm before the requantize (``bn1``, the
        original BCAE where the fold probe rejected) keeps the sequence;
        full-precision plans requantize nowhere."""

        _diags, records = analyze_model_plans(wedge_spatial=SMOKE_WEDGE)
        requant = {}
        for rec in records:
            assert not self._pv021(rec)
            for site in rec["clip_sites"]:
                if "requant" in site:
                    requant.setdefault(site["site"], set()).add(site["requant"])
        assert requant == {"act1": {"table"}, "bn1": {"sequence"}}
        _diags, records = analyze_model_plans(
            names=["bcae_2d", "bcae"], half=False, wedge_spatial=SMOKE_WEDGE)
        assert all(r["ok"] for r in records)
        assert not any("requant" in site for rec in records
                       for site in rec["clip_sites"])

    def test_diverged_entry_flagged_with_stage_name(self, monkeypatch):
        enc = _encoder_2d()
        assert not self._pv021(_verify_2d(enc))
        real = fp._act_table

        def corrupted(slope, clip):
            table = real(slope, clip).copy()
            table[0x1FC00] ^= np.uint32(0x2000)  # 1.0 -> the next grid point
            return table

        monkeypatch.setattr(fp, "_act_table", corrupted)
        errs = self._pv021(_verify_2d(enc))
        assert errs and all(":res]" in d.scope for d in errs)
        assert " in 1 of " in errs[0].message
        assert errs[0].details["first"] == 0x1FC00

    @pytest.mark.parametrize("how", ["across-norm", "full-precision"])
    def test_illegal_engagement_flagged(self, how, monkeypatch):
        """A tail that looks lanes up where they are not a function of the
        snapped pattern alone — a norm sits in between, or nothing was
        snapped — is an error whatever its table holds."""

        half = how == "across-norm"
        model = build_model("bcae" if half else "bcae_pp",
                            wedge_spatial=SMOKE_WEDGE, seed=0)
        model.eval()
        enc = make_fast_encoder(model, half=half)
        real = fp.CompiledStagePlan._store_tail

        def forced(self, dest, slope=None, bn=None, requant_bound=None):
            tail = real(self, dest, slope, bn, requant_bound)
            if requant_bound is not None:
                tail.table = fp._act_table(slope, False)
            return tail

        monkeypatch.setattr(fp.CompiledStagePlan, "_store_tail", forced)
        rec = verify_plan(enc.plan, *enc.geometry.network_input(SMOKE_WEDGE),
                          LOG_INPUT_BOUND, label="t.bcae")
        errs = self._pv021(rec)
        assert errs and all(":down3d]" in d.scope for d in errs)
        want = ("norm between activation" if half else "outside half mode")
        assert any(want in d.message for d in errs)
