"""Pass 1 — static verification of compiled stage plans.

:func:`verify_plan` abstractly interprets a
:class:`~repro.core.fast_plan.CompiledStagePlan` *without running it*: it
walks the compiled op list with a symbolic ``(channels, spatial, bound)``
state — the same state :meth:`CompiledStagePlan.run` threads through its
stages — and checks, per stage, everything that must hold for the runtime
path to be legal and bit-exact:

* **spec integrity** — every cached conv operand has the dtype and memory
  layout the BLAS dispatch was calibrated for (``wt`` fp32 F-contiguous,
  ``wtT`` its C-contiguous transpose, ``bias_col`` an aliasing view of
  ``bias``), every BatchNorm affine's composed ``scale``/``shift`` match a
  recomputation from its raw statistics;
* **shape/channel inference** — GEMM operand widths against the channel
  state, residual-sum and skip-path shape equality inside blocks, pool
  divisibility (the exact-mean reshape requires it), canvas store paddings
  non-negative;
* **epilogue legality** — output heads (``sigmoid``/``regout``) must be
  terminal: :meth:`run` applies them to the *result stream*, so any
  canvas-consuming op after a head would silently drop the head;
* **stacked-site re-derivation** — where a residual block compiled its
  main and skip convolutions into one stacked GEMM operand, that operand is
  rebuilt from the members: ``wtT`` row blocks and the concatenated bias
  equal the members' bit for bit, the members agree on kernel / stride /
  padding (and crop, for the transposed pair), and the shared epilogue
  clips exactly where either member's bound requires it;
* **clip-elision re-derivation** — the magnitude-bound chain is recomputed
  from scratch (conv slopes re-derived from the cached weights in float64)
  and every fp16 quantize site is classified as *clip elided* or *clip
  required*, independently of the values the plan itself cached.  An
  understated cached slope (which could wrongly elide a saturating clip)
  is an error; a decision that flips between the fp32 and float64 chains
  is flagged as boundary-unstable;
* **lookup-tail re-derivation** — where an ``act+requant`` tail finishes
  its panels with one table lookup instead of LeakyReLU → clip → snap, the
  table is rebuilt from the module oracle (``Tensor.leaky_relu`` and
  ``quantize_fp16``'s numpy cast pair — not the engine's integer snap) for
  the site's slope and the re-derived clip decision and all 2^19 entries
  are compared; the site must run in half mode with no norm between the
  activation and the requantize;
* **workspace lifetime** — fold sources (``w_raw``) must have been
  released after BN folding, canvases must stay fp32 across stage
  boundaries (the engine's documented invariant).

Numerics need no ledger of their own: every formulation a plan compiles to,
and every BN fold it keeps, was accepted by a bit-equality calibration probe
at compile time, and the record's BN-fold entries are that decision trail.

The full record — per-stage state trace, quantize-site intervals,
BN-fold decisions (surfaced as ``info`` diagnostics so calibration-probe
rejections are explainable) and any findings — is attached to the plan as
``plan.verification``, mirroring the ``bn_folds`` decision-record idiom.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.fast_plan import FP16_MAX
from repro.nn import Tensor
from repro.nn.amp import quantize_fp16

from .diagnostics import Diagnostic

__all__ = ["verify_plan"]

#: Bound-chain slack: the engine computes slopes in fp32, the re-derivation
#: in float64; disagreements inside one part in 1e5 are rounding, not
#: corruption.
_SLOPE_TOL = 1e-5

#: Stage kinds that produce / transform the result stream but consume no
#: canvas — legal after an output head.
_HEAD_KINDS = ("sigmoid", "regout")


@functools.lru_cache(maxsize=None)
def _requant_oracle(slope: float, clip: bool) -> tuple[np.ndarray, np.ndarray]:
    """Module-path ``act → requantize`` of every snapped-lane pattern.

    Pattern ``i`` is the fp32 value with bits ``i << 13`` (sign, exponent,
    10-bit mantissa — everything a lane on the fp16 grid can hold).
    Returns ``(ref, check)``: the oracle's fp32 results and the patterns it
    defines.  Under ``clip`` that is all of them
    (``quantize_fp16(leaky_relu(x))``); where the bound proved the clip
    away the engine omits it, and activations that are finite beyond ±65504
    are outside its snap's domain (the first snap cannot emit them).
    """

    x = (np.arange(1 << 19, dtype=np.uint32) << np.uint32(13)).view(np.float32)
    with np.errstate(invalid="ignore", over="ignore"):
        act = Tensor(x).leaky_relu(slope).data
        if clip:
            return quantize_fp16(act), np.ones(x.shape, np.bool_)
        ref = act.astype(np.float16).astype(np.float32)
    return ref, ~(np.isfinite(act) & (np.abs(act) > FP16_MAX))


def verify_plan(plan, in_channels: int, in_spatial: tuple[int, ...],
                entry_bound: float, label: str = "plan") -> dict:
    """Statically verify one compiled plan; attach and return the record.

    Parameters
    ----------
    plan:
        The :class:`~repro.core.fast_plan.CompiledStagePlan` to verify.
    in_channels / in_spatial:
        Channel count and spatial shape of the input canvas interior the
        wrapper will prepare (e.g. ``(1, (16, 48, 64))`` for a 3D encoder).
    entry_bound:
        Rigorous magnitude bound on the prepared input values — the same
        bound the wrapper passes to :meth:`run` (``LOG_INPUT_BOUND`` for
        encoders, ``FP16_MAX`` for decoders in half mode).
    label:
        Human-facing plan name used in diagnostic scopes
        (``bcae.encoder``, ``bcae_2d.decoder.seg`` …).

    Returns the verification record (also stored on ``plan.verification``)::

        {"label", "ok", "in", "out", "stages", "clip_sites",
         "bn_folds", "diagnostics"}

    ``ok`` is True iff no ``error``-severity diagnostic was produced.
    """

    v = _Verifier(plan, label)
    v.walk(int(in_channels), tuple(int(s) for s in in_spatial),
           float(entry_bound))
    record = v.record()
    plan.verification = record
    return record


class _Verifier:
    """One verification walk over a plan's compiled ops."""

    def __init__(self, plan, label: str) -> None:
        self.plan = plan
        self.label = label
        self.diags: list[Diagnostic] = []
        self.stages: list[dict] = []
        self.clip_sites: list[dict] = []

    # -- diagnostics ----------------------------------------------------
    def _scope(self, i: int | None, kind: str | None) -> str:
        if i is None:
            return self.label
        return f"{self.label}[stage {i}:{kind}]"

    def emit(self, rule: str, severity: str, i: int | None, kind: str | None,
             message: str, token: str = "", **details) -> None:
        self.diags.append(Diagnostic(
            pass_name="plan", rule=rule, severity=severity,
            location=self._scope(i, kind), scope=self._scope(i, kind),
            message=message, token=token, details=details,
        ))

    # -- spec integrity -------------------------------------------------
    def _check_conv_spec(self, spec, i: int, kind: str, part: str) -> float:
        """Integrity checks for one ``_ConvSpec``; returns its re-derived
        float64 bound slope (ℓ1 norm over output channels)."""

        tok = part
        k_rank = len(spec.kernel)
        if not (len(spec.stride) == k_rank == len(spec.padding)):
            self.emit("PV006", "error", i, kind,
                      f"{part}: kernel/stride/padding rank mismatch "
                      f"({spec.kernel} / {spec.stride} / {spec.padding})",
                      token=tok)
        if any(s < 1 for s in spec.stride):
            self.emit("PV006", "error", i, kind,
                      f"{part}: non-positive stride {spec.stride}", token=tok)
        if any(pl < 0 or ph < 0 for pl, ph in spec.padding):
            self.emit("PV030", "error", i, kind,
                      f"{part}: negative canvas padding {spec.padding} — the "
                      "interior view would read outside its canvas",
                      token=tok)

        wt, wtT = spec.wt, spec.wtT
        if wt.dtype != np.float32 or wtT.dtype != np.float32:
            self.emit("PV001", "error", i, kind,
                      f"{part}: GEMM operand dtype {wt.dtype}/{wtT.dtype} — "
                      "the calibrated BLAS path requires float32 across "
                      "every stage boundary", token=tok,
                      wt_dtype=str(wt.dtype), wtT_dtype=str(wtT.dtype))
        if not wt.flags.f_contiguous:
            self.emit("PV002", "error", i, kind,
                      f"{part}: wt is not F-contiguous — BLAS picks its "
                      "kernel by operand layout; a relayouted weight breaks "
                      "bit identity", token=tok)
        if not wtT.flags.c_contiguous:
            self.emit("PV002", "error", i, kind,
                      f"{part}: wtT is not C-contiguous", token=tok)
        if wt.ndim != 2 or wtT.shape != wt.shape[::-1]:
            self.emit("PV003", "error", i, kind,
                      f"{part}: wt {wt.shape} / wtT {wtT.shape} are not "
                      "transposes of each other", token=tok)
        elif not np.array_equal(wtT, wt.T):
            self.emit("PV003", "error", i, kind,
                      f"{part}: wtT values diverge from wt.T — the two GEMM "
                      "orientations would compute different convolutions",
                      token=tok)
        if wt.ndim == 2 and wt.shape[1] != spec.out_channels:
            self.emit("PV003", "error", i, kind,
                      f"{part}: wt has {wt.shape[1]} output columns but the "
                      f"spec claims {spec.out_channels} channels", token=tok)

        if spec.bias is not None:
            if spec.bias.dtype != np.float32:
                self.emit("PV001", "error", i, kind,
                          f"{part}: bias dtype {spec.bias.dtype}", token=tok)
            if spec.bias_col is None or not np.shares_memory(spec.bias,
                                                             spec.bias_col):
                self.emit("PV004", "error", i, kind,
                          f"{part}: bias_col does not alias bias — the "
                          "transposed epilogue would add stale values",
                          token=tok)

        # Clip-elision slope, re-derived from the cached weight in float64.
        if wt.ndim == 2:
            l1_64 = float(np.abs(wt.astype(np.float64)).sum(axis=0).max(
                initial=0.0))
        else:
            l1_64 = float(spec.w_l1)
        if spec.w_l1 < l1_64 * (1.0 - _SLOPE_TOL):
            self.emit("PV005", "error", i, kind,
                      f"{part}: cached bound slope w_l1={spec.w_l1:.6g} "
                      f"understates the re-derived ℓ1 norm {l1_64:.6g} — an "
                      "understated slope can wrongly elide a saturating "
                      "clip", token=tok, w_l1=spec.w_l1, rederived=l1_64)
        if spec.w_raw is not None:
            self.emit("PV031", "info", i, kind,
                      f"{part}: fold source w_raw retained after compile "
                      "(lifetime: plans release it post-fold)", token=tok)
        return l1_64

    def _check_pair(self, pair, main, skip, i: int, kind: str) -> None:
        """Re-derive a block's stacked GEMM operand from its two members
        (``_ConvSpec`` / ``_ConvTSpec``); any disagreement is PV060."""

        def bad(message: str) -> None:
            self.emit("PV060", "error", i, kind, f"pair: {message}",
                      token="pair")

        def same(x, y) -> bool:
            if x is None or y is None:
                return x is y
            return (x.shape == y.shape and x.dtype == y.dtype
                    and x.tobytes() == y.tobytes())

        def geometry(m) -> tuple:  # a transposed conv adds its crop
            return (m.kernel, m.stride, m.padding,
                    getattr(m, "output_padding", None))

        self._check_conv_spec(pair, i, kind, "pair")
        a, b = getattr(main, "spec", main), getattr(skip, "spec", skip)
        if not (geometry(main) == geometry(skip)
                and geometry(a) == geometry(b) == geometry(pair)):
            bad("members disagree on kernel / stride / padding / crop — "
                "one gather and one store map cannot serve both")
        o1 = a.out_channels
        if pair.members != (o1, b.out_channels):
            bad(f"member split {pair.members} vs the members' channels "
                f"({o1}, {b.out_channels})")
        if not (same(pair.wtT[:o1], a.wtT) and same(pair.wtT[o1:], b.wtT)):
            bad("stacked wtT row blocks diverge from the members' operands "
                "— the fused site would compute different convolutions "
                "than its fallback")
        if (a.bias is None) != (b.bias is None) or not same(
                pair.bias, None if a.bias is None
                else np.concatenate((a.bias, b.bias))):
            bad("stacked bias is not the members' biases concatenated")

    def _check_bn_spec(self, bn, i: int, kind: str, part: str) -> None:
        tok = part
        c = bn.num_features
        for name in ("mean", "inv_std", "gamma", "beta", "scale", "shift"):
            a = getattr(bn, name)
            if a.dtype != np.float32:
                self.emit("PV010", "error", i, kind,
                          f"{part}: {name} dtype {a.dtype} (expected "
                          "float32)", token=tok)
            if a.shape != (c,):
                self.emit("PV010", "error", i, kind,
                          f"{part}: {name} shape {a.shape} vs num_features "
                          f"{c}", token=tok)
        scale = (bn.inv_std * bn.gamma).astype(np.float32)
        shift = (bn.beta - bn.mean * scale).astype(np.float32)
        if not (np.array_equal(scale, bn.scale)
                and np.array_equal(shift, bn.shift)):
            self.emit("PV011", "error", i, kind,
                      f"{part}: composed scale/shift diverge from a "
                      "recomputation off mean/inv_std/gamma/beta — the "
                      "folded affine would not match the module chain",
                      token=tok)

    # -- shape helpers --------------------------------------------------
    def _conv_out(self, spec, spatial, i, kind, part) -> tuple[int, ...]:
        out = []
        for s, k, st, (pl, ph) in zip(spatial, spec.kernel, spec.stride,
                                      spec.padding):
            span = s + pl + ph - k
            if span < 0:
                self.emit("PV102", "error", i, kind,
                          f"{part}: kernel {k} does not fit input extent "
                          f"{s} with padding ({pl},{ph})", token=part)
                span = 0
            out.append(span // st + 1)
        return tuple(out)

    def _check_in_channels(self, spec, c, i, kind, part) -> None:
        expect = c * int(np.prod(spec.kernel))
        if spec.wt.ndim == 2 and spec.wt.shape[0] != expect:
            self.emit("PV102", "error", i, kind,
                      f"{part}: GEMM operand expects "
                      f"{spec.wt.shape[0]} input rows but the stream "
                      f"carries {c} channels × kernel {spec.kernel} = "
                      f"{expect}", token=part,
                      rows=int(spec.wt.shape[0]), expected=expect)

    # -- bound chain ----------------------------------------------------
    def _site(self, i: int, kind: str, site: str, bound: float,
              bound64: float) -> float:
        """Record one fp16 quantize site; returns the post-site bound.

        ``bound`` advances the plan's own fp32 chain (what :meth:`run`
        computes), ``bound64`` the independent float64 chain; a clip
        decision that differs between the two is boundary-unstable.
        """

        clip_plan = bound >= FP16_MAX
        clip_64 = bound64 >= FP16_MAX
        self.clip_sites.append({
            "stage": i, "kind": kind, "site": site,
            "bound": float(bound), "bound64": float(bound64),
            "clip_elided": not clip_plan,
        })
        if clip_plan != clip_64:
            self.emit("PV020", "warning", i, kind,
                      f"site {site}: clip-elision decision unstable — the "
                      f"plan chain says bound {bound:.6g}, the float64 "
                      f"re-derivation {bound64:.6g}, straddling ±{FP16_MAX}",
                      token=site, bound=float(bound), bound64=float(bound64))
        return min(bound, FP16_MAX)

    def _check_requant(self, i: int, kind: str, site: str, slope: float,
                       bn, bound: float) -> None:
        """PV021: re-derive the lookup an ``act+requant`` tail would use.

        ``bound`` is the requantize bound of the plan's own chain — what
        :meth:`run` hands ``_store_tail`` — so the tail built here closes
        over the very table a run would index.
        """

        tail = self.plan._store_tail(None, slope, bn, bound)
        table = getattr(tail, "table", None)
        if self.clip_sites and self.clip_sites[-1]["site"] == site:
            self.clip_sites[-1]["requant"] = (
                "sequence" if table is None else "table")
        if table is None:
            return
        if bn is not None or not self.plan.half:
            self.emit("PV021", "error", i, kind,
                      f"site {site}: lookup tail engaged "
                      + ("across a norm between activation and requantize"
                         if bn is not None else "outside half mode")
                      + " — the table is a function of the snapped lane "
                      "alone", token=site)
            return
        ref, check = _requant_oracle(float(slope), bool(bound >= FP16_MAX))
        # NaN patterns must stay NaN; their payload is not contractual.
        same = (table == ref.view(np.uint32)) | (
            np.isnan(table.view(np.float32)) & np.isnan(ref))
        bad = np.flatnonzero(check & ~same)
        if bad.size:
            k = int(bad[0])
            self.emit("PV021", "error", i, kind,
                      f"site {site}: lookup table diverges from the module "
                      f"oracle quantize_fp16(leaky_relu(x, {slope:g})) in "
                      f"{bad.size} of {int(check.sum())} entries (first: "
                      f"pattern {k:#x} -> {int(table[k]):#010x}, oracle "
                      f"{int(ref.view(np.uint32)[k]):#010x})", token=site,
                      mismatches=int(bad.size), first=k)

    # -- the walk -------------------------------------------------------
    def walk(self, c: int, spatial: tuple[int, ...], bound: float) -> None:
        plan = self.plan
        half = plan.half
        if getattr(plan, "_cdtype", np.float32) != np.float32:
            self.emit("PV033", "error", None, None,
                      f"canvas dtype {plan._cdtype} — stage boundaries "
                      "require fp32 canvases (fp16 grid values stored "
                      "widened)", token="cdtype")

        b64 = float(bound)
        head_seen: int | None = None
        result_exists = False
        ops = plan._ops
        nd = plan._nd
        if nd != len(spatial):
            self.emit("PV101", "error", None, None,
                      f"plan rank {nd} vs input spatial {spatial}",
                      token="rank")
            return

        for i, (kind, op) in enumerate(ops):
            in_state = {"channels": c, "spatial": spatial,
                        "bound": float(bound)}
            if head_seen is not None and kind not in _HEAD_KINDS + ("identity",):
                self.emit("PV105", "error", i, kind,
                          f"canvas-consuming stage after output head at "
                          f"stage {head_seen} — run() applies heads to the "
                          "result stream, so the head would be silently "
                          "dropped", token="placement")

            if kind in ("conv", "conv3d"):
                l1 = self._check_conv_spec(op, i, kind, "conv")
                self._check_in_channels(op, c, i, kind, "conv")
                spatial = self._conv_out(op, spatial, i, kind, "conv")
                c = op.out_channels
                raw = op.out_bound(bound)
                raw64 = l1 * b64 + op.bias_max
                if half:
                    bound = self._site(i, kind, "conv", raw, raw64)
                    b64 = min(raw64, FP16_MAX)
                else:
                    bound, b64 = raw, raw64
                result_exists = True

            elif kind == "convtranspose3d":
                l1 = self._check_conv_spec(op.spec, i, kind, "convt")
                self._check_in_channels(op.spec, c, i, kind, "convt")
                spatial = tuple(op.out_spatial(spatial))
                c = op.out_channels
                raw = op.out_bound(bound)
                raw64 = l1 * b64 + op.spec.bias_max
                if half:
                    bound = self._site(i, kind, "convt", raw, raw64)
                    b64 = min(raw64, FP16_MAX)
                else:
                    bound, b64 = raw, raw64
                result_exists = True

            elif kind in ("pool", "pool3d"):
                kernel = tuple(op)
                for s, k in zip(spatial, kernel):
                    if s % k:
                        self.emit("PV104", "error", i, kind,
                                  f"pool kernel {kernel} does not divide "
                                  f"spatial {spatial} — the exact-mean "
                                  "reshape requires divisibility",
                                  token="divisibility")
                spatial = tuple(s // k for s, k in zip(spatial, kernel))
                # Mean cannot grow the bound; the store re-quantizes.
                if half:
                    bound = self._site(i, kind, "store", bound, b64)
                    b64 = min(b64, FP16_MAX)
                result_exists = True

            elif kind in ("up", "up3d"):
                spatial = tuple(s * f for s, f in zip(spatial, tuple(op)))
                if half:
                    bound = self._site(i, kind, "store", bound, b64)
                    b64 = min(b64, FP16_MAX)
                result_exists = True

            elif kind == "bnorm":
                self._check_bn_spec(op, i, kind, "bnorm")
                if op.num_features != c:
                    self.emit("PV102", "error", i, kind,
                              f"bnorm over {op.num_features} features but "
                              f"the stream carries {c} channels",
                              token="bnorm")
                raw = op.out_bound(bound)
                raw64 = op.out_bound(b64)
                if half:
                    bound = self._site(i, kind, "store", raw, raw64)
                    b64 = min(raw64, FP16_MAX)
                else:
                    bound, b64 = raw, raw64
                result_exists = True

            elif kind == "res":
                spec1, spec2, s1, s2 = op
                l1a = self._check_conv_spec(spec1, i, kind, "conv1")
                l1b = self._check_conv_spec(spec2, i, kind, "conv2")
                self._check_in_channels(spec1, c, i, kind, "conv1")
                mid_sp = self._conv_out(spec1, spatial, i, kind, "conv1")
                if mid_sp != spatial:
                    self.emit("PV103", "error", i, kind,
                              f"conv1 maps spatial {spatial} -> {mid_sp}; a "
                              "residual block must preserve spatial shape "
                              "for the skip sum", token="conv1",
                              stride=spec1.stride)
                self._check_in_channels(spec2, spec1.out_channels, i, kind,
                                        "conv2")
                out_sp = self._conv_out(spec2, mid_sp, i, kind, "conv2")
                if out_sp != spatial:
                    self.emit("PV103", "error", i, kind,
                              f"conv2 maps spatial {mid_sp} -> {out_sp}; "
                              "must match the block input for the skip sum",
                              token="conv2")
                if spec2.out_channels != c:
                    self.emit("PV103", "error", i, kind,
                              f"conv2 emits {spec2.out_channels} channels "
                              f"but the skip carries {c} — the residual sum "
                              "would broadcast or fail", token="channels")
                b1_raw = spec1.out_bound(bound)
                b1_64 = l1a * b64 + spec1.bias_max
                if half:
                    b1 = self._site(i, kind, "conv1", b1_raw, b1_64)
                    b1_64 = min(b1_64, FP16_MAX)
                    # act1 merged with conv2's entry quantize.
                    self._site(i, kind, "act1", b1 * abs(s1),
                               b1_64 * abs(s1))
                else:
                    b1, b1_64 = b1_raw, b1_64
                self._check_requant(i, kind, "act1", s1, None, b1 * abs(s1))
                b2_raw = spec2.out_bound(b1)
                b2_64 = l1b * b1_64 + spec2.bias_max
                if half:
                    b2 = self._site(i, kind, "conv2", b2_raw, b2_64)
                    b2_64 = min(b2_64, FP16_MAX)
                else:
                    b2, b2_64 = b2_raw, b2_64
                carry = bound + b2
                carry64 = b64 + b2_64
                if half:
                    bound = self._site(i, kind, "store", carry, carry64)
                    b64 = min(carry64, FP16_MAX)
                else:
                    bound, b64 = carry, carry64
                result_exists = True

            elif kind in ("down3d", "upblock3d"):
                c, spatial, bound, b64 = self._walk_block3d(
                    i, kind, op, c, spatial, bound, b64, half)
                result_exists = True

            elif kind in _HEAD_KINDS:
                if not result_exists:
                    self.emit("PV105", "error", i, kind,
                              "output head with no preceding result-"
                              "producing stage", token="placement")
                if head_seen is None:
                    head_seen = i
                if kind == "regout":
                    offset, scale, max_exponent = op
                    bound = abs(offset) + abs(scale) * float(
                        np.exp(min(max_exponent, 700.0)))
                    b64 = bound
                else:
                    bound = b64 = 1.0

            # "identity": state unchanged.
            self.stages.append({
                "index": i, "kind": kind, "in": in_state,
                "out": {"channels": c, "spatial": spatial,
                        "bound": float(bound)},
            })

        self._final = {"channels": c, "spatial": spatial,
                       "bound": float(bound)}

    def _walk_block3d(self, i, kind, op, c, spatial, bound, b64, half):
        """Shape/bound interpretation of a down/up residual block,
        mirroring ``_block3d``'s main+skip structure."""

        main, inner, skip, s1, s2, s3, bn1, bn2, bn3, pair = op
        transposed = kind == "upblock3d"
        if transposed:
            l1m = self._check_conv_spec(main.spec, i, kind, "main")
            self._check_in_channels(main.spec, c, i, kind, "main")
            out_sp = tuple(main.out_spatial(spatial))
            main_bias = main.spec.bias_max
        else:
            l1m = self._check_conv_spec(main, i, kind, "main")
            self._check_in_channels(main, c, i, kind, "main")
            out_sp = self._conv_out(main, spatial, i, kind, "main")
            main_bias = main.bias_max
        l1i = self._check_conv_spec(inner, i, kind, "inner")
        self._check_in_channels(inner, main.out_channels, i, kind, "inner")
        inner_sp = self._conv_out(inner, out_sp, i, kind, "inner")
        if inner_sp != out_sp:
            self.emit("PV103", "error", i, kind,
                      f"inner conv maps spatial {out_sp} -> {inner_sp}; "
                      "must preserve the block's output shape for the "
                      "main+skip sum", token="inner")
        if transposed:
            l1s = self._check_conv_spec(skip.spec, i, kind, "skip")
            self._check_in_channels(skip.spec, c, i, kind, "skip")
            skip_sp = tuple(skip.out_spatial(spatial))
            skip_bias = skip.spec.bias_max
        else:
            l1s = self._check_conv_spec(skip, i, kind, "skip")
            self._check_in_channels(skip, c, i, kind, "skip")
            skip_sp = self._conv_out(skip, spatial, i, kind, "skip")
            skip_bias = skip.bias_max
        if skip_sp != out_sp:
            self.emit("PV103", "error", i, kind,
                      f"skip path spatial {skip_sp} vs main path {out_sp} — "
                      "the block sum requires equality", token="skip")
        if skip.out_channels != inner.out_channels:
            self.emit("PV103", "error", i, kind,
                      f"skip emits {skip.out_channels} channels vs main "
                      f"path {inner.out_channels}", token="channels")
        if pair is not None:
            self._check_pair(pair, main, skip, i, kind)
        for part, bn in (("bn1", bn1), ("bn2", bn2), ("bn3", bn3)):
            if bn is not None:
                self._check_bn_spec(bn, i, kind, part)
        if bn1 is not None and bn1.num_features != main.out_channels:
            self.emit("PV102", "error", i, kind,
                      f"bn1 over {bn1.num_features} features vs main conv's "
                      f"{main.out_channels} channels", token="bn1")
        for part, bn in (("bn2", bn2), ("bn3", bn3)):
            if bn is not None and bn.num_features != inner.out_channels:
                self.emit("PV102", "error", i, kind,
                          f"{part} over {bn.num_features} features vs block "
                          f"output {inner.out_channels} channels", token=part)

        # Bound chain (mirrors _block3d in half mode).
        b1_raw = main.out_bound(bound)
        b1_64 = b1_raw64 = l1m * b64 + main_bias
        if half:
            b1 = self._site(i, kind, "main", b1_raw, b1_64)
            b1_64 = min(b1_64, FP16_MAX)
            if bn1 is None:
                self._site(i, kind, "act1", b1 * abs(s1), b1_64 * abs(s1))
                b_mid, b_mid64 = b1, b1_64
            else:
                bn_b, bn_b64 = bn1.out_bound(b1), bn1.out_bound(b1_64)
                self._site(i, kind, "bn1", bn_b, bn_b64)
                b_mid = min(bn_b, FP16_MAX)
                b_mid64 = min(bn_b64, FP16_MAX)
        else:
            b1 = b1_raw
            b_mid = b1_raw if bn1 is None else bn1.out_bound(b1_raw)
            b_mid64 = b1_64 if bn1 is None else bn1.out_bound(b1_64)
        # What _block3d hands the main conv's tail as its requantize bound.
        self._check_requant(
            i, kind, "act1" if bn1 is None else "bn1", s1, bn1,
            b1 * abs(s1) if bn1 is None else bn1.out_bound(b1))
        b2_raw = inner.out_bound(b_mid)
        b2_64 = l1i * b_mid64 + inner.bias_max
        if half:
            b2 = self._site(i, kind, "inner", b2_raw, b2_64)
            b2_64 = min(b2_64, FP16_MAX)
        else:
            b2 = b2_raw
        b_l2 = b2 if bn2 is None else bn2.out_bound(b2)
        b_l2_64 = b2_64 if bn2 is None else bn2.out_bound(b2_64)
        b3_raw = skip.out_bound(bound)
        b3_64 = l1s * b64 + skip_bias
        if half:
            b3 = self._site(i, kind, "skip", b3_raw, b3_64)
            if pair is not None:
                # The stacked site's one epilogue runs on the larger bound:
                # it must clip exactly where either member's site would.
                fused = max(b1_raw, b3_raw)
                self._site(i, kind, "pair", fused, max(b1_raw64, b3_64))
                if (fused >= FP16_MAX) != (b1_raw >= FP16_MAX
                                           or b3_raw >= FP16_MAX):
                    self.emit("PV060", "error", i, kind,
                              f"pair: fused bound {fused:.6g} decides the "
                              "shared clip differently from the members' "
                              f"bounds {b1_raw:.6g} / {b3_raw:.6g}",
                              token="pair")
            b3_64 = min(b3_64, FP16_MAX)
        else:
            b3 = b3_raw
        b_l3 = b3 if bn3 is None else bn3.out_bound(b3)
        b_l3_64 = b3_64 if bn3 is None else bn3.out_bound(b3_64)
        carry = b_l2 + b_l3
        carry64 = b_l2_64 + b_l3_64
        if half:
            out_bound = self._site(i, kind, "store", carry, carry64)
            out_b64 = min(carry64, FP16_MAX)
        else:
            out_bound, out_b64 = carry, carry64
        return inner.out_channels, out_sp, out_bound, out_b64

    # -- record ---------------------------------------------------------
    def record(self) -> dict:
        for entry in getattr(self.plan, "bn_folds", []):
            self.diags.append(Diagnostic(
                pass_name="plan", rule="PV040", severity="info",
                location=self._scope(entry.get("stage"), entry.get("site")),
                scope=self._scope(entry.get("stage"), entry.get("site")),
                message=(f"bn-fold {'applied' if entry.get('folded') else 'rejected'}"
                         f": {entry.get('reason')}"),
                token="bn_fold", details=dict(entry),
            ))
        ok = not any(d.severity == "error" for d in self.diags)
        return {
            "label": self.label,
            "ok": ok,
            "out": getattr(self, "_final", None),
            "stages": self.stages,
            "clip_sites": self.clip_sites,
            "bn_folds": list(getattr(self.plan, "bn_folds", [])),
            "diagnostics": [d.as_dict() for d in self.diags],
            "diagnostic_objects": self.diags,
        }
