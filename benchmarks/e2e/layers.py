"""The traced pass: spans around every call into a layer of ``repro``.

All per-layer numbers come from here; all end-to-end numbers come from
the untraced section.  A traced run first takes a short untraced
baseline (for ``bench.trace_overhead_pct`` and the ``bench.raw_*`` values),
then replays the workload's op from outside, layer by layer, under a
:class:`tracing.Tracer`.

The contract wants the same per-layer metric set on every workload, so a
traced run probes *every* layer: the layers inside the workload's own op
get most of the time, the others ``PROBE_OPS`` ops each.  ``core.*`` is
direction-neutral for the same reason: it describes the decoder plans on
``decode_2d`` and the encoder plan everywhere else (on ``fanin_sparse``
the encoder never runs in the timed op; its numbers there are a probe).
"""

from __future__ import annotations

import asyncio
import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import (
    BCAECompressor,
    build_model,
    make_fast_decoder,
    make_fast_encoder,
)
from repro.io import (
    concat_compressed,
    load_compressed,
    save_compressed,
    split_compressed,
)
from repro.perf import trace_encoder, trace_model
from repro.rate import (
    SPARSE_CODEC_ID,
    AdaptiveCompressor,
    classical_codec,
    decode_record_frame,
    encode_record_frames,
    make_policy,
    wedge_features,
)
from repro.serve import (
    ServiceConfig,
    StreamingCompressionService,
    read_wedge_frame,
    write_wedge_frame,
)
from repro.tpc import log_transform, pad_horizontal, padded_length

from tracing import Tracer, layer_table
from workloads import Decode, Encode, FanIn, Ledger, owned, untraced_section

#: Ops given to a layer that is outside the workload's own op (and to the
#: two models that have no end-to-end workload, on encode_3d).
PROBE_OPS = 3
#: Share of ``--seconds`` spent on the untraced baseline / the replay.
BASELINE_SHARE, REPLAY_SHARE = 0.3, 0.6


class Probes:
    """Outside-in replays of each layer, every call in a span."""

    def __init__(self, tracer: Tracer, workload, inputs) -> None:
        self.tracer = tracer
        self.workload = workload
        self.model = workload.model
        self.inputs = inputs
        self.dense = inputs.dense
        self.sparse = inputs.sparse
        self.spatial = tuple(self.dense.shape[1:])
        self.directory = Path(tempfile.mkdtemp(dir=inputs.directory))
        # fanin_sparse owns no compressor (its service does): build one.
        self.compressor = getattr(workload, "compressor",
                                  None) or BCAECompressor(self.model)
        self.record_nbytes = 2 * int(np.prod(
            self.compressor.code_shape_for(self.spatial)))
        encoder = self.model.encoder
        self.target = (int(encoder.spatial[-1]) if hasattr(encoder, "spatial")
                       else padded_length(self.spatial[-1], 2 ** encoder.d))
        #: What the network consumes: the wedge padded 249 -> 256.
        self.network_shape = self.spatial[:2] + (self.target,)
        self.policy = make_policy("occupancy")
        self.adaptive = AdaptiveCompressor(
            BCAECompressor(self.model), self.policy)
        self.codec = classical_codec(SPARSE_CODEC_ID)
        self.sparse_records: list[int] = []
        self.sparse_routed: list[bool] = []
        self.archive_bytes = 0

    # -- core, encode direction ------------------------------------------
    def encode_op(self, op: int) -> None:
        wedge = self.dense[op % len(self.dense)]
        if not hasattr(self, "encoder"):
            # Both plans compile on their first call: keep that out of
            # the spans.
            self.encoder = make_fast_encoder(self.model)
            self.encoder.encode(
                pad_horizontal(log_transform(wedge[None]), self.target))
            self.compressor.compress_into(wedge[None])
        span = self.tracer.span
        with span("bench.op", op=op):
            with span("tpc.log_transform"):
                x = pad_horizontal(log_transform(wedge[None]), self.target)
            with span("core.plan"):
                self.encoder.encode(x)
            with span("core.call"):
                self.payload = owned(self.compressor.compress_into(wedge[None]))

    # -- core, decode direction ------------------------------------------
    def decode_op(self, op: int) -> None:
        path = self.workload.paths[op % len(self.workload.paths)]
        if not hasattr(self, "decoder"):
            self.decoder = make_fast_decoder(self.model)
            self.decoder.decode(load_compressed(path)[0].codes_view())
        span = self.tracer.span
        with span("bench.op", op=op):
            with span("io.load"):
                self.payload, _name = load_compressed(path)
            with span("core.plan"):
                self.decoder.decode(self.payload.codes_view())
            with span("core.call"):
                self.compressor.decompress_into(self.payload)

    def tpc_op(self, op: int) -> None:
        with self.tracer.span("tpc.log_transform", op=op):
            pad_horizontal(log_transform(self.dense[op][None]), self.target)

    # -- io ----------------------------------------------------------------
    def io_op(self, op: int) -> None:
        span = self.tracer.span
        with span("io.save", op=op):
            path = save_compressed(self.payload,
                                   self.directory / f"probe-{op}.npz",
                                   self.workload.model_name)
        with span("io.load", op=op):
            loaded, _name = load_compressed(path)
        with span("io.concat", op=op):
            pair = concat_compressed([loaded, self.payload])
        with span("io.split", op=op):
            list(split_compressed(pair, 1))
        self.archive_bytes = path.stat().st_size

    # -- rate + baselines.sparse -------------------------------------------
    def rate_op(self, op: int) -> None:
        wedge = self.sparse[op % len(self.sparse)]
        span = self.tracer.span
        with span("rate.op", op=op):
            with span("rate.features"):
                wedge_features(wedge)
            with span("rate.select"):  # computes the features again itself
                self.policy.select(wedge, self.record_nbytes)
            with span("tpc.log_sparse"):
                logged = log_transform(wedge)
            with span("baselines.sparse_compress"):
                record = self.codec.compress(logged)
            with span("baselines.sparse_decompress"):
                self.codec.decompress(record)
            with span("rate.call"):
                compressed = self.adaptive.compress_into(wedge[None])
            with span("rate.frame"):
                for frame in encode_record_frames(compressed):
                    decode_record_frame(frame)
        self.sparse_records.append(len(record))
        self.sparse_routed.append(compressed.codec_ids[0] == SPARSE_CODEC_ID)

    # -- serve -------------------------------------------------------------
    async def frame_ops(self, n_ops: int) -> None:
        """One dense wedge frame over a bare loopback pair, no gateway."""

        tracer, wedge = self.tracer, self.dense[0]
        go, done = asyncio.Event(), asyncio.Event()

        async def receive(reader, writer):
            for op in range(n_ops):
                await go.wait()
                go.clear()
                span = tracer.begin("serve.frame_read", op=op)
                await read_wedge_frame(reader)
                tracer.end(span)
                done.set()
            writer.close()

        server = await asyncio.start_server(receive, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        for op in range(n_ops):
            go.set()
            span = tracer.begin("serve.frame_write", op=op)
            write_wedge_frame(writer, wedge)
            await writer.drain()
            tracer.end(span)
            await done.wait()
            done.clear()
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    async def gateway_session(self, seconds: float, min_ops: int) -> dict:
        """Traced producers against the gateway; returns its counters."""

        fan = self.workload
        if not isinstance(fan, FanIn):
            fan = FanIn(self.inputs)
            await fan.start()
        ledger = Ledger(fan.n_inputs)
        t0 = time.perf_counter()
        latencies = await fan.section(ledger, seconds, min_ops, self.tracer)
        wall = time.perf_counter() - t0
        stats = fan.gateway.stats()
        faults = stats.faults
        if fan is not self.workload:
            await fan.close()
        return {
            "wedges_per_s": len(latencies) / wall,
            "failed": ledger.failed,
            "serve.batch_size_mean": stats.n_wedges / max(stats.n_units, 1),
            "serve.retries": faults.retries,
            "serve.failures": faults.failures,
            "serve.shm_fallbacks": faults.shm_fallbacks,
            "serve.rerouted": stats.rerouted,
        }

    def inline_run(self) -> dict:
        """The same service without sockets: splits service from gateway.
        ``BatchRecord.compress_s`` is the only place the compressor call
        inside the service is timed (the gateway keeps no records)."""

        service = StreamingCompressionService(self.model, ServiceConfig(
            max_batch=4, max_delay_s=0.0, rate_policy="occupancy"))
        wedges = np.asarray(self.sparse)
        service.run(wedges[:4])  # the service's first batch builds its tier
        with self.tracer.span("serve.inline"):
            _payloads, stats = service.run(wedges)
        return {
            "serve.inline_ms": 1e3 * stats.elapsed_s / stats.n_wedges,
            "serve.compute_ms": 1e3 * statistics.median(
                r.compress_s / r.n_wedges for r in stats.records),
        }


def repeat(fn, seconds: float, min_ops: int) -> None:
    deadline = time.perf_counter() + seconds
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        fn(op)
        op += 1


def plan_counters(plans) -> dict:
    """Static counters of the compiled plans after a run (exact)."""

    stats = [plan.plan_stats() for plan in plans]
    sites = [site for s in stats for site in s["gemms"].values()]
    return {
        "core.stages": sum(sum(s["stage_kinds"].values()) for s in stats),
        "core.gemm_sites": len(sites),
        "core.gemm_blocked_sites": sum(
            site["formulation"].startswith("blocked") for site in sites),
        "core.bn_folded": sum(s["bn_folds"]["folded"] for s in stats),
        # The decoder heads share one workspace: count it once.
        "core.workspace_mb": max(s["workspace_bytes"] for s in stats) / 2**20,
    }


def extra_models(tracer: Tracer, dense, spatial) -> None:
    """BCAE-HT and the original BCAE have no end-to-end workload; time a
    few encodes so that they are at least visible (printed, not bounded)."""

    for name in ("bcae_ht", "bcae"):
        compressor = BCAECompressor(build_model(name, spatial, seed=0))
        compressor.compress_into(dense[0][None])
        for op in range(PROBE_OPS):
            with tracer.span(f"core.encode_{name}", op=op):
                compressor.compress_into(dense[op][None])


async def traced_run(workload, ledger: Ledger, inputs, seconds: float,
                     host, trace_out: str | None, cold: dict) -> dict:
    """Baseline + traced pass of one workload; returns the child's result
    fields (the per-layer metrics are the dotted names)."""

    baseline = await untraced_section(
        workload, ledger, BASELINE_SHARE * seconds, host)
    untraced_ms = baseline["raw_latency_p50_ms"]  # spans are raw time too
    tracer = Tracer()
    probes = Probes(tracer, workload, inputs)
    replay = REPLAY_SHARE * seconds
    decode = isinstance(workload, Decode)
    fanin = isinstance(workload, FanIn)
    own_op = isinstance(workload, (Encode, Decode))

    # The direction group first: it leaves the payload the io probe saves.
    core_op = probes.decode_op if decode else probes.encode_op
    repeat(core_op, replay if own_op else 0.0, 2 if own_op else PROBE_OPS)
    if decode:
        repeat(probes.tpc_op, 0.0, PROBE_OPS)
    repeat(probes.io_op, 0.0, PROBE_OPS)
    repeat(probes.rate_op, replay / 2 if fanin else 0.0, PROBE_OPS)
    await probes.frame_ops(PROBE_OPS)
    gateway = await probes.gateway_session(
        replay / 2 if fanin else 0.0, 10 * PROBE_OPS)
    ledger.failed += gateway.pop("failed")
    gateway_wps = gateway.pop("wedges_per_s")
    metrics = dict(gateway)
    metrics.update(probes.inline_run())

    with_extras = workload.model_name == "bcae_pp"
    if with_extras:
        extra_models(tracer, probes.dense, probes.spatial)
    table = layer_table(tracer.spans)
    ms = {row["name"]: row["median_ms"] for row in table}.__getitem__
    extras = {"core.encode_ht_ms": ms("core.encode_bcae_ht"),
              "core.encode_bcae_ms": ms("core.encode_bcae")
              } if with_extras else {}

    encoder_flops = trace_encoder(
        workload.model, probes.network_shape).total_flops
    if decode:
        plans = probes.decoder.plans.values()
        flops = trace_model(
            workload.model, probes.network_shape).total_flops - encoder_flops
        replayed = ms("io.load") + ms("core.plan")
        core_self = ms("core.call") - ms("core.plan")
        traced_op = ms("io.load") + ms("core.call")
    else:
        plans = [probes.encoder.plan]
        flops = encoder_flops
        replayed = ms("tpc.log_transform") + ms("core.plan")
        core_self = ms("core.call") - replayed
        traced_op = ms("core.call")
    # Replay against the real call of the same traced ops, not against the
    # untraced baseline: the host changes speed between the two passes.
    replay_gap = replayed / traced_op - 1
    if fanin:
        # What the outside-in replay of the rate layer says one wedge
        # costs against what the service measured inside itself, and the
        # producers' round trip with and without spans around it.
        replay_gap = ms("rate.call") / metrics["serve.compute_ms"] - 1
        traced_op = ms("serve.round_trip")

    metrics.update(plan_counters(plans))
    metrics.update({
        "tpc.log_transform_ms": ms("tpc.log_transform"),
        "core.plan_ms": ms("core.plan"),
        "core.self_ms": core_self,
        "core.compile_s": cold["compile_s"],
        "core.gflop_per_wedge": flops / 1e9,
        "core.achieved_gflops": flops / 1e6 / ms("core.plan"),
        "io.save_ms": ms("io.save"),
        "io.load_ms": ms("io.load"),
        "io.split_ms": ms("io.split"),
        "io.concat_ms": ms("io.concat"),
        "io.archive_bytes": probes.archive_bytes,
        "rate.features_ms": ms("rate.features"),
        "rate.select_ms": ms("rate.select"),
        "rate.adaptive_self_ms": ms("rate.call") - ms("rate.select")
        - ms("tpc.log_sparse") - ms("baselines.sparse_compress"),
        "rate.frame_ms": ms("rate.frame"),
        "rate.sparse_route_share": statistics.fmean(probes.sparse_routed),
        "baselines.sparse_compress_ms": ms("baselines.sparse_compress"),
        "baselines.sparse_decompress_ms": ms("baselines.sparse_decompress"),
        "baselines.sparse_bytes": statistics.fmean(probes.sparse_records),
        "serve.frame_write_ms": ms("serve.frame_write"),
        "serve.frame_read_ms": ms("serve.frame_read"),
        "serve.overhead_ms": 1e3 / gateway_wps - metrics["serve.compute_ms"],
        "bench.import_s": cold["import_s"],
        "bench.replay_gap_pct": 100 * replay_gap,
        "bench.trace_overhead_pct": 100 * (traced_op / untraced_ms - 1),
        "bench.cpu_per_wall": baseline["cpu_per_wall"],
        "bench.host_speed": baseline["host_speed"],
        "bench.raw_wedges_per_s": baseline["raw_wedges_per_s"],
        "bench.raw_latency_p50_ms": untraced_ms,
        "bench.raw_latency_p90_ms": baseline["raw_latency_p90_ms"],
        "bench.raw_setup_s": cold["raw_setup_s"],
    })
    if trace_out:
        Path(trace_out).write_text(json.dumps({
            "workload_ops_untraced": baseline["ops"],
            "metrics": {**metrics, **extras},
            "table": table,
            "spans": tracer.spans,
        }))
    return {**baseline, **metrics, **extras}
