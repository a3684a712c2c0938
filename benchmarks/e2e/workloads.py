"""The four workloads, their output checks and the untraced timed section.

Every workload is a closed loop: a caller sends its next wedge only after
the previous reply.  ``encode_2d``, ``encode_3d`` and ``decode_2d`` have
one caller; ``fanin_sparse`` has two asyncio producers on one loopback
gateway.  A timed section runs for a given number of seconds and for at
least one visit of every distinct input, so ``output_sha256`` (the digest
over the first output of every input) never depends on how many ops the
section managed.

Imported by ``child.py`` only after it has pinned the BLAS threads.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core import BCAECompressor, CompressedWedges, build_model
from repro.io import load_compressed, save_compressed
from repro.rate import (
    SPARSE_CODEC_ID,
    classical_codec,
    codec_error_bound,
    decode_record_frame,
)
from repro.serve import (
    ServiceConfig,
    ServingGateway,
    StreamingCompressionService,
    read_wedge_frame,
    write_wedge_frame,
)
from repro.tpc import log_transform

OP_TIMEOUT_S = 30.0
PAPER_SPATIAL = (16, 192, 249)


class Inputs:
    """The driver's generated arrays, memory-mapped."""

    def __init__(self, directory: str) -> None:
        self.directory = Path(directory)
        self.dense = np.load(self.directory / "dense.npy", mmap_mode="r")
        self.sparse = np.load(self.directory / "sparse.npy", mmap_mode="r")


class Ledger:
    """Output check shared by every workload: an op's output must equal
    the output first produced for the same input, and an op that raises
    or takes longer than ``OP_TIMEOUT_S`` counts as failed."""

    def __init__(self, n_inputs: int) -> None:
        self.first: list[bytes | None] = [None] * n_inputs
        self.attempted = 0
        self.failed = 0

    def record(self, index: int, output: bytes | None, seconds: float) -> None:
        self.attempted += 1
        if output is None or seconds > OP_TIMEOUT_S:
            self.failed += 1
        elif self.first[index] is None:
            self.first[index] = output
        elif output != self.first[index]:
            self.failed += 1

    def require(self, ok: bool, what: str) -> None:
        """A check on an already-recorded op: a miss fails that op."""

        if not ok:
            self.failed += 1
            print(f"output check failed: {what}", file=sys.stderr)

    def sha256(self) -> str:
        """Digest over the first output of every input, in input order."""

        digest = hashlib.sha256()
        for output in self.first:
            digest.update(output or b"")
        return digest.hexdigest()


def owned(compressed: CompressedWedges) -> CompressedWedges:
    """The batch with its payload copied out of any reused buffer."""

    return dataclasses.replace(compressed, payload=bytes(compressed.payload))


def digest(array: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(array)).digest()


class Workload:
    """One caller, one ``op(i)`` per wedge.  ``setup`` ends with the
    first op's result verified and leaves ``compile_s`` (that first
    call) behind."""

    clients = 1
    warmup_ops = 3
    #: Ops each client has sent so far: a section picks up the input
    #: cycle where the previous one stopped.
    sent = 0

    async def section(self, ledger: Ledger, seconds: float, min_ops: int,
                      tracer=None) -> list:
        """Run ops for ``seconds`` and at least ``min_ops`` per client;
        returns the caller-observed latency of every op."""

        latencies = []
        deadline = time.perf_counter() + seconds
        while len(latencies) < min_ops or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            try:
                output = self.op(self.sent)
            except Exception:
                traceback.print_exc()
                output = None
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed)
            ledger.record(self.sent % self.n_inputs, output, elapsed)
            self.sent += 1
        return latencies

    async def close(self) -> None:
        pass


class Encode(Workload):
    """``compress_into`` of one dense wedge per op."""

    def __init__(self, model_name: str, inputs: Inputs) -> None:
        self.model_name = model_name
        self.dense = inputs.dense
        self.n_inputs = len(self.dense)
        self.spatial = tuple(self.dense.shape[1:])

    async def setup(self) -> None:
        self.model = build_model(self.model_name, self.spatial, seed=0)
        self.compressor = BCAECompressor(self.model)
        self.record_nbytes = 2 * int(np.prod(
            self.compressor.code_shape_for(self.spatial)))
        t0 = time.perf_counter()
        first = self.compressor.compress_into(self.dense[0][None])
        self.compile_s = time.perf_counter() - t0
        if first.n_wedges != 1 or len(first.payload) != self.record_nbytes:
            raise RuntimeError("first encode produced a malformed payload")

    def op(self, i: int) -> bytes:
        wedge = self.dense[i % self.n_inputs]
        return bytes(self.compressor.compress_into(wedge[None]).payload)

    def stored_bytes(self, ledger: Ledger) -> float:
        return statistics.fmean(len(p) for p in ledger.first if p is not None)

    def verify(self, ledger: Ledger) -> None:
        n_in, n_out = int(np.prod(self.spatial)), self.record_nbytes // 2
        ledger.require(
            self.compressor.compression_ratio(self.spatial) == n_in / n_out,
            "compression_ratio disagrees with the code shape")
        if self.spatial == PAPER_SPATIAL:
            ledger.require(
                self.record_nbytes == 49152 and n_in / n_out == 31.125,
                "paper geometry must give 49152 B at ratio 31.125")
        for i in (0, self.n_inputs - 1):
            oracle = self.compressor.compress(np.asarray(self.dense[i])[None])
            ledger.require(bytes(oracle.payload) == ledger.first[i],
                           f"wedge {i} differs from the module-graph oracle")


class Decode(Workload):
    """``load_compressed`` + ``decompress_into`` of a one-wedge archive."""

    model_name = "bcae_2d"
    # A decode takes seconds and set-up has already run one in full: no
    # further warm-up and two archives keep most of a run inside the
    # timed section.
    warmup_ops = 0

    def __init__(self, inputs: Inputs) -> None:
        self.dense = inputs.dense
        self.n_inputs = 2
        self.spatial = tuple(self.dense.shape[1:])
        self.directory = Path(tempfile.mkdtemp(dir=inputs.directory))

    async def setup(self) -> None:
        self.model = build_model(self.model_name, self.spatial, seed=0)
        self.compressor = BCAECompressor(self.model)
        self.paths = [
            save_compressed(
                owned(self.compressor.compress_into(self.dense[i][None])),
                self.directory / f"wedge-{i}.npz", self.model_name)
            for i in range(self.n_inputs)]
        compressed, _name = load_compressed(self.paths[0])
        t0 = time.perf_counter()
        recon = self.compressor.decompress_into(compressed)
        self.compile_s = time.perf_counter() - t0
        if recon.shape != (1,) + self.spatial or not np.isfinite(recon).all():
            raise RuntimeError("first decode produced a malformed wedge")

    def op(self, i: int) -> bytes:
        compressed, _name = load_compressed(self.paths[i % self.n_inputs])
        # The reply is a view of a reused workspace: consume it here.
        return digest(self.compressor.decompress_into(compressed))

    def stored_bytes(self, ledger: Ledger) -> float:
        return statistics.fmean(p.stat().st_size for p in self.paths)

    def verify(self, ledger: Ledger) -> None:
        compressed, _name = load_compressed(self.paths[0])
        ledger.require(
            digest(self.compressor.decompress(compressed)) == ledger.first[0],
            "archive 0 differs from the module-graph oracle")


class FanIn(Workload):
    """Two producers over loopback TCP against a one-shard gateway with
    the occupancy policy: every sparse wedge takes the classical route,
    so the model never runs in the timed section."""

    model_name = "bcae_2d"
    clients = 2

    def __init__(self, inputs: Inputs) -> None:
        self.dense = inputs.dense
        self.sparse = inputs.sparse
        self.n_inputs = len(self.sparse)
        self.spatial = tuple(self.sparse.shape[1:])

    async def start(self) -> None:
        self.model = build_model(self.model_name, self.spatial, seed=0)
        service = StreamingCompressionService(self.model, ServiceConfig(
            max_batch=4, max_delay_s=0.0, rate_policy="occupancy"))
        self.gateway = await ServingGateway([service]).start()

    async def setup(self) -> None:
        await self.start()
        # A real adaptive service must be ready for dense wedges: compile
        # the inner BCAE plan now, not on the first busy event.
        t0 = time.perf_counter()
        dense_id = await self.round_trip_once(self.dense[0])
        self.compile_s = time.perf_counter() - t0
        sparse_id = await self.round_trip_once(self.sparse[0])
        if dense_id != 0 or sparse_id != SPARSE_CODEC_ID:
            raise RuntimeError(
                f"routing is off: dense -> {dense_id}, sparse -> {sparse_id}")

    async def round_trip_once(self, wedge: np.ndarray) -> int:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.gateway.port)
        write_wedge_frame(writer, wedge)
        await writer.drain()
        frame = await read_wedge_frame(reader)
        await hang_up(reader, writer)
        return decode_record_frame(frame)[0]

    async def client(self, which: int, ledger: Ledger, latencies: list,
                     seconds: float, min_ops: int, tracer) -> int:
        """One producer: send a wedge, await its record frame, repeat.
        Returns how many ops it sent."""

        mine = range(which, self.n_inputs, self.clients)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.gateway.port)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            index = mine[(self.sent + i) % len(mine)]
            span = tracer.begin("serve.round_trip", op=i) if tracer else None
            t0 = time.perf_counter()
            try:
                write_wedge_frame(writer, self.sparse[index])
                await writer.drain()
                frame = await asyncio.wait_for(
                    read_wedge_frame(reader), OP_TIMEOUT_S)
                output = frame.tobytes()
            except Exception:
                traceback.print_exc()
                output = None
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            latencies.append(elapsed)
            ledger.record(index, output, elapsed)
            i += 1
            if output is None:
                break  # the session is gone; its remaining ops never ran
        ledger.require(await hang_up(reader, writer),
                       f"client {which}: responses != frames sent")
        return i

    async def section(self, ledger: Ledger, seconds: float, min_ops: int,
                      tracer=None) -> list:
        latencies: list = []
        sent = await asyncio.gather(*[
            self.client(which, ledger, latencies, seconds, min_ops, tracer)
            for which in range(self.clients)])
        self.sent += min(sent)
        return latencies

    def stored_bytes(self, ledger: Ledger) -> float:
        return statistics.fmean(
            len(decode_record_frame(np.frombuffer(f, dtype=np.uint8))[2])
            for f in ledger.first if f is not None)

    def verify(self, ledger: Ledger) -> None:
        codec = classical_codec(SPARSE_CODEC_ID)
        bound = codec_error_bound(SPARSE_CODEC_ID)
        for i, frame in enumerate(ledger.first):
            if frame is None:
                continue
            codec_id, _decision, record = decode_record_frame(
                np.frombuffer(frame, dtype=np.uint8))
            if codec_id != SPARSE_CODEC_ID:
                ledger.require(False, f"wedge {i} took codec {codec_id}")
                continue
            want = log_transform(np.asarray(self.sparse[i]))
            got = codec.decompress(record)
            # The quantizer documents the bound plus one float32 ulp.
            ledger.require(
                got.shape == want.shape
                and not got[want == 0].any()
                and float(np.abs(got - want).max()) <= bound * (1 + 1e-5),
                f"wedge {i} is outside the sparse codec's error bound")

    async def close(self) -> None:
        await self.gateway.drain()
        await self.gateway.aclose()


async def hang_up(reader, writer) -> bool:
    """Half-close and expect a clean EOF (responses == frames sent)."""

    writer.write_eof()
    clean = await read_wedge_frame(reader) is None
    writer.close()
    await writer.wait_closed()
    return clean


def make_workload(name: str, inputs: Inputs) -> Workload:
    if name == "encode_2d":
        return Encode("bcae_2d", inputs)
    if name == "encode_3d":
        return Encode("bcae_pp", inputs)
    if name == "decode_2d":
        return Decode(inputs)
    if name == "fanin_sparse":
        return FanIn(inputs)
    raise SystemExit(f"unknown workload {name!r}")


class HostReference:
    """A fixed numpy kernel timed beside the workload: how fast is the
    host *right now*.

    This host is two shared cores whose effective speed drifts by ±20 %
    over minutes (NOISE.md), which no statistic of one run can average
    out.  The kernel has the engine's mix — eight panel-shaped sgemms
    and an im2col-like gather of nine shifted copies of a padded wedge —
    so the neighbours slow it down about as much as they slow the
    workload; timing metrics are reported as if the host ran it in
    ``NOMINAL_MS`` (the raw values stay available as ``bench.raw_*``).
    """

    NOMINAL_MS = 15.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((2048, 784), dtype=np.float32)
        self.b = rng.standard_normal((784, 32), dtype=np.float32)
        self.c = np.empty((2048, 32), dtype=np.float32)
        self.volume = rng.standard_normal((16, 192, 256), dtype=np.float32)
        self.gathered = np.empty((9, 16, 190, 254), dtype=np.float32)
        self.sample()  # first touch of the buffers

    def sample(self) -> float:
        """Median milliseconds of three runs of the kernel."""

        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(8):
                np.matmul(self.a, self.b, out=self.c)
            for k in range(9):
                dy, dx = divmod(k, 3)
                np.copyto(self.gathered[k],
                          self.volume[:, dy:dy + 190, dx:dx + 254])
            times.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(times)

    def speed(self) -> float:
        """Host speed relative to nominal (< 1: slower than nominal)."""

        return self.NOMINAL_MS / self.sample()


#: The timed section is cut into slices of at most this many seconds (and
#: at least four of them), each bracketed by two samples of the host
#: reference.
SLICE_S = 1.0


async def untraced_section(workload: Workload, ledger: Ledger,
                           seconds: float, host: HostReference) -> dict:
    """Warm-up, then the timed section with the collector off: slices
    of ops until ``seconds`` have passed and every input was visited."""

    warm = Ledger(workload.n_inputs)
    await workload.section(warm, 0.0, workload.warmup_ops)
    ledger.attempted += warm.attempted
    ledger.failed += warm.failed
    first = workload.sent
    visit_all = workload.n_inputs // workload.clients
    gc.collect()
    gc.disable()
    cpu0, t0 = time.process_time(), time.perf_counter()
    latencies, speeds, rates, busy = [], [], [], 0.0
    before = host.speed()
    while (time.perf_counter() - t0 < seconds
           or workload.sent - first < visit_all):
        s0 = time.perf_counter()
        batch = await workload.section(
            ledger, min(SLICE_S, seconds / 4), 1)
        wall = time.perf_counter() - s0
        after = host.speed()
        speed = (before + after) / 2
        before = after
        busy += wall
        latencies += batch
        speeds += [speed] * len(batch)
        rates.append(len(batch) / wall / speed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    gc.enable()
    latencies = np.array(latencies)
    return {
        "ops": len(latencies),
        "wall_s": wall,
        "wedges_per_s": statistics.median(rates),
        "latency_p50_ms": 1e3 * float(np.median(latencies * speeds)),
        "raw_wedges_per_s": len(latencies) / busy,
        "raw_latency_p50_ms": 1e3 * float(np.median(latencies)),
        "raw_latency_p90_ms": 1e3 * float(np.quantile(latencies, 0.9)),
        "host_speed": statistics.median(speeds),
        "cpu_per_wall": cpu / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process image (``VmHWM``).  Not
    ``ru_maxrss``: that mark survives ``exec``, so a child would report
    the peak of the driver that spawned it whenever that is larger."""

    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")
