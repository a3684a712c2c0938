"""One workload in one fresh process (spawned by ``run.py``).

A fresh process per workload makes ``setup_s`` a true cold start (the
calibration-probe cache of the compiled plans is process-global, so a
second set-up in the same process is several times cheaper and says
nothing) and makes ``peak_rss_mb`` belong to one workload.

Modes: ``setup`` stops after the first verified op (a set-up sample);
``timed`` adds warm-up, the untraced timed section and the output checks;
``traced`` runs a short untraced baseline and the traced pass instead.
The result is one JSON object on the last line of standard output.
"""

import os

# One compute thread per worker is the deployment shape on a 2-core host:
# a second BLAS thread doubles cpu/wall for no throughput.  Must precede
# the numpy import; REPRO_PANEL_THREADS stays unset (plan default, 1).
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ.pop("REPRO_PANEL_THREADS", None)

import argparse
import asyncio
import json
import statistics
import sys
import time

_T0 = time.perf_counter()
import numpy  # noqa: F401  (timed: bench.import_s)
import repro.core, repro.io, repro.perf, repro.rate, repro.serve, repro.tpc  # noqa: E401,F401

IMPORT_S = time.perf_counter() - _T0

import layers
import workloads


async def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--data", required=True,
                        help="directory holding dense.npy and sparse.npy")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the driver's time.monotonic() before the spawn")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    inputs = workloads.Inputs(args.data)
    workload = workloads.make_workload(args.workload, inputs)
    await workload.setup()
    # CLOCK_MONOTONIC is system-wide on Linux, so the driver's stamp and
    # this one share an epoch: interpreter start-up is inside setup_s.
    raw_setup_s = time.monotonic() - args.spawned_at
    host = workloads.HostReference()
    speed = statistics.median(host.speed() for _ in range(5))
    result = {"setup_s": raw_setup_s * speed,
              "raw_setup_s": raw_setup_s,
              "import_s": IMPORT_S, "compile_s": workload.compile_s}

    if args.mode != "setup":
        ledger = workloads.Ledger(workload.n_inputs)
        if args.mode == "timed":
            result.update(await workloads.untraced_section(
                workload, ledger, args.seconds, host))
        else:
            result.update(await layers.traced_run(
                workload, ledger, inputs, args.seconds, host,
                args.trace_out, dict(result)))
        workload.verify(ledger)
        result.update(
            bytes_per_wedge=workload.stored_bytes(ledger),
            ops_attempted=ledger.attempted, ops_failed=ledger.failed,
            output_sha256=ledger.sha256())
    await workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
