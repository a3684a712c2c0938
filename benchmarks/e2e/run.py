"""End-to-end + per-layer benchmark of the repo at paper geometry.

    python3 benchmarks/e2e/run.py                      # all four workloads
    python3 benchmarks/e2e/run.py --workload encode_2d --trace 0
    python3 benchmarks/e2e/run.py --smoke              # wiring only, seconds
    python3 benchmarks/e2e/run.py --report             # re-print last traces

Prints every metric as ``workload/metric value unit``, checks the outputs
and ends with one JSON object (the contract of ``BENCHMARK.json``, whose
metric names and units this driver reads).  See ``README.md`` here.

The driver generates the inputs from ``--seed`` into a temporary
directory under ``out/`` (the program under test only ever sees arrays),
then runs each workload in fresh child processes (``child.py``).
"""

import os

# Same pin as the children: the generator's numpy calls are the driver's.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import format_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("encode_2d", "encode_3d", "decode_2d", "fanin_sparse")
#: A sparse wedge keeps exactly this share of the voxels as hits (below
#: the 5 % OccupancyPolicy threshold).  An exact count, not a per-hit
#: probability, so record sizes and codec work barely move with the seed.
SPARSE_OCCUPANCY = 0.005
#: Cold children whose set-up time is sampled in one untraced run (the
#: median is reported): as many as ~5 s buy.  decode_2d compiles for ~10 s.
SETUP_SAMPLES = {"encode_2d": 3, "encode_3d": 2, "decode_2d": 1,
                 "fanin_sparse": 3}
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.2
#: Printed after the contract's metrics; not bounded, not in the JSON.
EXTRA = (("raw_wedges_per_s", "1/s"), ("raw_latency_p50_ms", "ms"),
         ("raw_latency_p90_ms", "ms"), ("raw_setup_s", "s"),
         ("host_speed", "ratio"), ("cpu_per_wall", "ratio"),
         ("ops", "count"), ("core.encode_ht_ms", "ms"),
         ("core.encode_bcae_ms", "ms"))


def generate_inputs(directory: Path, seed: int, smoke: bool) -> None:
    """One event (24 wedges) and its sparse twin, outside every timing."""

    import numpy as np

    from repro.tpc import TINY_GEOMETRY, generate_wedge_stream

    dense = generate_wedge_stream(
        24, geometry=TINY_GEOMETRY if smoke else None, seed=seed)
    rng = np.random.default_rng(seed)
    keep = round(SPARSE_OCCUPANCY * dense[0].size)
    sparse = np.zeros_like(dense)
    for wedge, thin in zip(dense, sparse):
        hits = np.flatnonzero(wedge)
        chosen = rng.choice(hits, size=keep, replace=False)
        thin.ravel()[chosen] = wedge.ravel()[chosen]
    np.save(directory / "dense.npy", dense)
    np.save(directory / "sparse.npy", sparse)


def run_child(workload: str, mode: str, data: Path, seconds: float,
              trace_out: Path | None = None) -> dict:
    """Spawn one child, wait for it, return its result object."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--mode", mode, "--data", str(data),
               "--seconds", repr(seconds),
               "--spawned-at", repr(time.monotonic())]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{workload} ({mode}) exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment(args, started: float) -> dict:
    """Stamp carried by every result file: runs from different hosts or
    settings must never be compared silently."""

    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        from threadpoolctl import threadpool_info

        blas = [{k: pool.get(k) for k in ("internal_api", "version",
                                          "num_threads")}
                for pool in threadpool_info()]
    except ImportError:
        config = np.show_config(mode="dicts")
        blas = [{"internal_api": config.get("Build Dependencies", {})
                 .get("blas", {}).get("name", "unknown"),
                 "num_threads": os.environ["OPENBLAS_NUM_THREADS"]
                 + " (environment pin)"}]
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "wall_s": time.monotonic() - started,
    }


def report() -> int:
    """Print the per-layer table of every trace file already in ``out/``."""

    traces = sorted(OUT.glob("trace-*.json"))
    for path in traces:
        trace = json.loads(path.read_text())
        print(f"== {path.name}  ({len(trace['spans'])} spans, "
              f"commit {trace['stamp']['commit'][:12]})")
        print(format_table(trace["table"]))
        for name, value in sorted(trace["metrics"].items()):
            print(f"{name} {value:.6g}")
    if not traces:
        print(f"no trace files under {OUT}", file=sys.stderr)
    return 0 if traces else 1


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the timed section of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=2,
                        help="0: end-to-end metrics (untraced); 1: per-layer "
                             "metrics (traced pass); 2: both (default)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny geometry, a handful of ops: wiring only")
    parser.add_argument("--report", action="store_true",
                        help="print the tables of out/trace-*.json and exit")
    args = parser.parse_args()
    if args.report:
        return report()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    started = time.monotonic()
    names = args.workload or list(WORKLOADS)
    wanted = ([] if args.trace == 1 else contract["end_to_end"]) + (
        [] if args.trace == 0 else contract["per_layer"])

    OUT.mkdir(exist_ok=True)
    data = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    metrics, attempted, failed = {}, 0, 0
    try:
        generate_inputs(data, args.seed, args.smoke)
        for name in names:
            timed, traced = {}, {}
            if args.trace != 1:
                timed = run_child(name, "timed", data, args.seconds)
                setups = [timed]
                if not args.smoke:
                    setups += [run_child(name, "setup", data, 0.0)
                               for _ in range(SETUP_SAMPLES[name] - 1)]
                for key in ("setup_s", "raw_setup_s"):
                    timed[key] = statistics.median(s[key] for s in setups)
            if args.trace != 0:
                trace_path = OUT / f"trace-{name}.json"
                traced = run_child(name, "traced", data, args.seconds,
                                   trace_path)
            # The untraced run's end-to-end numbers win over the traced
            # run's short baseline.
            result = {**traced, **timed}
            for key in ("ops_attempted", "ops_failed"):
                result[key] = timed.get(key, 0) + traced.get(key, 0)
            attempted += result["ops_attempted"]
            failed += result["ops_failed"]
            stamp = environment(args, started)
            if args.trace != 0:
                trace = json.loads(trace_path.read_text())
                trace_path.write_text(json.dumps({"stamp": stamp, **trace}))
            (OUT / f"result-{name}.json").write_text(json.dumps(
                {"stamp": stamp, "workload": name, **result}, indent=1))

            for metric in wanted:
                value = result[metric["name"]]
                print(f"{name}/{metric['name']} {value:.6g} {metric['unit']}")
                key = metric["name"] if len(names) == 1 \
                    else f"{name}/{metric['name']}"
                metrics[key] = {"value": value, "unit": metric["unit"]}
            for extra, unit in EXTRA:
                if extra in result:
                    print(f"{name}/{extra} {result[extra]:.6g} {unit}")
            print(f"{name}/ops_attempted {result['ops_attempted']} count")
            print(f"{name}/ops_failed {result['ops_failed']} count")
            print(f"{name}/output_sha256 {result['output_sha256']}")
            if args.trace != 0:
                print(format_table(trace["table"]))
    finally:
        shutil.rmtree(data, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
