"""Noise study: sets of runs of the unchanged code, summarised as markdown.

    python3 benchmarks/e2e/noise.py --sets 2 --runs 10 > table.md

Each run is the contract's command (``run.py --workload W --seed N
--seconds S --trace 0``) with a different seed per run, workloads
interleaved.  Per ``workload/metric`` the table gives each set's median
and quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over median) and the gap between the sets' medians in
the direction that counts as worse — the two numbers the declared bounds
in ``BENCHMARK.json`` are judged against.  ``NOISE.md`` holds the last
table taken on the recording host.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Printed by run.py beside the bounded metrics; tabulated without bound.
RAW = {"raw_wedges_per_s": ("1/s", "higher"),
       "raw_latency_p50_ms": ("ms", "lower"),
       "raw_setup_s": ("s", "lower"),
       "host_speed": ("ratio", "higher")}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in done.stdout.splitlines():  # the unbounded raw companions
        name, _, rest = line.partition(" ")
        if name.split("/")[-1] in RAW:
            values[name.split("/")[-1]] = float(rest.split()[0])
    values["run_wall_s"] = time.monotonic() - t0
    return values


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--raw", help="also dump every run's values here")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in contract["workloads"]]

    sets = []
    for index in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in range(1, args.runs + 1):
            for workload in workloads:
                runs[workload].append(one_run(workload, seed, args.seconds))
                print(f"set {index} seed {seed} {workload}: "
                      f"{runs[workload][-1]}", file=sys.stderr)
        sets.append(runs)
    if args.raw:
        Path(args.raw).write_text(json.dumps(sets))

    print("| workload/metric | unit | bound | "
          + " | ".join(f"set {i} median [q1, q3] | spread {i}"
                       for i in range(args.sets)) + " | gap |")
    print("|---|---|---|" + "---|---|" * args.sets + "---|")
    walls = []
    for workload in workloads:
        for metric in contract["end_to_end"] + [
                {"name": n, "unit": u, "better": b, "bound": None}
                for n, (u, b) in RAW.items()]:
            name, cells, medians = metric["name"], [], []
            for runs in sets:
                median, q1, q3, spread = summarise(
                    [run[name] for run in runs[workload]])
                medians.append(median)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"| {100 * spread:.2f} %")
            worse = 1 if metric["better"] == "lower" else -1
            gap = worse * (medians[-1] - medians[0]) / medians[0]
            bound = ("—" if metric["bound"] is None
                     else f"{100 * metric['bound']:g} %")
            print(f"| {workload}/{name} | {metric['unit']} "
                  f"| {bound} | " + " | ".join(cells)
                  + f" | {100 * gap:+.2f} % |")
        walls += [run["run_wall_s"] for runs in sets for run in runs[workload]]
    print(f"\nWall time of one run: median {statistics.median(walls):.1f} s, "
          f"mean {statistics.fmean(walls):.1f} s, max {max(walls):.1f} s "
          f"over {len(walls)} runs.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
