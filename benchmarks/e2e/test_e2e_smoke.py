"""Wiring self-test of the benchmark: ``run.py --smoke`` on every workload
(tiny geometry, a handful of ops; numbers are never recorded) and the
output checks themselves."""

import asyncio
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def start(*flags):
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(process):
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def sha_lines(lines):
    return {line.split("/")[0]: line.split()[1]
            for line in lines if "/output_sha256 " in line}


def test_smoke_prints_every_end_to_end_metric_and_repeats_its_outputs():
    # Three drivers side by side: smoke numbers are wiring, not timings.
    runs = [start("--trace", "0", "--seed", "0"),
            start("--trace", "0", "--seed", "0"),
            start("--trace", "0", "--seed", "1", "--workload", "encode_2d")]
    (first, summary), (again, _), (other, _) = map(finish, runs)

    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in CONTRACT["end_to_end"]:
            pattern = (rf"^{workload}/{re.escape(metric['name'])} "
                       rf"\S+ {re.escape(metric['unit'])}$")
            assert any(re.match(pattern, line) for line in first), pattern
            value = summary["metrics"][f"{workload}/{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0
        assert f"{workload}/ops_failed 0 count" in first

    assert set(sha_lines(first)) == set(WORKLOADS)
    assert sha_lines(first) == sha_lines(again)
    assert sha_lines(other)["encode_2d"] != sha_lines(first)["encode_2d"]


def test_smoke_traced_pass_prints_every_per_layer_metric_and_reports():
    lines, summary = finish(
        start("--trace", "1", "--workload", "fanin_sparse"))
    assert summary["correct"]
    assert set(summary["metrics"]) == {m["name"]
                                       for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["per_layer"]:
        assert any(line.startswith(f"fanin_sparse/{metric['name']} ")
                   and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]

    trace = json.loads((HERE / "out" / "trace-fanin_sparse.json").read_text())
    assert {"commit", "nproc", "cpu", "python", "numpy", "blas", "seed",
            "seconds", "wall_s"} <= set(trace["stamp"])
    assert any(s["name"] == "serve.round_trip" for s in trace["spans"])
    report = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--report"],
        capture_output=True, text=True, timeout=60)
    assert report.returncode == 0
    assert "trace-fanin_sparse.json" in report.stdout
    assert "serve.round_trip" in report.stdout


def test_a_corrupted_payload_counts_as_a_failed_op():
    pytest.importorskip("repro")
    from repro.tpc import TINY_GEOMETRY, generate_wedge_stream

    from workloads import Encode, Ledger

    dense = generate_wedge_stream(2, geometry=TINY_GEOMETRY, seed=0)
    workload = Encode("bcae_2d", types.SimpleNamespace(dense=dense))
    ledger = Ledger(workload.n_inputs)
    asyncio.run(workload.setup())
    asyncio.run(workload.section(ledger, 0.0, 2 * workload.n_inputs))
    workload.verify(ledger)
    assert (ledger.attempted, ledger.failed) == (4, 0)

    good = workload.op(0)
    corrupted = bytes([good[0] ^ 0x01]) + good[1:]
    ledger.record(0, corrupted, 0.0)          # differs from the first output
    assert ledger.failed == 1
    ledger.record(0, good, 31.0)              # right bytes, past the timeout
    ledger.record(0, None, 0.0)               # the op raised
    assert ledger.failed == 3

    ledger.first[1] = corrupted               # the oracle check catches it
    workload.verify(ledger)
    assert ledger.failed == 4
