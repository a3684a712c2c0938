"""Decode bench — compiled fast decode vs the module-graph analysis loop.

The paper's loop is bicephalous end to end: payloads written by the
counting house must be decompressed offline at comparable throughput.  This
bench measures the analysis-side fast path — both decoder heads and the
masked combine compiled by the stage-plan engine
(:class:`repro.core.FastDecoder` — one wrapper, radial axis = channel or
spatial),
served via ``BCAECompressor.decompress_into`` and
:class:`repro.serve.DecompressionService` — against the naive loop an
analysis user would write: one module-graph ``decompress`` call per
archived single-wedge payload.

Acceptance gates:

* the best fast configuration sustains **≥ 2×** the module-graph loop's
  wedges/s on the paper-default BCAE-2D(m=4, n=8, d=3) at tiny geometry,
  on the 3D BCAE-HT at paper-scale geometry ``(16, 192, 249)`` — the
  regime where the blocked im2col gathers carry the win — **and** on the
  original BCAE at paper-scale geometry, whose eval-mode BatchNorm stacks
  run the compiled fold/affine stages instead of the module graph
  (measured ~6×);
* reconstructions are **bit-identical** to the module-graph path for every
  payload, in every configuration;
* **thread scaling** — the same archive decoded at panel widths
  1/2/4 yields byte-identical reconstructions at every width, and on
  hosts with ≥ 4 cores the widest configuration sustains **≥ 1.5×**
  single-thread throughput (the scaling gate is informational on smaller
  boxes — a 1-core container cannot demonstrate parallel speedup).

Every run (including ``--smoke``) appends a machine-readable entry to the
``BENCH_decode.json`` trajectory (model, wedge shape, backend, wedges/s,
speedup) so future PRs can diff perf against prior runs.

Timings are best-of-N on both sides.  Runs under pytest (tier-2 bench
suite) and as a script::

    python benchmarks/bench_decode.py [--smoke] [--model NAME] [--paper]

``--smoke`` shrinks the stream and relaxes the speed gate (CI exercises the
round-trip wiring on busy shared runners; the 2× claim is the bench's).
``--model bcae_ht --paper`` runs one 3D paper-scale section only — the CI
smoke invocation for the 3D fast path.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

_N_WEDGES = 24
_N_WEDGES_PAPER = 4
_REPEATS = 3
_THREAD_COUNTS = (1, 2, 4)
#: Trajectory depth: runs kept in BENCH_decode.json before the oldest drop.
_MAX_RUNS = 20

_BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_decode.json"


def _stream(n, paper=False, seed=7):
    from repro.tpc import PAPER_GEOMETRY, TINY_GEOMETRY, generate_wedge_stream

    geometry = PAPER_GEOMETRY if paper else TINY_GEOMETRY
    return generate_wedge_stream(n, geometry=geometry, seed=seed)


def _best_of_interleaved(fns, repeats=_REPEATS):
    """Best-of timings for several callables, rounds interleaved.

    Interleaving keeps the comparison fair on shared/throttling boxes:
    every contender samples the same machine states instead of one side
    monopolizing the warm (or noisy) phase.
    """

    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def measure(model_name="bcae_2d", n_wedges=_N_WEDGES, repeats=_REPEATS,
            paper=False, model_kwargs=None):
    """Run the decode comparison for one model/geometry; returns a section.

    The section dict carries the module-graph baseline and one row per fast
    configuration (``backend``, wedges/s, speedup, bit-identity flag).
    """

    from repro.core import BCAECompressor, build_model
    from repro.serve import DecompressionService, ServiceConfig

    wedges = _stream(n_wedges, paper=paper)
    model_kwargs = model_kwargs or (
        dict(m=4, n=8, d=3) if model_name == "bcae_2d" else {}
    )
    model = build_model(model_name, wedge_spatial=wedges.shape[1:], seed=0,
                        **model_kwargs)
    # Inference mode: the original BCAE's BatchNorm must decode from
    # running statistics — also what puts it on the compiled engine.
    model.eval()
    compressor = BCAECompressor(model)

    # The archive: one payload per wedge, as a DAQ stream would write them.
    payloads = [compressor.compress(w) for w in wedges]
    reference = [compressor.decompress(c) for c in payloads]
    ref_bytes = b"".join(np.ascontiguousarray(r).tobytes() for r in reference)

    # Parity first (bit-exact), then interleaved timing rounds.
    fast = BCAECompressor(model)
    fast.decompress_into(payloads[0])  # compile + calibrate + warm workspaces
    into_identical = b"".join(
        np.ascontiguousarray(fast.decompress_into(c)).tobytes() for c in payloads
    ) == ref_bytes

    service = DecompressionService(model, ServiceConfig(max_batch=1))
    recons, _stats = service.run(payloads)
    svc_identical = b"".join(r.tobytes() for r in recons) == ref_bytes

    serial_s, into_s, svc_s = _best_of_interleaved(
        [
            lambda: [compressor.decompress(c) for c in payloads],
            lambda: [fast.decompress_into(c) for c in payloads],
            lambda: service.run(payloads, keep_recons=False),
        ],
        repeats,
    )
    serial_wps = len(wedges) / serial_s
    rows = [
        ("decompress_into", len(wedges) / into_s, into_identical),
        ("service inline", len(wedges) / svc_s, svc_identical),
    ]
    return {
        "model": model_name,
        "wedge_shape": list(wedges.shape[1:]),
        "paper_scale": bool(paper),
        "n_wedges": len(wedges),
        "module_graph_wps": serial_wps,
        "rows": [
            {
                "backend": label,
                "wedges_per_second": wps,
                "speedup_vs_module_graph": wps / serial_wps,
                "bit_identical": bool(identical),
            }
            for label, wps, identical in rows
        ],
    }


def measure_threaded(model_name="bcae_ht", n_wedges=_N_WEDGES_PAPER,
                     repeats=_REPEATS, paper=True):
    """Thread-scaling section: one archive, decoded at each panel width.

    Byte-identical reconstructions across widths are an acceptance gate on
    every host (the slot-parallel executor's determinism contract); the
    ≥ 1.5× scaling gate only applies where ≥ 4 cores exist to scale onto.
    """

    import repro.core.fast_plan as fast_plan
    from repro.core import BCAECompressor, build_model

    wedges = _stream(n_wedges, paper=paper)
    model = build_model(model_name, wedge_spatial=wedges.shape[1:], seed=0)
    model.eval()
    comps = {t: BCAECompressor(model) for t in _THREAD_COUNTS}
    payloads = [comps[1].compress(w) for w in wedges]

    digests = {}
    for t, comp in comps.items():
        # The width is derived from the host; the private hook fixes it
        # while the plans compile (on this first call) so every host
        # sweeps the same widths.
        fast_plan._FORCED_WIDTH = t
        try:
            comp.decompress_into(payloads[0])  # compile + warm workspaces
        finally:
            fast_plan._FORCED_WIDTH = None
        digests[t] = b"".join(
            np.ascontiguousarray(comp.decompress_into(c)).tobytes()
            for c in payloads
        )
    times = _best_of_interleaved(
        [lambda c=c: [c.decompress_into(p) for p in payloads]
         for c in comps.values()],
        repeats,
    )
    wps = {t: len(wedges) / s for t, s in zip(comps, times)}
    return {
        "kind": "threaded",
        "model": model_name,
        "wedge_shape": list(wedges.shape[1:]),
        "paper_scale": bool(paper),
        "n_wedges": len(wedges),
        "cpu_count": os.cpu_count(),
        "scaling_gated": (os.cpu_count() or 1) >= 4,
        "rows": [
            {
                "panel_width": t,
                "wedges_per_second": wps[t],
                "speedup_vs_single_thread": wps[t] / wps[1],
                "bit_identical": digests[t] == digests[1],
            }
            for t in _THREAD_COUNTS
        ],
    }


def write_bench_json(sections, smoke, path=_BENCH_JSON, label=None):
    """Append one run to the perf-trajectory record future PRs diff against.

    The file keeps the last :data:`_MAX_RUNS` runs under ``"runs"`` so a
    reviewer can read pre/post numbers side by side; a pre-trajectory
    single-run file is absorbed as the first entry.
    """

    run = {"smoke": bool(smoke), "sections": sections}
    if label:
        run["label"] = label
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        doc = None
    if isinstance(doc, dict) and isinstance(doc.get("runs"), list):
        runs = doc["runs"]
    elif isinstance(doc, dict) and "sections" in doc:
        runs = [{"smoke": doc.get("smoke", False),
                 "sections": doc["sections"]}]
    else:
        runs = []
    runs = (runs + [run])[-_MAX_RUNS:]
    path.write_text(json.dumps(
        {"benchmark": "bench_decode", "runs": runs}, indent=2) + "\n")
    return path


def _report_lines(section):
    kind = section.get("kind", "decode")
    geom = (f"{'paper-scale' if section['paper_scale'] else 'tiny'} "
            f"geometry {tuple(section['wedge_shape'])}")
    yield ""
    if kind == "threaded":
        yield (f"Decode thread scaling — {section['model']} at {geom} "
               f"({section['cpu_count']} core(s); scaling gate "
               f"{'ON' if section['scaling_gated'] else 'informational'})")
        for row in section["rows"]:
            yield (f"    panel_width={row['panel_width']}: "
                   f"{row['wedges_per_second']:7.2f} w/s  "
                   f"{row['speedup_vs_single_thread']:.2f}x single-thread  "
                   f"recon {'identical' if row['bit_identical'] else 'MISMATCH'}")
        return
    yield f"Decode — {section['model']} at {geom}"
    yield (f"  stream: {section['n_wedges']} single-wedge payloads, "
           f"module-graph serial {section['module_graph_wps']:7.2f} w/s")
    for row in section["rows"]:
        yield (f"    fast {row['backend']:16s}: "
               f"{row['wedges_per_second']:7.2f} w/s  "
               f"speedup {row['speedup_vs_module_graph']:.2f}x  recon "
               f"{'identical' if row['bit_identical'] else 'MISMATCH'}")


def _section_ok(section, gate):
    """(identical, fast_enough, best-speedup) for any section kind."""

    kind = section.get("kind", "decode")
    if kind == "threaded":
        identical = all(r["bit_identical"] for r in section["rows"])
        best = max(r["speedup_vs_single_thread"] for r in section["rows"])
        # ≥1.5× only where there are cores to scale onto.
        return identical, (best >= 1.5 if section["scaling_gated"]
                           else True), best
    identical = all(r["bit_identical"] for r in section["rows"])
    best = max(r["speedup_vs_module_graph"] for r in section["rows"])
    return identical, best >= gate, best


def test_decode_speedup_and_parity(benchmark):
    from conftest import report

    results = {}

    def measure_all():
        results["r"] = measure()
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _report_lines(section):
        report(line)

    identical, fast_enough, best = _section_ok(section, 2.0)
    # Acceptance: bit-identical reconstructions in every configuration.
    assert identical, "recon mismatch"
    # Acceptance: >= 2x the module-graph analysis loop.
    assert fast_enough, f"fast decode only {best:.2f}x the module path"


def test_decode_3d_paper_scale(benchmark):
    """The blocked-gather regime: 3D BCAE-HT at the paper grid, ≥2×."""

    from conftest import report

    results = {}

    def measure_all():
        results["r"] = measure("bcae_ht", n_wedges=2, repeats=1, paper=True)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _report_lines(section):
        report(line)

    identical, fast_enough, best = _section_ok(section, 2.0)
    assert identical, "recon mismatch"
    assert fast_enough, f"3D paper-scale decode only {best:.2f}x"


def test_decode_original_bcae_batchnorm(benchmark):
    """The BatchNorm regime: the original BCAE's eval-mode norm stacks
    (folded conv or exact affine stages) must decode ≥2× the module graph
    through the compiled engine at paper-scale geometry, bit for bit
    (measured ~6×; at tiny geometry the affine passes and the module
    graph's allocations nearly cancel, ~1.6×)."""

    from conftest import report

    results = {}

    def measure_all():
        results["r"] = measure("bcae", n_wedges=2, repeats=1, paper=True)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _report_lines(section):
        report(line)

    identical, fast_enough, best = _section_ok(section, 2.0)
    assert identical, "recon mismatch"
    assert fast_enough, f"original-BCAE compiled decode only {best:.2f}x"


def test_decode_thread_scaling(benchmark):
    """Slot-parallel executor: byte-identical recon at widths 1/2/4;
    ≥1.5× scaling gated only on ≥4-core hosts."""

    from conftest import report

    results = {}

    def measure_all():
        results["r"] = measure_threaded("bcae_ht", n_wedges=2, repeats=1,
                                        paper=True)
        return results

    benchmark.pedantic(measure_all, rounds=1, iterations=1)
    section = results["r"]
    for line in _report_lines(section):
        report(line)

    identical, fast_enough, best = _section_ok(section, 1.5)
    assert identical, "recon differs across panel widths"
    assert fast_enough, f"thread scaling only {best:.2f}x on ≥4 cores"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small stream, relaxed speed gate (CI wiring check)")
    parser.add_argument("--model", default=None,
                        help="run a single model section (default: the full "
                             "2D-tiny + 3D-paper-scale gate set)")
    parser.add_argument("--paper", action="store_true",
                        help="paper-scale geometry (16, 192, 249) for --model")
    parser.add_argument("--wedges", type=int, default=None)
    args = parser.parse_args(argv)

    repeats = 1 if args.smoke else _REPEATS
    gate = 1.1 if args.smoke else 2.0

    plan = []
    if args.model is not None:
        n = args.wedges or (
            (2 if args.smoke else _N_WEDGES_PAPER) if args.paper
            else (8 if args.smoke else _N_WEDGES)
        )
        plan.append(lambda: measure(args.model, n_wedges=n, repeats=repeats,
                                    paper=args.paper))
    else:
        n2d = args.wedges or (8 if args.smoke else _N_WEDGES)
        plan.append(lambda: measure("bcae_2d", n_wedges=n2d, repeats=repeats,
                                    paper=False))
        if args.smoke:
            # BatchNorm wiring check: original-BCAE through the compiled
            # fold/affine stages at tiny geometry, relaxed gate.
            plan.append(lambda: measure("bcae", n_wedges=args.wedges or 4,
                                        repeats=repeats, paper=False))
            # Wiring check for the thread-scaling section at tiny geometry:
            # the determinism gate is exact at any scale, only the speed
            # claim needs the paper grid.
            plan.append(lambda: measure_threaded(
                "bcae_ht", n_wedges=args.wedges or 4, repeats=repeats,
                paper=False))
        else:
            # The blocked-gather acceptance gate: 3D decode at the paper grid.
            plan.append(lambda: measure(
                "bcae_ht", n_wedges=args.wedges or _N_WEDGES_PAPER,
                repeats=repeats, paper=True))
            # The BatchNorm acceptance gate: original-BCAE decode at the
            # paper grid (~6× — the affine stages ride the blocked gathers).
            plan.append(lambda: measure("bcae", n_wedges=args.wedges or 2,
                                        repeats=repeats, paper=True))
            # Intra-plan parallelism: identical bits at every panel width,
            # ≥1.5× scaling where the host has ≥4 cores.
            plan.append(lambda: measure_threaded(
                "bcae_ht", n_wedges=args.wedges or 2, repeats=repeats,
                paper=True))

    sections = []
    failed = False
    for run in plan:
        section = run()
        sections.append(section)
        for line in _report_lines(section):
            print(line)
        kind = section.get("kind", "decode")
        name = f"{section['model']}/{kind}"
        identical, fast_enough, best = _section_ok(section, gate)
        if not identical:
            print(f"FAIL: {name} reconstruction mismatch")
            failed = True
        elif not fast_enough:
            print(f"FAIL: {name} best speedup {best:.2f}x below gate")
            failed = True
        else:
            print(f"OK: {name} best speedup {best:.2f}x")
    path = write_bench_json(sections, args.smoke)
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
