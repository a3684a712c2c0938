"""End-to-end analysis runs: the repo lints clean against its baseline,
and the ratchet actually bites on a fresh finding."""

import json
from pathlib import Path

import pytest

from repro.analysis import load_baseline, run_analysis

REPO = Path(__file__).resolve().parents[2]
BASELINE = REPO / "tools" / "analysis_baseline.json"
FIXTURE = Path(__file__).parent / "fixtures" / "injected_finding.py"


@pytest.fixture(scope="module")
def full_report():
    report, records = run_analysis()
    return report, records


class TestRepoIsClean:
    def test_zero_unbaselined_findings(self, full_report):
        """The acceptance gate CI runs: all four passes over the repo and
        all twelve Table-1 plans, nothing new against the baseline."""

        report, records = full_report
        baseline = load_baseline(BASELINE)
        assert baseline, "checked-in baseline must not be empty"
        new = report.new_findings(baseline)
        assert new == [], [d.format() for d in new]
        assert all(r["ok"] for r in records)

    def test_no_errors_anywhere(self, full_report):
        report, _ = full_report
        assert report.counts().get("error", 0) == 0

    def test_baseline_file_is_exact(self, full_report):
        """Every baselined fingerprint is still produced: a fixed finding
        must be removed from the baseline (that is the ratchet)."""

        report, _ = full_report
        baseline = load_baseline(BASELINE)
        assert report.fixed_fingerprints(baseline) == []
        assert {d.fingerprint for d in report.gating()} == baseline

    def test_baseline_schema(self):
        data = json.loads(BASELINE.read_text())
        assert data["version"] == 1
        prints = data["fingerprints"]
        assert prints == sorted(prints) and len(set(prints)) == len(prints)


class TestRatchetBites:
    def test_injected_finding_is_new(self):
        report, _ = run_analysis(
            passes=("hotpath",), extra_sources=(FIXTURE,))
        baseline = load_baseline(BASELINE)
        new = report.new_findings(baseline)
        assert len(new) == 1
        diag = new[0]
        assert diag.rule == "HP001" and "injected_finding" in diag.scope
        assert diag.scope.endswith(":hot_loop")

    def test_injected_protocol_callback_stall_is_new(self):
        """CL010 reaches the sync callbacks of asyncio protocols — where
        the gateway's frame receiver runs."""

        report, _ = run_analysis(
            passes=("concurrency",), extra_sources=(FIXTURE,))
        new = report.new_findings(load_baseline(BASELINE))
        assert [(d.rule, d.scope.rsplit(":", 1)[1]) for d in new] == [
            ("CL010", "StallingReceiver.buffer_updated")]

    def test_socket_source_callbacks_are_in_scope(self):
        """The real receiver is seen as a protocol class (so the clean
        repo-wide report above covers its callbacks)."""

        import ast

        import repro.serve.source as source
        from repro.analysis.concurrency_lint import _protocol_methods

        tree = ast.parse(Path(source.__file__).read_text())
        assert {"connection_made", "get_buffer", "buffer_updated",
                "eof_received", "connection_lost", "pause_writing",
                "resume_writing"} <= {f.name for f in _protocol_methods(tree)}

    def test_missing_baseline_means_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == set()


class TestJsonReport:
    def test_to_json_round_trips(self, full_report):
        report, _ = full_report
        payload = json.loads(report.to_json(load_baseline(BASELINE)))
        assert payload["baseline"]["new"] == []
        assert payload["baseline"]["fixed"] == []
        assert payload["counts"].get("error", 0) == 0
        assert all({"rule", "severity", "location", "message", "fingerprint"}
                   <= set(d) for d in payload["diagnostics"])


class TestPlanStatsRecords:
    def test_records_carry_plan_stats(self, full_report):
        """Every plan record ships its plan_stats() summary — what
        ``analyze --stats`` prints."""

        _report, records = full_report
        assert records
        for rec in records:
            stats = rec["stats"]
            assert stats["panel_budget"]["width"] >= 1
            assert stats["stage_kinds"]
            # Static verification never executes the plan.
            assert stats["gemms"] == {}

    def test_execute_fills_gemm_sites(self):
        """``analyze --stats`` pushes one wedge through every plan so each
        GEMM site reports its formulation, tail kind and staging bytes."""

        from repro.analysis import analyze_model_plans

        _diags, records = analyze_model_plans(names=["bcae_2d"], execute=True)
        assert len(records) == 3
        for rec in records:
            sites = rec["stats"]["gemms"].values()
            assert sites
            assert all(g["tail"] and g["staging_bytes"] == 0 for g in sites)

    def test_cli_stats_prints_every_site(self, capsys, monkeypatch):
        """``repro-tpc analyze --stats`` prints one ``stats  gemm`` line per
        executed GEMM site of every plan, read from the same records the
        runner returned."""

        import repro.analysis as analysis
        from repro import cli

        records = []
        real = analysis.run_analysis

        def capture(*args, **kwargs):
            report, recs = real(*args, **kwargs)
            records.extend(recs)
            return report, recs

        monkeypatch.setattr(analysis, "run_analysis", capture)
        assert cli.main(["analyze", "--passes", "plan", "--stats"]) == 0
        out = capsys.readouterr().out
        printed: dict[str, int] = {}
        label = None
        for line in out.splitlines():
            if line.startswith("plan "):
                label = line.split()[1]
                printed[label] = 0
            elif line.startswith("  stats  gemm "):
                printed[label] += 1
        assert printed == {rec["label"]: len(rec["stats"]["gemms"])
                           for rec in records}
        assert len(printed) == 12 and all(printed.values())
        assert "ulp" not in out and "precision=" not in out
        # Each site prints its real partition.
        for g in (g for rec in records for g in rec["stats"]["gemms"].values()):
            assert (f"panels={g['panels']} threads={g['threads']} "
                    f"rows_per_panel={g['rows_per_panel']} slot_rows="
                    + "/".join(map(str, g["slot_rows"]))) in out
        # The width is printed beside the three inputs that produced it.
        budget = records[0]["stats"]["panel_budget"]
        assert (f"panel_width={budget['width']} (cores={budget['cores']} // "
                f"(blas_threads={budget['blas_threads']} × workers=1))") in out
