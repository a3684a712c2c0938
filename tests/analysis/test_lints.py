"""Unit tests for the AST lint passes (inline sources, no repo I/O).

Each lint is exercised on small handwritten modules: one that violates
the rule, one that follows the blessed idiom, plus the suppression and
fingerprint-stability contracts the baseline ratchet depends on.
"""

import textwrap

from repro.analysis.diagnostics import (
    GATING_SEVERITIES,
    AnalysisReport,
    Diagnostic,
    assign_occurrences,
)
from repro.analysis.hotpath_lint import lint_source as lint_hotpath
from repro.analysis.concurrency_lint import (
    lint_async_source,
    lint_lease_source,
    lint_result_timeout_source,
)
from repro.analysis.api_lint import audit_source


def _src(text):
    return textwrap.dedent(text).lstrip("\n")


def _rules(diags):
    return sorted(d.rule for d in diags)


class TestHotPathLint:
    def test_allocation_in_loop_flagged(self):
        diags = lint_hotpath(_src("""
            import numpy as np

            def f(items):
                for x in items:
                    buf = np.zeros(4, dtype=np.float32)
        """), "m.py")
        assert _rules(diags) == ["HP001"]
        assert diags[0].scope == "m.py:f"
        assert "np.zeros" in diags[0].message

    def test_allocation_outside_loop_clean(self):
        diags = lint_hotpath(_src("""
            import numpy as np

            def f(items):
                buf = np.zeros(4, dtype=np.float32)
                for x in items:
                    np.add(x, 1.0, out=buf)
                return buf
        """), "m.py")
        assert diags == []

    def test_out_capable_ufunc_without_out_flagged(self):
        src = _src("""
            import numpy as np

            def f(items, buf):
                for x in items:
                    y = np.add(x, 1.0)
                    np.multiply(x, 2.0, out=buf)
        """)
        diags = lint_hotpath(src, "m.py")
        assert _rules(diags) == ["HP002"]
        assert "out=" in diags[0].message

    def test_method_allocators_and_append_flagged(self):
        diags = lint_hotpath(_src("""
            def f(items):
                acc = []
                for x in items:
                    y = x.astype("float32")
                    acc.append(y.copy())
                return acc
        """), "m.py")
        assert _rules(diags) == ["HP003", "HP003", "HP004"]

    def test_comprehension_counts_as_loop(self):
        diags = lint_hotpath(_src("""
            import numpy as np

            def f(items):
                return [np.asarray(x) for x in items]
        """), "m.py")
        assert _rules(diags) == ["HP001"]

    def test_suppression_comment_honored(self):
        diags = lint_hotpath(_src("""
            import numpy as np

            def f(items):
                for x in items:
                    buf = np.zeros(4)  # lint: allow-alloc (cold error path)
        """), "m.py")
        assert diags == []

    def test_nested_def_resets_loop_context(self):
        """A function *defined* in a loop body runs outside the loop."""

        diags = lint_hotpath(_src("""
            import numpy as np

            def f(items):
                for x in items:
                    def cold():
                        return np.zeros(4)
        """), "m.py")
        assert diags == []

    def test_workspace_get_in_closure_flagged(self):
        """HP005: slab acquisition inside a panel-worker closure races the
        other slots — must happen on the caller thread."""

        diags = lint_hotpath(_src("""
            class Plan:
                def _blocked_gemm(self, key):
                    def run_slot(slot):
                        panel = self._ws.get((key, slot), (4,))
                        return panel
                    return run_slot
        """), "m.py")
        assert _rules(diags) == ["HP005"]
        assert "_ws.get" in diags[0].message

    def test_workspace_get_on_caller_thread_clean(self):
        """The blessed shape: slabs acquired in the method body (caller
        thread), the closure only indexes the pre-built list."""

        diags = lint_hotpath(_src("""
            class Plan:
                def _blocked_gemm(self, key, T):
                    slots = []
                    for slot in range(T):
                        slots.append(self._ws.get((key, slot), (4,)))  # lint: allow-alloc

                    def run_slot(slot):
                        return slots[slot]
                    return run_slot
        """), "m.py")
        assert diags == []


class TestLeaseLint:
    def test_leaked_lease_flagged(self):
        diags = lint_lease_source(_src("""
            def f(ring, data):
                slab = ring.try_lease()
                if slab is None:
                    return None
                return len(data)
        """), "m.py")
        assert "CL001" in _rules(diags)

    def test_release_not_in_finally_warned(self):
        diags = lint_lease_source(_src("""
            def f(ring, data):
                slab = ring.try_lease()
                if slab is None:
                    return None
                value = data[slab]
                ring.release(slab)
                return value
        """), "m.py")
        assert _rules(diags) == ["CL002"]

    def test_finally_protected_release_clean(self):
        diags = lint_lease_source(_src("""
            def f(ring, data):
                slab = ring.try_lease()
                if slab is None:
                    return None
                try:
                    value = data[slab]
                finally:
                    ring.release(slab)
                return value
        """), "m.py")
        assert diags == []

    def test_escaped_lease_needs_finally_release_somewhere(self):
        src_leaky = _src("""
            class S:
                def submit(self, ring, data):
                    slab = ring.try_lease()
                    fut = pool.submit(work, slab, data)
                    fut._slab = slab
                    return fut
        """)
        diags = lint_lease_source(src_leaky, "m.py")
        assert "CL003" in _rules(diags)

        src_disciplined = src_leaky + _src("""
            class T:
                def finalize(self, ring, fut):
                    try:
                        return fut.result()
                    finally:
                        ring.release(fut._slab)

                def fail(self, ring, fut):
                    ring.release(fut._slab)
        """)
        assert lint_lease_source(src_disciplined, "m.py") == []

    def test_conditional_lease_expression_tracked(self):
        diags = lint_lease_source(_src("""
            def f(ring, ok):
                slab = ring.try_lease() if ok else None
                return 1
        """), "m.py")
        assert "CL001" in _rules(diags)


class TestAsyncBlockingLint:
    def test_blocking_sleep_in_async_flagged(self):
        diags = lint_async_source(_src("""
            import time

            async def pump(q):
                while True:
                    time.sleep(0.1)
                    await q.put(1)
        """), "m.py")
        assert _rules(diags) == ["CL010"]
        assert "time.sleep" in diags[0].message

    def test_asyncio_sleep_clean(self):
        diags = lint_async_source(_src("""
            import asyncio

            async def pump(q):
                while True:
                    await asyncio.sleep(0.1)
        """), "m.py")
        assert diags == []

    def test_nested_sync_helper_not_flagged(self):
        """Blocking calls inside a *sync* helper defined in an async def
        are the helper's business (it may run in a thread pool)."""

        diags = lint_async_source(_src("""
            async def pump(loop, path):
                def read_blocking():
                    with open(path) as fh:
                        return fh.read()
                return await loop.run_in_executor(None, read_blocking)
        """), "m.py")
        assert diags == []

    def test_bare_open_and_subprocess_flagged(self):
        diags = lint_async_source(_src("""
            import subprocess

            async def f(path):
                data = open(path).read()
                subprocess.run(["ls"])
        """), "m.py")
        assert _rules(diags) == ["CL010", "CL010"]


    def test_blocking_call_in_protocol_callback_flagged(self):
        """The transport calls a protocol's sync callbacks on the loop
        thread: a time.sleep in buffer_updated stalls every session."""

        diags = lint_async_source(_src("""
            import asyncio
            import time

            class Receiver(asyncio.BufferedProtocol):
                def get_buffer(self, sizehint):
                    return self._view

                def buffer_updated(self, nbytes):
                    time.sleep(0.1)

            class Plain:
                def buffer_updated(self, nbytes):
                    time.sleep(0.1)
        """), "m.py")
        assert _rules(diags) == ["CL010"]
        assert diags[0].scope == "m.py:Receiver.buffer_updated"
        assert "protocol method" in diags[0].message

    def test_bare_protocol_base_and_typing_protocol(self):
        diags = lint_async_source(_src("""
            import time
            from asyncio import DatagramProtocol
            from typing import Protocol

            class Link(DatagramProtocol):
                def datagram_received(self, data, addr):
                    time.sleep(0.1)

            class Shape(Protocol):
                def area(self):
                    time.sleep(0.1)
        """), "m.py")
        assert [d.scope for d in diags] == ["m.py:Link.datagram_received"]


class TestResultTimeoutLint:
    def test_bare_result_flagged(self):
        diags = lint_result_timeout_source(_src("""
            def wait(future):
                return future.result()
        """), "m.py")
        assert _rules(diags) == ["CL020"]
        assert "timeout" in diags[0].message

    def test_result_with_timeout_clean(self):
        diags = lint_result_timeout_source(_src("""
            def wait(future, deadline):
                return future.result(timeout=deadline)
        """), "m.py")
        assert diags == []

    def test_result_with_positional_timeout_clean(self):
        diags = lint_result_timeout_source(_src("""
            def wait(future):
                return future.result(5.0)
        """), "m.py")
        assert diags == []

    def test_unrelated_result_attribute_not_called_clean(self):
        """Only *calls* named ``result`` gate — attribute reads don't."""

        diags = lint_result_timeout_source(_src("""
            def peek(record):
                return record.result
        """), "m.py")
        assert diags == []


class TestApiLint:
    def test_unbound_all_entry_flagged(self):
        diags = audit_source(_src("""
            __all__ = ["real", "ghost"]

            def real():
                pass
        """), "m.py")
        assert "AP002" in _rules(diags)
        assert any("ghost" in d.message for d in diags)

    def test_private_cross_module_import_flagged(self):
        diags = audit_source(_src("""
            from repro.core.fast_plan import _grid
        """), "m.py")
        assert _rules(diags) == ["AP001"]

    def test_public_def_missing_from_all_is_info_only(self):
        diags = audit_source(_src("""
            __all__ = ["f"]

            def f():
                pass

            def helper():
                pass
        """), "m.py")
        assert _rules(diags) == ["AP003"]
        assert diags[0].severity == "info"

    def test_submodule_reexports_accepted(self):
        diags = audit_source(_src("""
            __all__ = ["core", "serve"]
        """), "pkg/__init__.py", submodules=frozenset({"core", "serve"}))
        assert diags == []


class TestDiagnosticsModel:
    def _diag(self, **kw):
        base = dict(pass_name="hotpath", rule="HP001", severity="warning",
                    location="m.py:3", scope="m.py:f", message="msg",
                    token="np.zeros")
        base.update(kw)
        return Diagnostic(**base)

    def test_fingerprint_ignores_line_numbers(self):
        a = self._diag(location="m.py:3")
        b = self._diag(location="m.py:300")
        assert a.fingerprint == b.fingerprint

    def test_occurrences_disambiguate_duplicates(self):
        diags = [self._diag(), self._diag(), self._diag(token="np.empty")]
        assign_occurrences(diags)
        prints = {d.fingerprint for d in diags}
        assert len(prints) == 3

    def test_info_never_gates(self):
        report = AnalysisReport(diagnostics=[
            self._diag(severity="info"),
            self._diag(severity="warning", token="np.empty"),
        ])
        assert "info" not in GATING_SEVERITIES
        assert [d.severity for d in report.gating()] == ["warning"]
        assert report.new_findings(baseline=set()) == report.gating()

    def test_baseline_suppresses_known_and_reports_fixed(self):
        known = self._diag()
        report = AnalysisReport(diagnostics=[known])
        baseline = {known.fingerprint, "hotpath:HP001:gone.py:g:np.ones#0"}
        assert report.new_findings(baseline) == []
        assert report.fixed_fingerprints(baseline) == [
            "hotpath:HP001:gone.py:g:np.ones#0"]
