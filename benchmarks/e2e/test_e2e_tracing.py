"""Unit tests of the span recorder on synthetic span trees."""

import pytest

from tracing import Tracer, format_table, layer_table, self_times


def span(span_id, name, parent, start, end, op=0):
    return {"id": span_id, "name": name, "parent": parent, "op": op,
            "start": start, "end": end}


def test_self_time_is_duration_minus_what_children_cover():
    spans = [
        span(0, "bench.op", None, 0.0, 10.0),
        span(1, "tpc.log", 0, 1.0, 3.0),
        span(2, "core.plan", 0, 3.0, 8.0),
        span(3, "core.gemm", 2, 4.0, 5.0),     # grandchild: not the op's
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 5.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(5.0 - 1.0)
    assert own[3] == pytest.approx(1.0)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        span(0, "serve.session", None, 0.0, 10.0),
        span(1, "serve.a", 0, 2.0, 6.0),
        span(2, "serve.b", 0, 4.0, 8.0),       # overlaps a on [4, 6]
        span(3, "serve.c", 0, 9.0, 12.0),      # runs past the parent
        span(4, "serve.d", 0, 3.0, 5.0),       # wholly inside a
    ]
    # Covered: [2, 8] and [9, 10] -> 7 of 10.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_links_parents_and_shares_the_op_id():
    tracer = Tracer()
    with tracer.span("bench.op", op=7) as outer:
        with tracer.span("core.plan") as inner:
            pass
        with tracer.span("core.call"):
            pass
    loose = tracer.begin("serve.round_trip", op=3)
    tracer.end(loose)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["bench.op"]["parent"] is None
    assert by_name["core.plan"]["parent"] == outer
    assert by_name["core.call"]["parent"] == outer
    assert by_name["core.plan"]["id"] == inner
    assert {by_name[n]["op"] for n in ("bench.op", "core.plan",
                                       "core.call")} == {7}
    assert by_name["serve.round_trip"]["parent"] is None
    for s in tracer.spans:
        assert s["end"] >= s["start"]
    parent = by_name["bench.op"]
    assert parent["start"] <= by_name["core.plan"]["start"]
    assert by_name["core.call"]["end"] <= parent["end"]


def test_layer_table_reports_medians_per_span_name():
    spans = [
        span(0, "bench.op", None, 0.0, 0.010, op=0),
        span(1, "core.plan", 0, 0.001, 0.005, op=0),
        span(2, "bench.op", None, 1.0, 1.030, op=1),
        span(3, "core.plan", 2, 1.001, 1.007, op=1),
        span(4, "bench.op", None, 2.0, 2.020, op=2),
        span(5, "core.plan", 4, 2.001, 2.009, op=2),
    ]
    rows = {row["name"]: row for row in layer_table(spans)}
    assert rows["core.plan"]["count"] == 3
    assert rows["core.plan"]["layer"] == "core"
    assert rows["core.plan"]["median_ms"] == pytest.approx(6.0)
    assert rows["bench.op"]["median_ms"] == pytest.approx(20.0)
    assert rows["bench.op"]["self_ms"] == pytest.approx(12.0)
    text = format_table(list(rows.values()))
    assert "core.plan" in text and "self ms" in text
