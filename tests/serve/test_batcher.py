"""MicroBatcher: chunking, latency budget, order preservation."""

import numpy as np
import pytest

from repro.serve import MicroBatcher, StreamItem, iter_wedges, replay_stream


def _items(n, arrivals=None):
    wedges = [np.full((2, 3, 4), i, dtype=np.uint16) for i in range(n)]
    if arrivals is None:
        return list(iter_wedges(wedges))
    return [StreamItem(seq=i, arrival_s=t, wedge=w)
            for i, (t, w) in enumerate(zip(arrivals, wedges))]


class TestChunking:
    def test_exact_chunks(self):
        batches = list(MicroBatcher(max_batch=4).batches(_items(8)))
        assert [b.n_wedges for b in batches] == [4, 4]
        assert [b.seq for b in batches] == [0, 1]
        assert [b.first_seq for b in batches] == [0, 4]

    def test_tail_batch(self):
        batches = list(MicroBatcher(max_batch=4).batches(_items(6)))
        assert [b.n_wedges for b in batches] == [4, 2]

    def test_order_and_content(self):
        batches = list(MicroBatcher(max_batch=3).batches(_items(7)))
        flat = np.concatenate([b.wedges for b in batches])
        assert [int(w[0, 0, 0]) for w in flat] == list(range(7))

    def test_one_wedge_batch_is_a_view_larger_batches_stack(self):
        """A one-wedge micro-batch must not copy the wedge (it is the
        common case under a zero latency budget); a larger one stacks."""

        items = _items(3)
        pair, solo = MicroBatcher(max_batch=2).batches(items)
        assert solo.wedges.shape == (1,) + items[2].wedge.shape
        assert np.shares_memory(solo.wedges, items[2].wedge)
        np.testing.assert_array_equal(pair.wedges[1], items[1].wedge)
        assert not np.shares_memory(pair.wedges, items[0].wedge)

    def test_empty_stream(self):
        assert list(MicroBatcher(max_batch=4).batches(iter(()))) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay_s=-1.0)


class TestLatencyBudget:
    def test_budget_closes_batches(self):
        # Arrivals at 0,1,2,10,11,20 ms with a 3 ms budget.
        arrivals = [0.0, 0.001, 0.002, 0.010, 0.011, 0.020]
        batches = list(
            MicroBatcher(max_batch=16, max_delay_s=0.003).batches(_items(6, arrivals))
        )
        assert [b.n_wedges for b in batches] == [3, 2, 1]
        assert batches[0].accumulation_s == pytest.approx(0.002)

    def test_zero_budget_never_waits_on_time(self):
        arrivals = [0.0, 5.0, 10.0]
        batches = list(MicroBatcher(max_batch=2, max_delay_s=0.0).batches(_items(3, arrivals)))
        assert [b.n_wedges for b in batches] == [2, 1]

    def test_untimed_stream_ignores_budget(self):
        batches = list(MicroBatcher(max_batch=4, max_delay_s=1e-9).batches(_items(8)))
        assert [b.n_wedges for b in batches] == [4, 4]


class TestReplayStream:
    def test_wraps_timed_pairs(self):
        pairs = [(0.5, np.zeros((2, 3, 4))), (0.7, np.ones((2, 3, 4)))]
        items = list(replay_stream(pairs))
        assert [i.seq for i in items] == [0, 1]
        assert [i.arrival_s for i in items] == [0.5, 0.7]
