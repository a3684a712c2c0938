"""Value/shape transforms and the wedge dataset pipeline."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tpc import (
    LOG_EDGE,
    DataLoader,
    TINY_GEOMETRY,
    WedgeDataset,
    generate_wedge_dataset,
    inverse_log_transform,
    log_transform,
    nonzero_labels,
    pad_horizontal,
    padded_length,
    train_test_split_events,
    unpad_horizontal,
)


class TestLogTransform:
    def test_values(self):
        adc = np.array([0, 63, 64, 1023], dtype=np.uint16)
        logv = log_transform(adc)
        np.testing.assert_allclose(
            logv, [0.0, np.log2(64), np.log2(65), np.log2(1024)], rtol=1e-6
        )

    def test_edge_constant(self):
        assert LOG_EDGE == pytest.approx(np.log2(65.0))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=64))
    def test_roundtrip_exact_on_integers(self, values):
        adc = np.array(values, dtype=np.uint16)
        np.testing.assert_array_equal(inverse_log_transform(log_transform(adc)), adc)

    def test_inverse_defined_on_every_float(self):
        """Untrained decoders emit huge regression values: the inverse
        saturates without the ``exp2`` overflow warning, and NaN is 0."""

        logv = np.array([1e30, np.inf, 2000.0, 10.0, np.nan, -np.inf, -5.0],
                        dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adc = inverse_log_transform(logv)
        np.testing.assert_array_equal(adc, [1023, 1023, 1023, 1023, 0, 0, 0])
        assert adc.dtype == np.uint16

    def test_labels(self):
        logv = np.array([0.0, 6.5, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(nonzero_labels(logv), [0.0, 1.0, 0.0])


class TestPadding:
    def test_paper_pad_249_to_256(self):
        """§2.3: horizontal 249 → 256."""

        assert padded_length(249, 16) == 256
        w = np.ones((16, 192, 249), dtype=np.float32)
        padded = pad_horizontal(w, 256)
        assert padded.shape == (16, 192, 256)
        assert padded[..., 249:].sum() == 0.0

    def test_pad_noop_when_aligned(self):
        w = np.ones((4, 8, 32), dtype=np.float32)
        assert pad_horizontal(w).shape == (4, 8, 32)

    def test_unpad_clips(self):
        w = np.ones((2, 4, 256), dtype=np.float32)
        assert unpad_horizontal(w, 249).shape == (2, 4, 249)

    def test_unpad_too_short_raises(self):
        with pytest.raises(ValueError):
            unpad_horizontal(np.ones((2, 4, 100)), 249)

    def test_pad_shorter_target_raises(self):
        with pytest.raises(ValueError):
            pad_horizontal(np.ones((2, 4, 100)), 50)

    def test_pad_unpad_roundtrip(self, rng):
        w = rng.random((3, 5, 13)).astype(np.float32)
        np.testing.assert_array_equal(unpad_horizontal(pad_horizontal(w, 16), 13), w)


class TestSplit:
    def test_paper_split_1310_events(self):
        """Paper §2.1: 1310 events → 1048 train / 262 test (× 24 wedges)."""

        train, test = train_test_split_events(1310, 0.2)
        assert len(train) == 1048
        assert len(test) == 262
        assert len(train) * 24 == 25152
        assert len(test) * 24 == 6288

    def test_no_overlap(self):
        train, test = train_test_split_events(10)
        assert set(train).isdisjoint(test)


class TestDataset:
    def test_generate_counts(self, tiny_datasets):
        train, test = tiny_datasets
        total = TINY_GEOMETRY.n_wedges * 2
        assert len(train) + len(test) == total
        assert train.wedges.shape[1:] == TINY_GEOMETRY.wedge_shape

    def test_batch_shapes_and_labels(self, tiny_train):
        x, y = tiny_train.batch(np.arange(2))
        assert x.shape == y.shape
        assert x.dtype == np.float32
        assert set(np.unique(y)).issubset({0.0, 1.0})
        np.testing.assert_array_equal(y, (x > 0).astype(np.float32))

    def test_padded_batch_horizontal(self, tiny_train):
        x, _ = tiny_train.batch(np.arange(1), padded=True)
        assert x.shape[-1] % 16 == 0

    def test_save_load_roundtrip(self, tiny_train, tmp_path):
        path = tiny_train.save(tmp_path / "w.npz")
        loaded = WedgeDataset.load(path)
        np.testing.assert_array_equal(loaded.wedges, tiny_train.wedges)
        assert loaded.geometry == tiny_train.geometry

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            WedgeDataset(np.zeros((2, 3, 4)), TINY_GEOMETRY)


class TestDataLoader:
    def test_batches_cover_dataset(self, tiny_train):
        loader = DataLoader(tiny_train, batch_size=5, shuffle=False)
        seen = sum(x.shape[0] for x, _ in loader)
        assert seen == len(tiny_train)

    def test_drop_last(self, tiny_train):
        loader = DataLoader(tiny_train, batch_size=5, drop_last=True)
        for x, _ in loader:
            assert x.shape[0] == 5

    def test_len(self, tiny_train):
        loader = DataLoader(tiny_train, batch_size=5, drop_last=False)
        assert len(loader) == -(-len(tiny_train) // 5)

    def test_shuffle_changes_order_not_content(self, tiny_train):
        a = DataLoader(tiny_train, batch_size=len(tiny_train), shuffle=True, seed=1)
        b = DataLoader(tiny_train, batch_size=len(tiny_train), shuffle=True, seed=2)
        xa, _ = next(iter(a))
        xb, _ = next(iter(b))
        assert xa.sum() == pytest.approx(xb.sum(), rel=1e-5)

    def test_deterministic_given_seed(self, tiny_train):
        xs1 = [x.sum() for x, _ in DataLoader(tiny_train, batch_size=4, seed=9)]
        xs2 = [x.sum() for x, _ in DataLoader(tiny_train, batch_size=4, seed=9)]
        # fresh loaders with the same seed produce the same order
        assert xs1 == xs2
