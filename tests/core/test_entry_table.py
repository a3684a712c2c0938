"""The integer-ADC encoder entry as one table lookup.

``log2(ADC + 1)`` followed by the fp16-grid snap is a pure function of one
``uint16``, so ``uint8`` / ``uint16`` wedges enter the encoder's input
canvas through one ``np.take`` of a calibrated 65 536-entry table
(``fast_encode._entry_table``).  These tests hold it to the module oracle
on wedges that hold every value, at a horizontal length that leaves tail
lanes, keep every other dtype on the log path, and show a calibration
mismatch keeps the log path too.
"""

import numpy as np
import pytest

import repro.core.fast_encode as fe
from repro.core import BCAECompressor, build_model
from repro.nn.amp import quantize_fp16
from repro.tpc import log_transform

#: Wedges of odd horizontal length (the padded canvas and the arrays the
#: log path runs on end in partial SIMD vectors), the model's geometry and
#: its options.
GEOMETRIES = {"bcae_2d": ((16, 24, 29), (16, 24, 29), dict(m=2, n=2, d=2)),
              "bcae_pp": ((8, 16, 13), (8, 16, 14), {})}


def _model(name):
    spatial, model_spatial, kw = GEOMETRIES[name]
    model = build_model(name, wedge_spatial=model_spatial, seed=3, **kw)
    model.eval()
    return model, spatial


def _every_value(dtype, spatial, seed=0):
    """Wedges holding every value of ``dtype`` at least once, shuffled, the
    last wedge's spare lanes filled with more random values."""

    info = np.iinfo(dtype)
    values = np.arange(info.max + 1, dtype=dtype)
    lanes = int(np.prod(spatial))
    n = -(-values.size // lanes)
    rng = np.random.default_rng(seed)
    flat = np.concatenate([values, rng.integers(0, info.max + 1,
                                                n * lanes - values.size,
                                                dtype=dtype)])
    return rng.permutation(flat).reshape((n,) + spatial)


class _LogCalls:
    """Counts the compressor's log-path entries."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = BCAECompressor._log_into

        def spy(comp, wedges):
            self.calls += 1
            return real(comp, wedges)

        monkeypatch.setattr(BCAECompressor, "_log_into", spy)


@pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("name", sorted(GEOMETRIES))
class TestTableEntry:
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint8])
    def test_every_value_matches_the_oracle(self, monkeypatch, name, half,
                                            dtype):
        model, spatial = _model(name)
        comp = BCAECompressor(model, half=half)
        wedges = _every_value(dtype, spatial)
        log = _LogCalls(monkeypatch)
        got = comp.compress_into(wedges)
        assert comp._fast_encoder().takes_adc(dtype) and log.calls == 0
        assert bytes(got.payload) == bytes(comp.compress(wedges).payload)

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_other_dtypes_take_the_log_path(self, monkeypatch, name, half,
                                            dtype):
        model, spatial = _model(name)
        comp = BCAECompressor(model, half=half)
        rng = np.random.default_rng(1)
        wedges = rng.integers(0, 1024, (2,) + spatial).astype(dtype)
        log = _LogCalls(monkeypatch)
        got = comp.compress_into(wedges)
        assert not comp._fast_encoder().takes_adc(dtype) and log.calls == 1
        assert bytes(got.payload) == bytes(comp.compress(wedges).payload)


class TestCalibration:
    @pytest.mark.parametrize("half", [True, False], ids=["half", "full"])
    def test_table_is_the_module_entry(self, half):
        """Entry ``v`` is what the module path feeds its first convolution
        for ADC value ``v``: ``log_transform``, then in half mode the
        entry quantize."""

        want = log_transform(np.arange(1 << 16, dtype=np.uint16))
        if half:
            want = quantize_fp16(want)
        table = fe._entry_table(half)
        assert table is not None and not table.flags.writeable
        assert np.array_equal(table.view(np.uint32),
                              np.asarray(want, np.float32).view(np.uint32))

    def test_mismatch_keeps_the_log_path(self, monkeypatch):
        """One lane off by an ulp at one lane offset rejects the table: the
        encoder has none, and integer wedges take the log path to the
        oracle's bytes."""

        real = fe._entry_lanes

        def skewed(adc, half):
            got = real(adc, half)
            if adc.size == (1 << 16) + 17:  # lane offset 17 only
                got[-1] = np.nextafter(got[-1], np.float32(np.inf))
            return got

        monkeypatch.setattr(fe, "_entry_lanes", skewed)
        fe._entry_table.cache_clear()
        try:
            assert fe._entry_table(True) is None
            model, spatial = _model("bcae_2d")
            comp = BCAECompressor(model)
            fast = comp._fast_encoder()
            assert fast.entry_table is None
            assert not fast.takes_adc(np.uint16)
            with pytest.raises(TypeError):
                fast.encode_adc(np.zeros((1,) + spatial, np.uint16))
            wedges = _every_value(np.uint16, spatial)[:2]
            log = _LogCalls(monkeypatch)
            got = comp.compress_into(wedges)
            assert log.calls == 1
            assert bytes(got.payload) == bytes(comp.compress(wedges).payload)
        finally:
            fe._entry_table.cache_clear()
