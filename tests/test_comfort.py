"""Weighting filters, MSDV, vomit rate and peak counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import DataError, comfort, telemetry

from conftest import make_record

FS = telemetry.SAMPLE_RATE_HZ


def steady_gain(filt, freq, seconds=120.0):
    """Amplitude gain at one frequency after transients settle."""
    t = np.arange(int(seconds * FS)) / FS
    y = comfort.apply_filter(filt, np.sin(2 * np.pi * freq * t))
    tail = y[len(y) // 2:]
    return float(np.max(np.abs(tail)))


class TestDesignFilter:
    def test_dc_gain_zero(self):
        f = comfort.design_filter()
        y = comfort.apply_filter(f, np.ones(10_000))
        assert abs(y[-1]) < 1e-3

    def test_passband_and_stopband(self):
        # 0.02 - 0.3 Hz: ten minutes, so the 0.02 Hz high-pass transient has
        # died out in the half that is measured
        f = comfort.design_filter()
        mid = steady_gain(f, np.sqrt(0.02 * 0.3), seconds=600.0)
        assert mid == pytest.approx(1.0, abs=0.05)
        assert steady_gain(f, 0.002, seconds=6000.0) < 0.05
        assert steady_gain(f, 5.0, seconds=600.0) < 0.05

    def test_corner_gain(self):
        f = comfort.design_filter()
        for corner in comfort.FILTER_CORNERS:
            g = steady_gain(f, corner, seconds=600.0)
            assert abs(g - 0.707) < 0.1 * 0.707 + 0.05

    def test_designed_once_and_read_only(self):
        f = comfort.design_filter()
        assert comfort.design_filter() is f
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 0.0


class TestApplyFilter:
    def test_empty_input(self):
        f = comfort.design_filter()
        with pytest.raises(DataError, match="empty"):
            comfort.apply_filter(f, np.array([]))

    def test_causal_same_length(self):
        f = comfort.design_filter()
        x = np.random.default_rng(0).standard_normal(500)
        assert len(comfort.apply_filter(f, x)) == 500
        # causality: output up to sample k only depends on input up to k
        y_full = comfort.apply_filter(f, x)
        y_head = comfort.apply_filter(f, x[:300])
        np.testing.assert_allclose(y_full[:300], y_head, atol=1e-12)


class TestVomitRate:
    def test_axis_coefficients(self):
        assert comfort.vomit_rate(3.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert comfort.vomit_rate(0.0, 3.0) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        mx, my = rng.uniform(0, 5, 50), rng.uniform(0, 5, 50)
        np.testing.assert_allclose(comfort.vomit_rate(7.0 * mx, 7.0 * my),
                                   7.0 * comfort.vomit_rate(mx, my), rtol=1e-12)

    def test_vectorized(self):
        out = comfort.vomit_rate([3.0, 0.0], [0.0, 3.0])
        np.testing.assert_allclose(out, [1.0, np.sqrt(2)])


class TestCountPeaks:
    def test_no_peaks(self):
        assert comfort.count_peaks(np.zeros(100)) == 0

    def test_distinct_runs(self):
        x = np.zeros(100)
        x[10:15] = 2.0
        x[50:52] = 3.0
        assert comfort.count_peaks(x) == 2

    def test_run_at_start(self):
        x = np.zeros(50)
        x[0:5] = 2.0
        assert comfort.count_peaks(x) == 1

    def test_threshold_strict(self):
        assert comfort.count_peaks(np.full(10, 1.75)) == 0
        assert comfort.count_peaks(np.full(10, 1.76)) == 1

    def test_custom_threshold(self):
        x = np.array([0.0, 1.0, 0.0])
        assert comfort.count_peaks(x, threshold=0.5) == 1
        assert comfort.count_peaks(x, threshold=1.5) == 0


class TestWindowMetrics:
    def test_fields_and_counts(self, record):
        ws = telemetry.split_windows(record)
        m = comfort.window_metrics(record, ws)
        assert list(m) == ["msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel"]
        for values in m.values():
            assert values.shape == ws.shape
        assert np.all(m["msdv_x"] >= 0) and np.all(m["msdv_y"] >= 0)
        np.testing.assert_allclose(m["vr"], comfort.vomit_rate(m["msdv_x"], m["msdv_y"]))

    def test_peak_counts_pick_up_events(self):
        rec = make_record(n=256)
        rec.channels["XACC"][:] = 0.0
        rec.channels["XACC"][100:105] = -3.0   # one braking peak
        rec.channels["YACC"][:] = 0.0
        ws = telemetry.split_windows(rec)
        m = comfort.window_metrics(rec, ws)
        assert (m["n_x_pos"][0], m["n_x_neg"][0], m["n_y"][0]) == (0, 1, 0)

    def test_fuel_is_window_mean(self, record):
        ws = telemetry.split_windows(record)
        m = comfort.window_metrics(record, ws)
        assert m["fuel"][0] == pytest.approx(float(np.mean(record.channels["FUEL"][:256])))

    def test_filter_runs_over_full_record(self):
        # windowing after filtering: metrics of the second window must differ
        # from filtering the window in isolation (transient would restart)
        rec = make_record(n=512, seed=3)
        ws = telemetry.split_windows(rec)
        metrics = comfort.window_metrics(rec, ws)
        wf = comfort.design_filter()
        isolated = comfort.weighted_rms(
            comfort.apply_filter(wf, rec.channels["XACC"][ws[1]:ws[1] + 256]))
        assert metrics["msdv_x"][1] != pytest.approx(isolated, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), magnitude=st.floats(0.1, 10.0),
           negative=st.booleans())
    def test_scale_with_acceleration(self, seed, magnitude, negative):
        # the weighting filter is linear and MSDV and VR are norms, so scaling
        # XACC and YACC by c scales msdv_x, msdv_y and vr by |c|
        c = -magnitude if negative else magnitude
        rec = make_record(n=768, seed=seed)
        ws = telemetry.split_windows(rec)
        base = comfort.window_metrics(rec, ws)
        for name in ("XACC", "YACC"):
            rec.channels[name] = c * rec.channels[name]
        scaled = comfort.window_metrics(rec, ws)
        for name in ("msdv_x", "msdv_y", "vr"):
            np.testing.assert_allclose(scaled[name], abs(c) * base[name],
                                       rtol=1e-9, atol=0)
