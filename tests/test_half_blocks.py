"""Window statistics from 128-sample half-block sums against the gather-based
code they replaced, bit for bit: the mean speed of the speed filter, the 7 RMS
features, ``msdv_x``, ``msdv_y``, ``vr`` and ``fuel``.  The 3 peak counts and
the 7 variances are ``count_peaks`` and ``np.var`` over ``window_rows`` in the
program as in the reference; for them the comparison pins the dtypes, and
that peaks counted on ``x`` and ``-x`` match those counted on ``max(x, 0)``
and ``max(-x, 0)``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import comfort, features, telemetry
from ecoride.comfort import (PEAK_THRESHOLD, apply_filter, count_peaks, design_filter,
                             vomit_rate, weighted_rms)
from ecoride.features import FEATURE_COLUMNS, FEATURE_SIGNALS
from ecoride.telemetry import SPEED_THRESHOLD_KMH, window_rows


# --- the gather-based window statistics, kept as the reference ---------------

def reference_filter_by_mean_speed(record, windows):
    windows = np.asarray(windows, dtype=np.intp)
    speed = np.mean(window_rows(record.channels["VS"], windows), axis=1)
    return windows[speed >= SPEED_THRESHOLD_KMH]


def reference_compute_features(record, windows):
    signals = {name: window_rows(record.channels[name], windows)
               for name in ("SWA", "VS", "XACC", "YACC", "ERPM")}
    signals["XACC_pos"] = np.maximum(signals["XACC"], 0.0)
    signals["XACC_neg"] = np.maximum(-signals["XACC"], 0.0)
    values = (stat(signals[name]) for name in FEATURE_SIGNALS
              for stat in (weighted_rms, lambda rows: np.var(rows, axis=1)))
    return dict(zip(FEATURE_COLUMNS, values))


def reference_window_metrics(record, windows):
    sos = design_filter()
    xacc = record.channels["XACC"]
    yacc = record.channels["YACC"]
    mx = weighted_rms(window_rows(apply_filter(sos, xacc), windows))
    my = weighted_rms(window_rows(apply_filter(sos, yacc), windows))
    raw_x = window_rows(xacc, windows)
    return {
        "msdv_x": mx,
        "msdv_y": my,
        "vr": vomit_rate(mx, my),
        "n_x_pos": count_peaks(np.maximum(raw_x, 0.0)),
        "n_x_neg": count_peaks(np.maximum(-raw_x, 0.0)),
        "n_y": count_peaks(np.abs(window_rows(yacc, windows))),
        "fuel": np.mean(window_rows(record.channels["FUEL"], windows), axis=1),
    }


# --- records ----------------------------------------------------------------

# values placed on samples at random: signed zeros and the exact thresholds
SPECIAL = np.array([0.0, -0.0, PEAK_THRESHOLD, -PEAK_THRESHOLD, SPEED_THRESHOLD_KMH])


@st.composite
def records(draw):
    """A record of any length below or above 256, not only whole half-blocks,
    with samples from 1e-150 to 1e150 in size, signed zeros and samples at
    ``PEAK_THRESHOLD`` and 60 km/h; its speed holds one level per half-block
    (60 km/h exactly, just above or below it, slow or fast), so runs of
    windows pass and fail the speed filter."""
    n = draw(st.integers(1, 255) | st.integers(256, 1400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150])
                 | st.builds(lambda e: 10.0 ** e, st.integers(-150, 150)))
    share = draw(st.sampled_from([0.0, 0.05, 0.5]))

    def channel(base=0.0, size=scale):
        x = base + size * rng.standard_normal(n)
        special = rng.random(n) < share
        x[special] = rng.choice(SPECIAL, size=int(special.sum()))
        return x

    levels = rng.choice([SPEED_THRESHOLD_KMH, np.nextafter(SPEED_THRESHOLD_KMH, 0.0),
                         np.nextafter(SPEED_THRESHOLD_KMH, np.inf), 30.0, 90.0],
                        size=n // 128 + 1)
    vs = np.repeat(levels, 128)[:n]
    channels = {name: channel() for name in ("SWA", "ERPM", "XACC", "YACC", "FUEL")}
    channels["VS"] = channel(vs) if draw(st.booleans()) else vs
    if draw(st.booleans()):  # accelerations of an everyday size, around the threshold
        for name in ("XACC", "YACC"):
            channels[name] = channel(size=2.0)
    return telemetry.DriveRecord(driver_id="h", channels=channels)


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


@settings(max_examples=300, deadline=None)
@given(records())
def test_half_block_statistics_match_the_gather_reference(record):
    starts = telemetry.split_windows(record)
    kept = telemetry.filter_by_mean_speed(record, starts)
    want_kept = reference_filter_by_mean_speed(record, starts)
    assert kept.dtype == want_kept.dtype and np.array_equal(kept, want_kept)
    with np.errstate(over="ignore", invalid="ignore"):
        for windows in (kept, starts):
            assert_same_columns(features.compute_features(record, windows),
                                reference_compute_features(record, windows))
            assert_same_columns(comfort.window_metrics(record, windows),
                                reference_window_metrics(record, windows))


def test_count_columns_are_int():
    # every window opens inside a run above PEAK_THRESHOLD that started before it
    record = telemetry.DriveRecord(driver_id="h", channels={
        name: np.full(512, 2.0) for name in telemetry.CHANNELS})
    starts = telemetry.split_windows(record)
    got = comfort.window_metrics(record, starts)
    want = reference_window_metrics(record, starts)
    for name, counts in (("n_x_pos", [1, 1, 1]), ("n_x_neg", [0, 0, 0]), ("n_y", [1, 1, 1])):
        assert got[name].dtype == want[name].dtype == np.intp
        assert got[name].tolist() == want[name].tolist() == counts
