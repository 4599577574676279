"""Property tests of the columnar window layer against a per-window loop: the
speed filter's mean, the 7 comfort/fuel metrics and the 14 features, each
taken from a slice of the record one window at a time, bit for bit and dtype
for dtype; on records whose speed wanders across the filter threshold, and on
records of extreme values."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import comfort, features, pipeline, telemetry
from ecoride.comfort import PEAK_THRESHOLD
from ecoride.telemetry import SPEED_THRESHOLD_KMH


@st.composite
def records(draw):
    """Random-length record whose speed wanders across the filter threshold."""
    n = draw(st.integers(1, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.lists(st.floats(30.0, 90.0), min_size=1, max_size=6))
    vs = np.interp(np.arange(n), np.linspace(0, max(n - 1, 1), len(levels)), levels)
    channels = {
        "SWA": 10.0 * rng.standard_normal(n),
        "VS": vs,
        "ERPM": 2500.0 + 100.0 * rng.standard_normal(n),
        "XACC": 1.5 * rng.standard_normal(n),
        "YACC": 1.5 * rng.standard_normal(n),
        "FUEL": 3.0 + 0.2 * rng.standard_normal(n),
    }
    return telemetry.DriveRecord(driver_id="p", channels=channels)


# values placed on samples at random: signed zeros and the exact thresholds
SPECIAL = np.array([0.0, -0.0, PEAK_THRESHOLD, -PEAK_THRESHOLD, SPEED_THRESHOLD_KMH])


@st.composite
def extreme_records(draw):
    """A record of any length below or above 256, not only whole multiples of
    128, with samples from 1e-150 to 1e150 in size, signed zeros and samples
    at ``PEAK_THRESHOLD`` and 60 km/h; its speed holds one level per 128
    samples (60 km/h exactly, one ulp above or below it, slow or fast), so
    runs of windows pass and fail the speed filter."""
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


def runs_above(window, threshold):
    count, prev = 0, False
    for v in window:
        count += v > threshold and not prev
        prev = v > threshold
    return count


def loop_kept(record, starts):
    """The window starts of ``starts`` whose window's mean speed passes."""
    vs = record.channels["VS"]
    return [s for s in starts.tolist() if np.mean(vs[s:s + 256]) >= SPEED_THRESHOLD_KMH]


def loop_metrics(record, windows):
    """``comfort.window_metrics`` of ``windows``, one window at a time."""
    ch = record.channels
    wf = comfort.design_filter()
    x_filt = comfort.apply_filter(wf, ch["XACC"])
    y_filt = comfort.apply_filter(wf, ch["YACC"])
    want = {name: [] for name in ("msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg",
                                  "n_y", "fuel")}
    for s in windows.tolist():
        mx = np.sqrt(np.mean(x_filt[s:s + 256] ** 2))
        my = np.sqrt(np.mean(y_filt[s:s + 256] ** 2))
        x, y = ch["XACC"][s:s + 256], ch["YACC"][s:s + 256]
        want["msdv_x"].append(mx)
        want["msdv_y"].append(my)
        # mx * mx, not mx**2: a scalar's ** goes through libm pow, which can
        # round a square one ulp away from the exact product numpy's arrays use.
        want["vr"].append(np.sqrt((1.0 / 9.0) * (mx * mx) + (2.0 / 9.0) * (my * my)))
        # the positive and negative parts, as the XACC_pos/XACC_neg features take them
        want["n_x_pos"].append(runs_above(np.maximum(x, 0.0), 1.75))
        want["n_x_neg"].append(runs_above(np.maximum(-x, 0.0), 1.75))
        want["n_y"].append(runs_above(np.abs(y), 1.75))
        want["fuel"].append(np.mean(ch["FUEL"][s:s + 256]))
    return {name: np.array(values, dtype=np.intp if name.startswith("n_") else float)
            for name, values in want.items()}


def loop_features(record, windows):
    """``features.compute_features`` of ``windows``, one window at a time."""
    want = {}
    for name in features.FEATURE_SIGNALS:
        base = "XACC" if name.startswith("XACC") else name
        rows = [record.channels[base][s:s + 256] for s in windows.tolist()]
        if name == "XACC_pos":
            rows = [np.maximum(r, 0.0) for r in rows]
        elif name == "XACC_neg":
            rows = [np.maximum(-r, 0.0) for r in rows]
        want[f"{name} RMS"] = np.array([np.sqrt(np.mean(r**2)) for r in rows], dtype=float)
        want[f"{name} Var"] = np.array([np.var(r) for r in rows], dtype=float)
    return want


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(records())
def test_windows_metrics_and_features_match_a_per_window_loop(record):
    n = record.n_total
    starts = telemetry.split_windows(record)
    count = (n - 256) // 128 + 1 if n >= 256 else 0
    assert len(starts) == count and starts.tolist() == list(range(0, n - 255, 128))

    kept = telemetry.filter_by_mean_speed(record, starts)
    assert kept.tolist() == loop_kept(record, starts)
    # every window lies within the record; the window table's starts are the kept windows
    assert np.all(starts + 256 <= n)
    assert np.array_equal(pipeline.analyze_record(record)["window_start"], kept)

    assert_same_columns(comfort.window_metrics(record, kept), loop_metrics(record, kept))
    assert_same_columns(features.compute_features(record, kept), loop_features(record, kept))


@settings(max_examples=300, deadline=None)
@given(extreme_records())
def test_extreme_records_match_a_per_window_loop(record):
    starts = telemetry.split_windows(record)
    kept = telemetry.filter_by_mean_speed(record, starts)
    assert kept.dtype == np.intp and kept.tolist() == loop_kept(record, starts)
    with np.errstate(over="ignore", invalid="ignore"):
        for windows in (kept, starts):
            assert_same_columns(comfort.window_metrics(record, windows),
                                loop_metrics(record, windows))
            assert_same_columns(features.compute_features(record, windows),
                                loop_features(record, windows))


def test_count_columns_are_int():
    # every window opens inside a run above PEAK_THRESHOLD that started before it
    record = telemetry.DriveRecord(driver_id="h", channels={
        name: np.full(512, 2.0) for name in telemetry.CHANNELS})
    starts = telemetry.split_windows(record)
    got = comfort.window_metrics(record, starts)
    for name, counts in (("n_x_pos", [1, 1, 1]), ("n_x_neg", [0, 0, 0]), ("n_y", [1, 1, 1])):
        assert got[name].dtype == np.intp
        assert got[name].tolist() == counts
