"""Property tests of the columnar window layer against a per-window loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import comfort, features, pipeline, telemetry
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


def runs_above(window, threshold):
    count, prev = 0, False
    for v in window:
        count += v > threshold and not prev
        prev = v > threshold
    return count


@settings(max_examples=60, deadline=None)
@given(records())
def test_windows_metrics_and_features_match_a_per_window_loop(record):
    n = record.n_total
    starts = telemetry.split_windows(record)
    count = (n - 256) // 128 + 1 if n >= 256 else 0
    assert (128 * starts).tolist() == [128 * k for k in range(count)]

    kept = telemetry.filter_by_mean_speed(record, starts)
    ch = record.channels
    assert (128 * kept).tolist() == [s for s in (128 * starts).tolist()
                                     if np.mean(ch["VS"][s:s + 256]) >= SPEED_THRESHOLD_KMH]
    # every window lies within the record; the window table's sample starts
    # are the kept windows' half-block indices times 128
    assert np.all(128 * starts + 256 <= n)
    assert np.array_equal(pipeline.analyze_record(record)["window_start"], 128 * kept)

    wf = comfort.design_filter()
    x_filt = comfort.apply_filter(wf, ch["XACC"])
    y_filt = comfort.apply_filter(wf, ch["YACC"])
    want = {name: [] for name in ("msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg",
                                  "n_y", "fuel")}
    for s in (128 * kept).tolist():
        mx = np.sqrt(np.mean(x_filt[s:s + 256] ** 2))
        my = np.sqrt(np.mean(y_filt[s:s + 256] ** 2))
        x, y = ch["XACC"][s:s + 256], ch["YACC"][s:s + 256]
        want["msdv_x"].append(mx)
        want["msdv_y"].append(my)
        # mx * mx, not mx**2: a scalar's ** goes through libm pow, which can
        # round a square one ulp away from the exact product numpy's arrays use.
        want["vr"].append(np.sqrt((1.0 / 9.0) * (mx * mx) + (2.0 / 9.0) * (my * my)))
        want["n_x_pos"].append(runs_above(x, 1.75))
        want["n_x_neg"].append(runs_above(-x, 1.75))
        want["n_y"].append(runs_above(np.abs(y), 1.75))
        want["fuel"].append(np.mean(ch["FUEL"][s:s + 256]))
    metrics = comfort.window_metrics(record, kept)
    assert list(metrics) == list(want)
    for name, values in want.items():
        assert np.array_equal(metrics[name], np.array(values, dtype=float)), name

    feats = features.compute_features(record, kept)
    for name in features.FEATURE_SIGNALS:
        base = "XACC" if name.startswith("XACC") else name
        rows = [ch[base][s:s + 256] for s in (128 * kept).tolist()]
        if name == "XACC_pos":
            rows = [np.maximum(r, 0.0) for r in rows]
        elif name == "XACC_neg":
            rows = [np.maximum(-r, 0.0) for r in rows]
        assert np.array_equal(feats[f"{name} RMS"],
                              np.array([np.sqrt(np.mean(r**2)) for r in rows])), name
        assert np.array_equal(feats[f"{name} Var"], np.array([np.var(r) for r in rows])), name
