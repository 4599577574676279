"""Frequency-weighted ride-comfort metrics.

Implements the motion-sickness band-pass weighting filter, the windowed motion
sickness dose value (MSDV), the combined vomit rate, and threshold-based
acceleration peak counting.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal

from .telemetry import SAMPLE_RATE_HZ, DriveRecord, window_rows

PEAK_THRESHOLD = 1.75  # m/s^2

# (low corner, high corner) in Hz of the motion-sickness weighting filter.
FILTER_CORNERS = (0.02, 0.3)

# The columns of ``window_metrics``, in its order.
METRICS = ("msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel")


@functools.cache
def design_filter() -> np.ndarray:
    """Second-order Butterworth high-pass cascaded with second-order low-pass
    at the ``FILTER_CORNERS``, as stacked second-order sections.

    Both sections come from the bilinear transform of continuous prototypes,
    so the magnitude at each corner is 1/sqrt(2) of the section passband and
    the DC gain is exactly 0. Designed once per process; the array is
    read-only, as every caller shares it.
    """
    lo, hi = FILTER_CORNERS
    hp = signal.butter(2, lo, btype="highpass", fs=SAMPLE_RATE_HZ, output="sos")
    lp = signal.butter(2, hi, btype="lowpass", fs=SAMPLE_RATE_HZ, output="sos")
    sos = np.vstack([hp, lp])
    sos.flags.writeable = False
    return sos


def apply_filter(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Causal forward-only filtering; same length as the input."""
    x = np.asarray(x, dtype=float)
    return signal.sosfilt(np.array(sos), x)  # sosfilt needs a writable sos


def weighted_rms(values: np.ndarray) -> np.ndarray:
    """RMS over the last axis: one window per row."""
    values = np.asarray(values, dtype=float)
    return np.sqrt(np.mean(values**2, axis=-1))


def msdv(filtered_axis: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Per-window MSDV: ``weighted_rms`` of each window's samples of the
    motion-sickness-filtered axis (``telemetry.window_rows``)."""
    return weighted_rms(window_rows(filtered_axis, windows))


def vomit_rate(msdv_x, msdv_y) -> np.ndarray:
    """Combined longitudinal/lateral motion-sickness measure, one window per entry.

    VR = sqrt((1/3)^2 MSDV_x^2 + (sqrt(2)/3)^2 MSDV_y^2)
    """
    msdv_x = np.asarray(msdv_x, dtype=float)
    msdv_y = np.asarray(msdv_y, dtype=float)
    return np.sqrt((1.0 / 9.0) * msdv_x**2 + (2.0 / 9.0) * msdv_y**2)


def count_peaks(window_signal: np.ndarray, threshold: float = PEAK_THRESHOLD) -> np.ndarray:
    """Number of exceedance events (maximal runs of samples above threshold)
    over the last axis: one window per row."""
    above = np.asarray(window_signal, dtype=float) > threshold
    return np.count_nonzero(above[..., 1:] & ~above[..., :-1], axis=-1) + above[..., 0]


def window_fuel(record: DriveRecord, windows: np.ndarray) -> np.ndarray:
    """Mean FUEL of each window: the ``fuel`` column of ``window_metrics``."""
    return window_rows(record.channels["FUEL"], windows).mean(axis=1)


def window_metrics(record: DriveRecord, windows: np.ndarray) -> dict[str, np.ndarray]:
    """Per-window comfort metrics and mean fuel consumption: one column per
    metric, one entry per window of ``telemetry.split_windows``.

    The motion-sickness filter runs once over the full-length XACC/YACC
    channels, both in one call; windowing happens afterwards so filter
    transients do not restart at every window.  Each column reduces each
    window's samples (``telemetry.window_rows``): ``msdv`` of the filtered
    axes (and ``vr`` from it), ``count_peaks`` of the raw ones and the mean
    of FUEL.  As ``PEAK_THRESHOLD`` is positive, ``max(x, 0)`` exceeds it
    where ``x`` does, and ``max(-x, 0)`` where ``-x`` does.
    """
    xacc = record.channels["XACC"]
    yacc = record.channels["YACC"]
    filtered = apply_filter(design_filter(), np.stack([xacc, yacc]))
    mx, my = msdv(filtered[0], windows), msdv(filtered[1], windows)
    x_rows = window_rows(xacc, windows)
    return {
        "msdv_x": mx,
        "msdv_y": my,
        "vr": vomit_rate(mx, my),
        "n_x_pos": count_peaks(x_rows),
        "n_x_neg": count_peaks(-x_rows),
        "n_y": count_peaks(np.abs(window_rows(yacc, windows))),
        "fuel": window_fuel(record, windows),
    }
