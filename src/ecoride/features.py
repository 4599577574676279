"""Per-window driving-style features, correlation analysis and normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DataError, save_csv
from .comfort import weighted_rms
from .telemetry import DriveRecord, window_rows

# Signals summarized per window (RMS + variance each).
FEATURE_SIGNALS = ("SWA", "VS", "XACC", "XACC_neg", "XACC_pos", "YACC", "ERPM")

# Names of the per-window feature columns: RMS, then Var, of each signal.
FEATURE_COLUMNS = tuple(f"{name} {stat}" for name in FEATURE_SIGNALS for stat in ("RMS", "Var"))

# Fixed feature selections feeding the two maps.
MAIN_FEATURES = ("SWA", "XACC_neg", "XACC_pos", "YACC", "ERPM")
AUX_FEATURES = ("XACC_pos", "ERPM")

# The two maps, in the order every layer handles them: (tag, features, report
# metrics, seed offset, label column).  The tag names the model file
# ``<tag>_som.json`` and the ``<tag>_bmu`` column; the first metric orders the labels.
MAPS = (("main", MAIN_FEATURES, ("vr", "msdv_y"), 0, "comfort_label"),
        ("aux", AUX_FEATURES, ("fuel",), 100, "fuel_label"))

CORRELATION_TARGETS = ("fuel", "n_x_pos", "n_x_neg", "n_y", "msdv_y", "vr")


def compute_features(record: DriveRecord, windows: np.ndarray) -> dict[str, np.ndarray]:
    """The ``FEATURE_COLUMNS`` of one record: RMS and population variance of
    each driving signal, one entry per window of ``telemetry.split_windows``.

    Both come from each window's samples (``telemetry.window_rows``),
    gathered once per signal: ``comfort.weighted_rms`` and ``np.var`` along
    the row.
    """
    xacc = record.channels["XACC"]
    signals = {name: record.channels[name] for name in ("SWA", "VS", "XACC", "YACC", "ERPM")}
    signals["XACC_pos"] = np.maximum(xacc, 0.0)
    signals["XACC_neg"] = np.maximum(-xacc, 0.0)
    columns = {}
    for name in FEATURE_SIGNALS:
        rows = window_rows(signals[name], windows)
        columns[f"{name} RMS"] = weighted_rms(rows)
        columns[f"{name} Var"] = rows.var(axis=1)
    return columns


def feature_matrix(columns: dict[str, np.ndarray], names) -> np.ndarray:
    """(n_windows, n_features) matrix of the RMS columns of signals ``names``."""
    return np.column_stack([columns[f"{n} RMS"] for n in names])


def correlation_table(columns: dict[str, np.ndarray]) -> np.ndarray:
    """PCC of every feature column against every comfort/fuel target over the
    windows of ``columns``: one row per ``CORRELATION_TARGETS`` entry, one
    column per ``FEATURE_COLUMNS`` entry, in their order.  A column that is
    the same in every window is a DataError naming it.

    Every sum runs along one row of the (targets + features, windows) block,
    so it adds the terms of a per-pair ``np.sum`` in the same order.
    """
    names = (*CORRELATION_TARGETS, *FEATURE_COLUMNS)
    block = np.array([columns[name] for name in names], dtype=float)
    n = block.shape[1]
    if n < 2:
        raise DataError("need at least 2 windows")
    flat = np.ptp(block, axis=1) == 0.0
    if flat.any():
        raise DataError(f"{names[np.argmax(flat)]} is the same in all {n} windows: "
                        "its correlations are undefined")
    d = block - block.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(d**2, axis=1))
    k = len(CORRELATION_TARGETS)
    sums = np.array([np.sum(target * d[k:], axis=1) for target in d[:k]])
    return np.clip(sums / np.outer(norms[:k], norms[k:]), -1.0, 1.0)


def write_correlation_csv(table: np.ndarray, path) -> None:
    save_csv(path, ["target", *FEATURE_COLUMNS],
             ([label, *[f"{v:.4f}" for v in row]]
              for label, row in zip(CORRELATION_TARGETS, table)))


@dataclass
class Normalizer:
    """Per-feature z-score parameters fitted on training data."""

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, vectors: np.ndarray) -> np.ndarray:
        return (np.asarray(vectors, dtype=float) - self.mean) / self.std


def fit_normalizer(training: np.ndarray, feature_names) -> Normalizer:
    """Fit z-score parameters; the fitted set maps to mean 0 / std 1."""
    training = np.asarray(training, dtype=float)
    mean = training.mean(axis=0)
    std = training.std(axis=0)
    for i, s in enumerate(std):
        if s == 0.0:
            raise DataError(f"zero-variance feature: {feature_names[i]}")
    return Normalizer(feature_names=tuple(feature_names), mean=mean, std=std)
