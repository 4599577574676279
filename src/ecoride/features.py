"""Per-window driving-style features, correlation analysis and normalization."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .comfort import WindowMetrics, weighted_rms
from .telemetry import DriveRecord, window_rows

# Signals summarized per window (RMS + variance each).
FEATURE_SIGNALS = ("SWA", "VS", "XACC", "XACC_neg", "XACC_pos", "YACC", "ERPM")

# Fixed feature selections feeding the two maps.
MAIN_FEATURES = ("SWA", "XACC_neg", "XACC_pos", "YACC", "ERPM")
AUX_FEATURES = ("XACC_pos", "ERPM")

CORRELATION_TARGETS = ("fuel", "n_x_pos", "n_x_neg", "n_y", "msdv_y", "vr")


class FeatureError(Exception):
    pass


@dataclass
class WindowFeatures:
    """RMS and population variance per driving signal of one record: one
    array entry per kept window."""

    rms: dict[str, np.ndarray]
    var: dict[str, np.ndarray]


def compute_features(record: DriveRecord, windows: np.ndarray) -> WindowFeatures:
    """RMS and population variance of each driving signal per window."""
    for name in ("SWA", "VS", "XACC", "YACC", "ERPM"):
        if name not in record.channels:
            raise FeatureError(f"record lacks required channel {name}")
    signals = {name: window_rows(record.channels[name], windows)
               for name in ("SWA", "VS", "XACC", "YACC", "ERPM")}
    signals["XACC_pos"] = np.maximum(signals["XACC"], 0.0)
    signals["XACC_neg"] = np.maximum(-signals["XACC"], 0.0)
    return WindowFeatures(rms={n: weighted_rms(signals[n]) for n in FEATURE_SIGNALS},
                          var={n: np.var(signals[n], axis=1) for n in FEATURE_SIGNALS})


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise FeatureError("pearson needs two equal-length sequences of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx**2))
    sy = np.sqrt(np.sum(dy**2))
    if sx == 0.0 or sy == 0.0:
        raise FeatureError("undefined correlation: zero-variance input")
    return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))


def feature_matrix(features: WindowFeatures, names=MAIN_FEATURES) -> np.ndarray:
    """(n_windows, n_features) matrix of RMS features of one record."""
    return np.column_stack([features.rms[n] for n in names])


def correlation_table(features: list[WindowFeatures],
                      metrics: list[WindowMetrics]) -> tuple[list[str], list[str], np.ndarray]:
    """PCC of every RMS/Var feature column against every comfort/fuel target,
    over the windows of all records (one features/metrics pair per record).

    Returns (target row labels, feature column labels, table) where table has
    shape (n_targets, n_feature_columns), columns interleaved RMS then Var per
    signal.
    """
    if len(features) != len(metrics):
        raise FeatureError("features and metrics counts differ")
    if sum(len(m.window_start) for m in metrics) < 2:
        raise FeatureError("need at least 2 windows")
    columns: list[str] = []
    data: list[np.ndarray] = []
    for name in FEATURE_SIGNALS:
        columns.append(f"{name} RMS")
        data.append(np.concatenate([f.rms[name] for f in features]))
        columns.append(f"{name} Var")
        data.append(np.concatenate([f.var[name] for f in features]))
    targets = {t: np.concatenate([getattr(m, t) for m in metrics]).astype(float)
               for t in CORRELATION_TARGETS}
    table = np.array([[pearson(targets[t], col) for col in data]
                      for t in CORRELATION_TARGETS])
    return list(CORRELATION_TARGETS), columns, table


def write_correlation_csv(row_labels, col_labels, table, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", *col_labels])
        for label, row in zip(row_labels, table):
            writer.writerow([label, *[f"{v:.4f}" for v in row]])


@dataclass
class Normalizer:
    """Per-feature z-score parameters fitted on training data."""

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, vectors: np.ndarray) -> np.ndarray:
        return (np.asarray(vectors, dtype=float) - self.mean) / self.std


def fit_normalizer(training: np.ndarray, feature_names=MAIN_FEATURES) -> Normalizer:
    """Fit z-score parameters; the fitted set maps to mean 0 / std 1."""
    training = np.asarray(training, dtype=float)
    if training.ndim != 2 or training.shape[0] < 2:
        raise FeatureError("need at least 2 training vectors")
    mean = training.mean(axis=0)
    std = training.std(axis=0)
    for i, s in enumerate(std):
        if s == 0.0:
            raise FeatureError(f"zero-variance feature: {feature_names[i]}")
    return Normalizer(feature_names=tuple(feature_names), mean=mean, std=std)
