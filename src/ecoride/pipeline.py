"""End-to-end orchestration shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import DataError, advisor, comfort, features, som, telemetry
from .features import AUX_FEATURES, MAIN_FEATURES
from .som import SomModel
from .telemetry import DriveRecord


# The paper's map shape and chronological train share (see ``train_models``).
GRID_SHAPE = (15, 15)
TRAIN_SPLIT = 0.75


@dataclass
class AnalyzedRecord:
    """One record's kept window starts and its per-window figures: the
    ``features.FEATURE_COLUMNS`` and the ``comfort.window_metrics`` columns,
    by name, one entry per kept window.  ``classify_all`` adds the
    classification columns of ``advisor.classify_window``."""

    record: DriveRecord
    windows: np.ndarray
    columns: dict[str, np.ndarray]


def analyze_record(record: DriveRecord) -> AnalyzedRecord:
    """Window a record, drop slow-traffic windows, compute metrics + features.

    Raises DataError naming the record, the window and the field when a
    feature or metric comes out non-finite (say, a square that overflows), so
    that no such window reaches a map or an output file.
    """
    windows = telemetry.filter_by_mean_speed(record, telemetry.split_windows(record))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        columns = {**features.compute_features(record, windows),
                   **comfort.window_metrics(record, windows)}
    for name, values in columns.items():
        bad = ~np.isfinite(values)
        if bad.any():
            start = int(windows[np.argmax(bad)])
            where = f" in {record.source}" if record.source else ""
            raise DataError(
                f"non-finite {name} in the window starting at sample {start} "
                f"(t = {record.t_start + start / telemetry.SAMPLE_RATE_HZ:.3f} s) "
                f"of record {record.driver_id}{where}")
    return AnalyzedRecord(record=record, windows=windows, columns=columns)


def fleet_columns(analyzed: list[AnalyzedRecord]) -> dict[str, np.ndarray]:
    """Each column over the windows of all records, in record order."""
    return {name: np.concatenate([a.columns[name] for a in analyzed])
            for name in analyzed[0].columns}


def _train_one(fleet: dict[str, np.ndarray], train_rows: np.ndarray, feature_names,
               ordering_metric: str, seed: int) -> tuple[SomModel, dict[str, np.ndarray]]:
    vectors = features.feature_matrix(fleet, feature_names)
    train_vectors = vectors[train_rows]
    normalizer = features.fit_normalizer(train_vectors, feature_names)
    normalized = normalizer.transform(train_vectors)
    grid = som.init_random(*GRID_SHAPE, normalized, seed=seed)
    schedule = som.default_schedule(len(normalized), *GRID_SHAPE)
    trained, qe = som.train(grid, normalized, schedule, seed=seed + 1)
    hits = som.hit_histogram(trained, normalized)
    partition = som.cluster_prototypes(trained, len(advisor.LABELS), seed=seed + 2,
                                       hit_counts=hits)
    profile = advisor.profile_clusters(
        partition, som.bmus(trained, normalizer.transform(vectors))[0], fleet)
    model = SomModel(grid=trained, normalizer=normalizer, partition=partition,
                     labels=advisor.label_clusters(profile[ordering_metric]),
                     schedule=schedule, train_seed=seed + 1, cluster_seed=seed + 2,
                     qe_history=qe)
    return model, profile


@dataclass
class TrainResult:
    main_model: SomModel
    aux_model: SomModel
    main_profile: dict[str, np.ndarray]  # advisor.profile_clusters tables
    aux_profile: dict[str, np.ndarray]
    analyzed: list[AnalyzedRecord] = field(repr=False, default_factory=list)


def train_models(records: list[DriveRecord], seed: int = 0) -> TrainResult:
    """Full training pass over a set of drive records.

    The train/test split is chronological per driver (first ``TRAIN_SPLIT``
    fraction of each record's windows train the maps) to avoid leakage between
    overlapping windows.  Cluster profiles and labels use all windows.  The
    main map draws its seeds from ``seed``, the aux map from ``seed + 100``.
    """
    analyzed = [analyze_record(r) for r in records]
    sizes = [len(a.windows) for a in analyzed]
    if sum(sizes) < 10:
        raise DataError(f"only {sum(sizes)} windows after speed filtering; need >= 10")

    fleet = fleet_columns(analyzed)
    train_rows = np.concatenate([np.arange(n) < round(TRAIN_SPLIT * n) for n in sizes])
    main_model, main_profile = _train_one(fleet, train_rows, MAIN_FEATURES, "vr", seed)
    aux_model, aux_profile = _train_one(fleet, train_rows, AUX_FEATURES, "fuel", seed + 100)
    return TrainResult(main_model=main_model, aux_model=aux_model,
                       main_profile=main_profile, aux_profile=aux_profile,
                       analyzed=analyzed)


def classify_all(analyzed: list[AnalyzedRecord], main_model: SomModel,
                 aux_model: SomModel) -> None:
    """Add the classification columns of ``advisor.classify_window`` to each
    record's ``columns``, one record at a time."""
    for a in analyzed:
        a.columns.update(advisor.classify_window(a.columns, main_model, aux_model))
