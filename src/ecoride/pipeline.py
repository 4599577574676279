"""End-to-end orchestration shared by the CLI and the test suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import advisor, comfort, features, som, telemetry
from .features import AUX_FEATURES, MAIN_FEATURES
from .som import SomModel
from .telemetry import DriveRecord, TelemetryError


class PipelineError(Exception):
    pass


@dataclass
class RunConfig:
    grid_main: tuple[int, int] = (15, 15)
    grid_aux: tuple[int, int] = (15, 15)
    seed: int = 0
    k_stable: int = 3
    peak_threshold: float = comfort.PEAK_THRESHOLD
    speed_threshold: float = telemetry.SPEED_THRESHOLD_KMH
    train_split: float = 0.75
    kmeans_restarts: int = 32

    def __post_init__(self):
        """Check every value before any work; a grid may come as a list."""
        for name in ("grid_main", "grid_aux"):
            grid = getattr(self, name)
            if not (isinstance(grid, (list, tuple)) and len(grid) == 2
                    and all(_is_int(v) and v >= 1 for v in grid)):
                raise PipelineError(f"{name} must be two positive integers, got {grid!r}")
            setattr(self, name, tuple(grid))
        for name, least in (("seed", 0), ("k_stable", 1), ("kmeans_restarts", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise PipelineError(f"{name} must be an integer >= {least}, got {value!r}")
        for name, high in (("train_split", 1.0), ("peak_threshold", math.inf),
                           ("speed_threshold", math.inf)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0.0 < value < high):
                raise PipelineError(f"{name} must be a number in (0, {high:g}), got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class AnalyzedRecord:
    """One record's kept window starts and its per-window figures: the
    ``features.FEATURE_COLUMNS`` and the ``comfort.window_metrics`` columns,
    by name, one entry per kept window.  ``classify_all`` adds the
    classification columns of ``advisor.classify_window``."""

    record: DriveRecord
    windows: np.ndarray
    columns: dict[str, np.ndarray]


def analyze_record(record: DriveRecord, config: RunConfig | None = None) -> AnalyzedRecord:
    """Window a record, drop slow-traffic windows, compute metrics + features.

    Raises TelemetryError naming the record, the window and the field when a
    feature or metric comes out non-finite (say, a square that overflows), so
    that no such window reaches a map or an output file.
    """
    config = config or RunConfig()
    windows = telemetry.filter_by_mean_speed(
        record, telemetry.split_windows(record), config.speed_threshold)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        columns = {**features.compute_features(record, windows),
                   **comfort.window_metrics(record, windows, config.peak_threshold)}
    for name, values in columns.items():
        bad = ~np.isfinite(values)
        if bad.any():
            start = int(windows[np.argmax(bad)])
            where = f" in {record.source}" if record.source else ""
            raise TelemetryError(
                f"non-finite {name} in the window starting at sample {start} "
                f"(t = {record.t_start + start / telemetry.SAMPLE_RATE_HZ:.3f} s) "
                f"of record {record.driver_id}{where}")
    return AnalyzedRecord(record=record, windows=windows, columns=columns)


def fleet_columns(analyzed: list[AnalyzedRecord]) -> dict[str, np.ndarray]:
    """Each column over the windows of all records, in record order."""
    return {name: np.concatenate([a.columns[name] for a in analyzed])
            for name in analyzed[0].columns}


def _train_one(fleet: dict[str, np.ndarray], train_rows: np.ndarray, feature_names,
               grid_dims, ordering_metric: str, config: RunConfig,
               seed_offset: int) -> tuple[SomModel, dict[str, np.ndarray]]:
    vectors = features.feature_matrix(fleet, feature_names)
    train_vectors = vectors[train_rows]
    normalizer = features.fit_normalizer(train_vectors, feature_names)
    normalized = normalizer.transform(train_vectors)
    rows, cols = grid_dims
    grid = som.init_random(rows, cols, normalized, seed=config.seed + seed_offset)
    schedule = som.default_schedule(len(normalized), rows, cols)
    trained, qe = som.train(grid, normalized, schedule,
                            seed=config.seed + seed_offset + 1)
    hits = som.hit_histogram(trained, normalized)
    partition = som.cluster_prototypes(trained, len(advisor.LABELS),
                                       restarts=config.kmeans_restarts,
                                       seed=config.seed + seed_offset + 2,
                                       hit_counts=hits)
    profile = advisor.profile_clusters(
        partition, som.bmus(trained, normalizer.transform(vectors))[0], fleet)
    model = SomModel(grid=trained, normalizer=normalizer, partition=partition,
                     labels=advisor.label_clusters(profile[ordering_metric]),
                     schedule=schedule, train_seed=config.seed + seed_offset + 1,
                     cluster_seed=config.seed + seed_offset + 2, qe_history=qe)
    return model, profile


@dataclass
class TrainResult:
    main_model: SomModel
    aux_model: SomModel
    main_profile: dict[str, np.ndarray]  # advisor.profile_clusters tables
    aux_profile: dict[str, np.ndarray]
    analyzed: list[AnalyzedRecord] = field(repr=False, default_factory=list)


def train_models(records: list[DriveRecord], config: RunConfig | None = None) -> TrainResult:
    """Full training pass over a set of drive records.

    The train/test split is chronological per driver (first ``train_split``
    fraction of each record's windows train the maps) to avoid leakage between
    overlapping windows.  Cluster profiles and labels use all windows.
    """
    config = config or RunConfig()
    analyzed = [analyze_record(r, config) for r in records]
    sizes = [len(a.windows) for a in analyzed]
    if sum(sizes) < 10:
        raise PipelineError(
            f"only {sum(sizes)} windows after speed filtering; need >= 10")

    fleet = fleet_columns(analyzed)
    train_rows = np.concatenate([np.arange(n) < round(config.train_split * n) for n in sizes])
    main_model, main_profile = _train_one(
        fleet, train_rows, MAIN_FEATURES, config.grid_main, "vr", config, seed_offset=0)
    aux_model, aux_profile = _train_one(
        fleet, train_rows, AUX_FEATURES, config.grid_aux, "fuel", config, seed_offset=100)
    return TrainResult(main_model=main_model, aux_model=aux_model,
                       main_profile=main_profile, aux_profile=aux_profile,
                       analyzed=analyzed)


def classify_all(analyzed: list[AnalyzedRecord], main_model: SomModel,
                 aux_model: SomModel) -> None:
    """Add the classification columns of ``advisor.classify_window`` to each
    record's ``columns``, one record at a time."""
    for a in analyzed:
        a.columns.update(advisor.classify_window(a.columns, main_model, aux_model))
