"""End-to-end orchestration shared by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import advisor, comfort, features, som, telemetry
from .comfort import WindowMetrics
from .features import AUX_FEATURES, MAIN_FEATURES, WindowFeatures
from .som import SomModel
from .telemetry import DriveRecord


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
        if not 0.0 < self.train_split < 1.0:
            raise PipelineError("train_split must be in (0, 1)")
        if self.peak_threshold <= 0 or self.speed_threshold <= 0:
            raise PipelineError("thresholds must be positive")


@dataclass
class AnalyzedRecord:
    """One record's kept window starts and their per-window columns."""

    record: DriveRecord
    windows: np.ndarray
    metrics: WindowMetrics
    features: WindowFeatures


def analyze_record(record: DriveRecord, config: RunConfig | None = None) -> AnalyzedRecord:
    """Window a record, drop slow-traffic windows, compute metrics + features."""
    config = config or RunConfig()
    windows = telemetry.filter_by_mean_speed(
        record, telemetry.split_windows(record), config.speed_threshold)
    return AnalyzedRecord(
        record=record,
        windows=windows,
        metrics=comfort.window_metrics(record, windows, config.peak_threshold),
        features=features.compute_features(record, windows),
    )


def _train_one(analyzed: list[AnalyzedRecord], feature_names, grid_dims,
               ordering_metric: str, config: RunConfig,
               seed_offset: int) -> tuple[SomModel, list[advisor.ClusterProfile]]:
    vectors = [features.feature_matrix(a.features, feature_names) for a in analyzed]
    train_vectors = np.vstack([v[:int(round(config.train_split * len(v)))] for v in vectors])
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
    model = SomModel(grid=trained, normalizer=normalizer, partition=partition,
                     labels=[], schedule=schedule,
                     train_seed=config.seed + seed_offset + 1,
                     cluster_seed=config.seed + seed_offset + 2,
                     qe_history=qe)
    profiles = advisor.profile_clusters(partition, model.bmu_indices(np.vstack(vectors)),
                                        [a.metrics for a in analyzed])
    model.labels = advisor.label_clusters(profiles, ordering_metric=ordering_metric)
    return model, profiles


@dataclass
class TrainResult:
    main_model: SomModel
    aux_model: SomModel
    main_profiles: list[advisor.ClusterProfile]
    aux_profiles: list[advisor.ClusterProfile]
    analyzed: list[AnalyzedRecord] = field(repr=False, default_factory=list)


def train_models(records: list[DriveRecord], config: RunConfig | None = None) -> TrainResult:
    """Full training pass over a set of drive records.

    The train/test split is chronological per driver (first ``train_split``
    fraction of each record's windows train the maps) to avoid leakage between
    overlapping windows.  Cluster profiles and labels use all windows.
    """
    config = config or RunConfig()
    analyzed = [analyze_record(r, config) for r in records]
    n_windows = sum(len(a.windows) for a in analyzed)
    if n_windows < 10:
        raise PipelineError(
            f"only {n_windows} windows after speed filtering; need >= 10")

    main_model, main_profiles = _train_one(
        analyzed, MAIN_FEATURES, config.grid_main, "vr", config, seed_offset=0)
    aux_model, aux_profiles = _train_one(
        analyzed, AUX_FEATURES, config.grid_aux, "fuel", config, seed_offset=100)
    return TrainResult(main_model=main_model, aux_model=aux_model,
                       main_profiles=main_profiles, aux_profiles=aux_profiles,
                       analyzed=analyzed)


def classify_all(analyzed: list[AnalyzedRecord], main_model: SomModel,
                 aux_model: SomModel) -> list[advisor.Classification]:
    """Classify the windows of each record, one record at a time."""
    return [advisor.classify_window(a.features, main_model, aux_model) for a in analyzed]
