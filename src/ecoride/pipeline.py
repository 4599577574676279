"""End-to-end orchestration shared by the CLI and the test suite."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import DataError, advisor, comfort, features, som, telemetry
from .features import AUX_FEATURES, MAIN_FEATURES
from .som import SomModel
from .telemetry import DriveRecord


# The paper's map shape and chronological train share (see ``train_models``).
GRID_SHAPE = (15, 15)
TRAIN_SPLIT = 0.75


def analyze_record(record: DriveRecord) -> dict[str, np.ndarray]:
    """A record's window table: ``window_start``, the first sample of each
    window kept by the speed filter, and the window's ``features.FEATURE_COLUMNS``
    and ``comfort.window_metrics`` columns, one array entry per window.

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
    return {"window_start": windows, **columns}


def analyze_fleet(records: Iterable[DriveRecord]) -> dict[str, np.ndarray]:
    """The window tables of ``records`` joined record after record, plus a
    ``driver`` column: the index in ``records`` of each window's record.
    From a generator, one record is held at a time: ``map`` drops each once
    its table is made, where a comprehension's variable would keep it."""
    tables = list(map(analyze_record, records))
    if not tables:
        raise DataError("no drive records to analyze")
    sizes = [len(t["window_start"]) for t in tables]
    return {"driver": np.repeat(np.arange(len(tables)), sizes),
            **{name: np.concatenate([t[name] for t in tables]) for name in tables[0]}}


def _cluster_and_label(fleet: dict[str, np.ndarray], vectors: np.ndarray,
                       train_rows: np.ndarray, normalizer, trained: som.SomGrid,
                       qe: list[float], train_bmus: np.ndarray, schedule,
                       ordering_metric: str,
                       seed: int) -> tuple[SomModel, dict[str, np.ndarray]]:
    """Cluster one trained map's prototypes, profile the clusters over every
    window (``vectors``) and label them by ``ordering_metric``.

    ``train_bmus`` are the BMU indices of the training rows from training's
    last search, at the trained weights; they give the hit counts and the
    training rows' part of the profile, so only the held-out rows are
    searched here.  Normalizing is elementwise, so the held-out rows alone
    normalize to the doubles they have among all rows.
    """
    hits = np.bincount(train_bmus, minlength=trained.n_neurons)
    assignment = som.cluster_prototypes(trained, len(advisor.LABELS), seed=seed + 2,
                                        hit_counts=hits)
    window_bmus = np.empty(len(vectors), dtype=np.intp)
    window_bmus[train_rows] = train_bmus
    held_out = ~train_rows
    window_bmus[held_out] = som.bmus(trained, normalizer.transform(vectors[held_out]))[0]
    profile = advisor.profile_clusters(assignment, window_bmus, fleet)
    model = SomModel(grid=trained, normalizer=normalizer, assignment=assignment,
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


def train_models(fleet: dict[str, np.ndarray], seed: int = 0) -> TrainResult:
    """Full training pass over the window table ``fleet`` of ``analyze_fleet``.

    The train/test split is chronological per driver (first ``TRAIN_SPLIT``
    fraction of each record's windows train the maps) to avoid leakage between
    overlapping windows.  Both maps train in one lockstep ``som.train`` call
    on the same rows.  Cluster profiles and labels use all windows.  The main
    map draws its seeds from ``seed``, the aux map from ``seed + 100``.
    """
    total = len(fleet["driver"])
    if total < 10:
        raise DataError(f"only {total} windows after speed filtering; need >= 10")

    sizes = np.bincount(fleet["driver"]).tolist()
    train_rows = np.concatenate([np.arange(n) < round(TRAIN_SPLIT * n) for n in sizes])
    maps = ((MAIN_FEATURES, "vr", seed), (AUX_FEATURES, "fuel", seed + 100))
    vectors = [features.feature_matrix(fleet, names) for names, _, _ in maps]
    normalizers = [features.fit_normalizer(v[train_rows], names)
                   for v, (names, _, _) in zip(vectors, maps)]
    normalized = [n.transform(v[train_rows]) for n, v in zip(normalizers, vectors)]
    grids = [som.init_random(*GRID_SHAPE, z, seed=s)
             for z, (_, _, s) in zip(normalized, maps)]
    schedule = som.default_schedule(len(normalized[0]), *GRID_SHAPE)
    trained = som.train(grids, normalized, schedule, [s + 1 for _, _, s in maps])
    (main_model, main_profile), (aux_model, aux_profile) = (
        _cluster_and_label(fleet, v, train_rows, n, grid, qe, bmu, schedule, metric, s)
        for v, n, (grid, qe, bmu), (_, metric, s) in zip(vectors, normalizers, trained, maps))
    return TrainResult(main_model=main_model, aux_model=aux_model,
                       main_profile=main_profile, aux_profile=aux_profile)


def classify_all(fleet: dict[str, np.ndarray], main_model: SomModel,
                 aux_model: SomModel) -> None:
    """Add the classification columns of ``advisor.classify_window`` to the
    window table ``fleet``, with one batched BMU search per map."""
    fleet.update(advisor.classify_window(fleet, main_model, aux_model))
