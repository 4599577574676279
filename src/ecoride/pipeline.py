"""End-to-end orchestration shared by the CLI and the test suite."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import repeat

import numpy as np

from . import DataError, advisor, comfort, features, som, telemetry
from .features import MAPS
from .som import SomModel
from .telemetry import DriveRecord


# The paper's map shape and chronological train share (see ``train_models``).
GRID_SHAPE = (15, 15)
TRAIN_SPLIT = 0.75

# Every window column of ``analyze_record``, in the order it checks them.
COLUMNS = (*features.FEATURE_COLUMNS, *comfort.METRICS)


def analyze_record(record: DriveRecord, columns=COLUMNS) -> dict[str, np.ndarray]:
    """A record's window table: ``window_start``, the first sample of each
    window kept by the speed filter, and the window columns named in
    ``columns`` (by default every one of ``COLUMNS``), in ``COLUMNS`` order,
    one array entry per window.

    Only the named columns are computed: ``features.compute_features`` takes
    the selection, and ``comfort.window_metrics``, with its filter and peak
    counts, runs only where a metric other than ``fuel`` is named, and then
    gives all of its columns.  ``fuel`` alone is ``comfort.window_fuel``, the
    function ``window_metrics`` takes it from.

    Raises DataError naming the record, the window and the field when a
    computed column comes out non-finite (say, a square that overflows), so
    that no such window reaches a map or an output file.
    """
    wanted = set(columns)
    starts = telemetry.filter_by_mean_speed(record, telemetry.split_windows(record))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        table = features.compute_features(record, starts, wanted)
        if wanted & (set(comfort.METRICS) - {"fuel"}):
            table.update(comfort.window_metrics(record, starts))
        elif "fuel" in wanted:  # no filter or peak count for fuel alone
            table["fuel"] = comfort.window_fuel(record, starts)
    for name, values in table.items():
        bad = ~np.isfinite(values)
        if bad.any():
            start = int(starts[np.argmax(bad)])
            where = f" in {record.source}" if record.source else ""
            raise DataError(
                f"non-finite {name} in the window starting at sample {start} "
                f"(t = {record.t_start + start / telemetry.SAMPLE_RATE_HZ:.3f} s) "
                f"of record {record.driver_id}{where}")
    return {"window_start": starts, **table}


def analyze_fleet(records: Iterable[DriveRecord], columns=COLUMNS) -> dict[str, np.ndarray]:
    """The window tables of ``records``, each holding the window columns named
    in ``columns`` (see ``analyze_record``), joined record after record, plus
    a ``driver`` column: the index in ``records`` of each window's record.
    From a generator, one record is held at a time: ``map`` drops each once
    its table is made, where a comprehension's variable would keep it."""
    tables = list(map(analyze_record, records, repeat(columns)))
    sizes = [len(t["window_start"]) for t in tables]
    return {"driver": np.repeat(np.arange(len(tables)), sizes),
            **{name: np.concatenate([t[name] for t in tables]) for name in tables[0]}}


def train_models(fleet: dict[str, np.ndarray],
                 seed: int = 0) -> list[tuple[SomModel, dict[str, np.ndarray]]]:
    """Full training pass over the window table ``fleet`` of ``analyze_fleet``:
    one (model, ``advisor.profile_clusters`` table) pair per ``MAPS`` entry.

    The train/test split is chronological per driver (first ``TRAIN_SPLIT``
    fraction of each record's windows train the maps) to avoid leakage between
    overlapping windows.  Both maps train in one lockstep ``som.train`` call
    on the same rows.  Cluster profiles and labels use all windows; the first
    report metric orders the labels.  Each map draws its seeds from ``seed``
    plus its seed offset.
    """
    total = len(fleet["driver"])
    if total < 10:
        raise DataError(f"only {total} windows after speed filtering; need >= 10")

    sizes = np.bincount(fleet["driver"]).tolist()
    train_rows = np.concatenate([np.arange(n) < round(TRAIN_SPLIT * n) for n in sizes])
    seeds = [seed + offset for *_, offset, _ in MAPS]
    vectors = [features.feature_matrix(fleet, names) for _, names, *_ in MAPS]
    normalizers = [features.fit_normalizer(v[train_rows], names)
                   for v, (_, names, *_) in zip(vectors, MAPS)]
    normalized = [n.transform(v[train_rows]) for n, v in zip(normalizers, vectors)]
    grids = [som.init_random(*GRID_SHAPE, z, seed=s) for z, s in zip(normalized, seeds)]
    schedule = som.default_schedule(len(normalized[0]), *GRID_SHAPE)
    trained = som.train(grids, normalized, schedule, [s + 1 for s in seeds])
    pairs = []
    for (_, _, metrics, _, _), s, v, normalizer, (grid, qe, train_bmus) in zip(
            MAPS, seeds, vectors, normalizers, trained):
        # training's last search, at the trained weights, gives the hit counts
        # and the training rows' BMUs; only the held-out rows are searched here,
        # normalized alone to the doubles they have among all rows (elementwise)
        hits = np.bincount(train_bmus, minlength=grid.n_neurons)
        assignment = som.cluster_prototypes(grid, len(advisor.LABELS), seed=s + 2,
                                            hit_counts=hits)
        window_bmus = np.empty(total, dtype=np.intp)
        window_bmus[train_rows] = train_bmus
        window_bmus[~train_rows] = som.bmus(grid, normalizer.transform(v[~train_rows]))[0]
        profile = advisor.profile_clusters(assignment, window_bmus, fleet)
        pairs.append((SomModel(grid=grid, normalizer=normalizer, assignment=assignment,
                               labels=advisor.label_clusters(profile[metrics[0]]),
                               schedule=schedule, train_seed=s + 1, cluster_seed=s + 2,
                               qe_history=qe), profile))
    return pairs


def classify_all(fleet: dict[str, np.ndarray], models: list[SomModel]) -> None:
    """Add the classification columns of ``advisor.classify_window`` to the
    window table ``fleet``, with one batched BMU search per ``MAPS`` model."""
    fleet.update(advisor.classify_window(fleet, models))
