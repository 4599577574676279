"""Cluster labeling, improvement reports, the joint advice matrix and the
advice event stream."""

from __future__ import annotations

import numpy as np

from . import DataError, save_csv
from .features import MAPS, feature_matrix
from .som import LABELS, SomModel

PROFILE_METRICS = ("msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel")

COMFORT_ADVICE = {
    "High": "Operate steering wheel more smoothly",
    "Medium": "Release gas pedal",
    "Low": "Avoid braking peaks",  # conditional on a braking peak in the window
}
FUEL_ADVICE = {
    "High": "Keep gas pedal steady / switch to a higher gear",
    "Medium": "Release gas pedal / switch to a lower gear",
    "Low": "Keep driving style",
}


def profile_clusters(assignment, bmu_indices,
                     columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-cluster table, indexed by cluster id: ``windows``, the member window
    count, and the average of each ``PROFILE_METRICS`` column over the members.

    ``assignment`` maps each neuron to one of the ``len(LABELS)`` cluster ids
    (``som.cluster_prototypes``); ``bmu_indices`` holds one BMU index per
    window of ``columns``, in the same order.
    """
    bmu_indices = np.asarray(bmu_indices, dtype=int)
    cluster_ids = assignment[bmu_indices]
    members = [np.flatnonzero(cluster_ids == cid) for cid in range(len(LABELS))]
    for cid, member_idx in enumerate(members):
        if member_idx.size == 0:
            raise DataError(f"cluster {cid} has no member windows")
    return {"windows": np.array([m.size for m in members]),
            **{name: np.array([columns[name][m].mean() for m in members])
               for name in PROFILE_METRICS}}


def label_clusters(averages) -> list[str]:
    """Tag three clusters Low/Medium/High by ascending average, one average
    per cluster id, and return the labels by cluster id.  Ties break toward
    the lower cluster id getting the lower label."""
    ranks = np.argsort(np.argsort(averages, kind="stable"))
    return [LABELS[r] for r in ranks]


def improvement_report(labels: list[str], profile: dict[str, np.ndarray],
                       metrics: tuple[str, ...]) -> list[tuple[str, str, dict[str, float]]]:
    """Percent reduction of each metric when moving to a better cluster, as
    (current label, target label, {metric: percent}) rows.

    ``labels`` and the ``profile`` columns are indexed by cluster id.  For
    every (current, target) pair with a lower target average on the first
    metric: 100 * (avg_current - avg_target) / avg_current.  A current cluster
    whose average of a metric is 0 has no percent reduction: DataError.
    """
    key = profile[metrics[0]]
    order = np.argsort(key, kind="stable")
    rows = []
    for current in order:
        for target in order:
            if key[target] < key[current]:
                zero = [m for m in metrics if profile[m][current] == 0.0]
                if zero:
                    raise DataError(f"{zero[0]} averages 0 in the {labels[current]} "
                                    "cluster: no percent reduction from it")
                rows.append((labels[current], labels[target],
                             {m: float(100.0 * (profile[m][current] - profile[m][target])
                                       / profile[m][current])
                              for m in metrics}))
    return rows


def write_improvement_csv(rows, metrics, path) -> None:
    save_csv(path, ["current", "target", *[f"{m}_reduction_pct" for m in metrics]],
             ([current, target, *[f"{reductions[m]:.1f}" for m in metrics]]
              for current, target, reductions in rows))


# ---------------------------------------------------------------------------
# Advice matrix

def build_advice_matrix() -> dict[tuple[str, str, bool], list[str]]:
    """Joint advice lines keyed by (comfort label, fuel label, braking peak):
    the fuel line, then the comfort line.  The Low-discomfort comfort line is
    conditional: only a window with a braking peak gets it."""
    return {(comfort, fuel, peak): [FUEL_ADVICE[fuel]]
            + ([COMFORT_ADVICE[comfort]] if comfort != "Low" or peak else [])
            for comfort in LABELS for fuel in LABELS for peak in (False, True)}


# ---------------------------------------------------------------------------
# Online classification

def classify_window(columns: dict[str, np.ndarray],
                    models: list[SomModel]) -> dict[str, np.ndarray]:
    """Classify every window of a window table's feature ``columns`` with the
    ``MAPS`` maps ``models``, one batched BMU search per map: each map's
    ``<tag>_bmu`` column and its label column of indices into LABELS.  A
    failed search is a DataError naming the map."""
    out = {}
    for model, (tag, *_, label) in zip(models, MAPS):
        try:
            out[f"{tag}_bmu"] = model.bmu_indices(feature_matrix(columns, model.feature_names))
        except DataError as exc:
            raise DataError(f"{tag} map: {exc}") from None
        out[label] = model.labels_at(out[f"{tag}_bmu"])
    return out


def intersect(comfort_labels, fuel_labels) -> np.ndarray:
    """3x3 percentage table, rows = comfort labels, cols = fuel labels, from
    one comfort and one fuel label index per window."""
    if not len(comfort_labels):
        raise DataError("no classified windows")
    n = len(LABELS)
    counts = np.bincount(np.asarray(comfort_labels) * n + np.asarray(fuel_labels),
                         minlength=n * n)
    return 100.0 * counts.reshape(n, n) / len(comfort_labels)


def write_intersection_csv(table: np.ndarray, path) -> None:
    save_csv(path, ["comfort\\fuel", *LABELS],
             ([label, *[f"{v:.2f}" for v in row]] for label, row in zip(LABELS, table)))


# ---------------------------------------------------------------------------
# Streaming advice

K_STABLE = 3  # advice after this many identical classifications in a row


def stream_advise(fleet: dict[str, np.ndarray], driver_ids: list[str], *,
                  k_stable: int = K_STABLE) -> list[str]:
    """The advice event lines of a classified fleet table, in row order.

    A run of at least ``k_stable`` rows with the same ``driver``,
    ``comfort_label`` and ``fuel_label`` emits at its ``k_stable``-th row,
    unless it repeats the previous such run: a driver's advice changes only
    once its classification has settled, and each driver starts afresh.  The
    braking-peak conditional reads ``n_x_neg`` at the emitting row.
    """
    n = len(LABELS)
    key = (fleet["driver"] * n + fleet["comfort_label"]) * n + fleet["fuel_label"]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    runs = starts[np.diff(starts, append=len(key)) >= k_stable]
    runs = runs[np.diff(key[runs], prepend=-1) != 0]
    matrix = build_advice_matrix()
    lines = []
    for row in runs + k_stable - 1:
        comfort, fuel = LABELS[fleet["comfort_label"][row]], LABELS[fleet["fuel_label"][row]]
        advice = " ".join(f'"{line}"' for line in
                          matrix[comfort, fuel, bool(fleet["n_x_neg"][row] >= 1)])
        lines.append(f"{driver_ids[fleet['driver'][row]]} "
                     f"window_start={fleet['window_start'][row]} "
                     f"comfort={comfort[0]} fuel={fuel[0]} advice={advice}")
    return lines
