"""Cluster labeling, improvement reports, the joint advice matrix and the
streaming advice state machine."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .features import feature_matrix
from .som import LABELS, ClusterPartition, SomModel

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


class AdvisorError(Exception):
    pass


def profile_clusters(partition: ClusterPartition, bmu_indices,
                     columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-cluster table, indexed by cluster id: ``windows``, the member window
    count, and the average of each ``PROFILE_METRICS`` column over the members.

    ``bmu_indices`` holds one BMU index per window of ``columns``, in the
    same order.
    """
    bmu_indices = np.asarray(bmu_indices, dtype=int)
    if len(bmu_indices) != len(columns["vr"]):
        raise AdvisorError("bmu assignment and metrics counts differ")
    cluster_ids = partition.assignment[bmu_indices]
    members = [np.flatnonzero(cluster_ids == cid) for cid in range(partition.cluster_count)]
    for cid, member_idx in enumerate(members):
        if member_idx.size == 0:
            raise AdvisorError(f"cluster {cid} has no member windows")
    return {"windows": np.array([m.size for m in members]),
            **{name: np.array([columns[name][m].mean() for m in members])
               for name in PROFILE_METRICS}}


def label_clusters(averages) -> list[str]:
    """Tag three clusters Low/Medium/High by ascending average, one average
    per cluster id, and return the labels by cluster id.  Ties break toward
    the lower cluster id getting the lower label."""
    if len(averages) != len(LABELS):
        raise AdvisorError(f"labeling requires exactly {len(LABELS)} clusters")
    ranks = np.argsort(np.argsort(averages, kind="stable"))
    return [LABELS[r] for r in ranks]


@dataclass
class ImprovementRow:
    current: str
    target: str
    reductions: dict[str, float]  # metric -> percent


def improvement_report(labels: list[str], profile: dict[str, np.ndarray],
                       metrics: tuple[str, ...] = ("vr",)) -> list[ImprovementRow]:
    """Percent reduction of each metric when moving to a better cluster.

    ``labels`` and the ``profile`` columns are indexed by cluster id.  For
    every (current, target) pair with a lower target average on the first
    metric: 100 * (avg_current - avg_target) / avg_current.  A current cluster
    whose average of a metric is 0 has no percent reduction: AdvisorError.
    """
    key = profile[metrics[0]]
    order = np.argsort(key, kind="stable")
    rows = []
    for current in order:
        for target in order:
            if key[target] < key[current]:
                zero = [m for m in metrics if profile[m][current] == 0.0]
                if zero:
                    raise AdvisorError(f"{zero[0]} averages 0 in the {labels[current]} "
                                       "cluster: no percent reduction from it")
                rows.append(ImprovementRow(
                    current=labels[current], target=labels[target],
                    reductions={m: float(100.0 * (profile[m][current] - profile[m][target])
                                         / profile[m][current])
                                for m in metrics}))
    return rows


def write_improvement_csv(rows: list[ImprovementRow], metrics, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["current", "target", *[f"{m}_reduction_pct" for m in metrics]])
        for r in rows:
            writer.writerow([r.current, r.target,
                             *[f"{r.reductions[m]:.1f}" for m in metrics]])


# ---------------------------------------------------------------------------
# Advice matrix

@dataclass
class AdviceMatrix:
    """3x3 grid of advice lines indexed by (comfort label, fuel label).

    ``cells`` holds the unconditional lines: the fuel line first, then the
    comfort line.  The Low-discomfort comfort line is conditional: ``advice``
    appends it only when a braking peak occurs in the triggering window.
    """

    cells: dict[tuple[str, str], list[str]]

    def advice(self, comfort_label: str, fuel_label: str,
               braking_peak: bool = False) -> list[str]:
        lines = list(self.cells[(comfort_label, fuel_label)])
        if comfort_label == "Low" and braking_peak:
            lines.append(COMFORT_ADVICE["Low"])
        return lines


def build_advice_matrix() -> AdviceMatrix:
    """Joint advice for every (comfort label, fuel label) pair."""
    return AdviceMatrix(cells={
        (comfort, fuel): [FUEL_ADVICE[fuel]] if comfort == "Low"
        else [FUEL_ADVICE[fuel], COMFORT_ADVICE[comfort]]
        for comfort in LABELS for fuel in LABELS})


# ---------------------------------------------------------------------------
# Online classification

def classify_window(columns: dict[str, np.ndarray], main_model: SomModel,
                    aux_model: SomModel) -> dict[str, np.ndarray]:
    """Classify every window of one record's feature ``columns``, with one
    batched BMU search per map: the ``main_bmu`` and ``aux_bmu`` columns, and
    the ``comfort_label`` and ``fuel_label`` columns of indices into LABELS."""
    main_bmu = main_model.bmu_indices(feature_matrix(columns, main_model.feature_names))
    aux_bmu = aux_model.bmu_indices(feature_matrix(columns, aux_model.feature_names))
    return {"main_bmu": main_bmu, "aux_bmu": aux_bmu,
            "comfort_label": main_model.labels_at(main_bmu),
            "fuel_label": aux_model.labels_at(aux_bmu)}


def intersect(comfort_labels, fuel_labels) -> np.ndarray:
    """3x3 percentage table, rows = comfort labels, cols = fuel labels, from
    one comfort and one fuel label index per window."""
    if not len(comfort_labels):
        raise AdvisorError("no classified windows")
    n = len(LABELS)
    counts = np.bincount(np.asarray(comfort_labels) * n + np.asarray(fuel_labels),
                         minlength=n * n)
    return 100.0 * counts.reshape(n, n) / len(comfort_labels)


def write_intersection_csv(table: np.ndarray, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comfort\\fuel", *LABELS])
        for label, row in zip(LABELS, table):
            writer.writerow([label, *[f"{v:.2f}" for v in row]])


# ---------------------------------------------------------------------------
# Streaming advice

@dataclass
class AdviceState:
    """Single-owner state machine enforcing the advice-stability rule."""

    k_stable: int = 3
    last_emitted: tuple[str, str] | None = None
    candidate: tuple[str, str] | None = None
    consecutive: int = 0


@dataclass
class AdviceEvent:
    window_start: int
    comfort: str
    fuel: str
    lines: list[str]

    def format(self) -> str:
        quoted = " ".join(f'"{line}"' for line in self.lines)
        return (f"window_start={self.window_start} comfort={self.comfort[0]} "
                f"fuel={self.fuel[0]} advice={quoted}")


def stream_advise(state: AdviceState, classification: tuple[str, str],
                  window_start: int, n_x_neg: int,
                  matrix: AdviceMatrix) -> AdviceEvent | None:
    """Advance the stability state machine with one classified window.

    Emits only once the same (comfort, fuel) pair has been seen for
    ``k_stable`` consecutive windows and differs from the last emitted pair.
    The braking-peak conditional is evaluated on the triggering window: it
    holds when that window has at least one braking peak (``n_x_neg``).
    """
    if classification == state.candidate:
        state.consecutive = min(state.consecutive + 1, state.k_stable)
    else:
        state.candidate = classification
        state.consecutive = 1
    if state.consecutive >= state.k_stable and classification != state.last_emitted:
        state.last_emitted = classification
        comfort, fuel = classification
        lines = matrix.advice(comfort, fuel, braking_peak=n_x_neg >= 1)
        return AdviceEvent(window_start=window_start, comfort=comfort,
                           fuel=fuel, lines=lines)
    return None
