"""Cluster labeling, improvement reports, the joint advice matrix and the
streaming advice state machine."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .comfort import WindowMetrics
from .features import WindowFeatures, feature_matrix
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


@dataclass
class ClusterProfile:
    """Per-cluster averages and variances of the comfort/fuel metrics."""

    cluster_id: int
    member_count: int
    averages: dict[str, float]
    variances: dict[str, float]
    label: str | None = None


def profile_clusters(partition: ClusterPartition, bmu_indices,
                     metrics: list[WindowMetrics]) -> list[ClusterProfile]:
    """Average and population variance of each metric over member windows.

    ``bmu_indices`` holds one BMU index per window of ``metrics`` (one table
    per record), in the same order.
    """
    bmu_indices = np.asarray(bmu_indices, dtype=int)
    if len(bmu_indices) != sum(len(m.window_start) for m in metrics):
        raise AdvisorError("bmu assignment and metrics counts differ")
    columns = {name: np.concatenate([getattr(m, name) for m in metrics]).astype(float)
               for name in PROFILE_METRICS}
    cluster_ids = partition.assignment[bmu_indices]
    profiles = []
    for cid in range(partition.cluster_count):
        member_idx = np.flatnonzero(cluster_ids == cid)
        if member_idx.size == 0:
            raise AdvisorError(f"cluster {cid} has no member windows")
        averages = {}
        variances = {}
        for name in PROFILE_METRICS:
            vals = columns[name][member_idx]
            averages[name] = float(vals.mean())
            variances[name] = float(vals.var())
        profiles.append(ClusterProfile(cluster_id=cid, member_count=int(member_idx.size),
                                       averages=averages, variances=variances))
    return profiles


def label_clusters(profiles: list[ClusterProfile],
                   ordering_metric: str = "vr") -> list[str]:
    """Tag three clusters Low/Medium/High by ascending metric average.

    Sets each profile's label and returns the labels by cluster id.  Ties
    break toward the lower cluster id getting the lower label.
    """
    if len(profiles) != len(LABELS):
        raise AdvisorError(f"labeling requires exactly {len(LABELS)} clusters")
    order = sorted(profiles, key=lambda p: (p.averages[ordering_metric], p.cluster_id))
    for label, profile in zip(LABELS, order):
        profile.label = label
    return [p.label for p in sorted(profiles, key=lambda p: p.cluster_id)]


@dataclass
class ImprovementRow:
    current: str
    target: str
    reductions: dict[str, float]  # metric -> percent


def improvement_report(profiles: list[ClusterProfile],
                       metrics: tuple[str, ...] = ("vr",)) -> list[ImprovementRow]:
    """Percent reduction of each metric when moving to a better cluster.

    For every (current, target) pair with a lower target average on the first
    metric: 100 * (avg_current - avg_target) / avg_current.
    """
    if any(p.label is None for p in profiles):
        raise AdvisorError("profiles must be labeled first")
    key = metrics[0]
    rows = []
    ordered = sorted(profiles, key=lambda p: p.averages[key])
    for current in ordered:
        for target in ordered:
            if target.averages[key] < current.averages[key]:
                rows.append(ImprovementRow(
                    current=current.label, target=target.label,
                    reductions={m: 100.0 * (current.averages[m] - target.averages[m])
                                / current.averages[m]
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

@dataclass
class Classification:
    """BMU index of each window of one record in both maps, and the window's
    (comfort label, fuel label) pair."""

    main_bmus: np.ndarray
    aux_bmus: np.ndarray
    pairs: list[tuple[str, str]]


def classify_window(window_features: WindowFeatures, main_model: SomModel,
                    aux_model: SomModel) -> Classification:
    """Classify every window of one record: BMU -> cluster -> label in each
    map, with one batched BMU search per map."""
    main_bmus = main_model.bmu_indices(feature_matrix(window_features, main_model.feature_names))
    aux_bmus = aux_model.bmu_indices(feature_matrix(window_features, aux_model.feature_names))
    pairs = list(zip(main_model.labels_at(main_bmus), aux_model.labels_at(aux_bmus)))
    return Classification(main_bmus=main_bmus, aux_bmus=aux_bmus, pairs=pairs)


def intersect(classified: list[tuple[str, str]]) -> np.ndarray:
    """3x3 percentage table, rows = comfort labels, cols = fuel labels."""
    if not classified:
        raise AdvisorError("no classified windows")
    table = np.zeros((3, 3))
    for comfort, fuel in classified:
        table[LABELS.index(comfort), LABELS.index(fuel)] += 1
    return 100.0 * table / len(classified)


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
