"""Hexagonal-grid self-organizing map: sizing, training, U-matrix, clustering."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import Normalizer


class SomError(Exception):
    pass


# ---------------------------------------------------------------------------
# Hexagonal grid geometry (odd-r offset coordinates)

def _offset_to_cube(row: int, col: int) -> tuple[int, int, int]:
    x = col - (row - (row & 1)) // 2
    z = row
    return x, -x - z, z


def hex_distance(row_a: int, col_a: int, row_b: int, col_b: int) -> int:
    """Grid distance between two neurons on the hexagonal lattice."""
    ax, ay, az = _offset_to_cube(row_a, col_a)
    bx, by, bz = _offset_to_cube(row_b, col_b)
    return (abs(ax - bx) + abs(ay - by) + abs(az - bz)) // 2


def grid_distance_matrix(rows: int, cols: int) -> np.ndarray:
    """(M, M) matrix of pairwise hex distances, neurons indexed row-major."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    x = c - (r - (r & 1)) // 2
    cube = np.stack([x, -x - r, r], axis=1)
    return (np.abs(cube[:, None, :] - cube[None, :, :]).sum(axis=2) // 2).astype(float)


def hex_neighbors(row: int, col: int, rows: int, cols: int) -> list[tuple[int, int]]:
    """In-grid immediate neighbors of a neuron (up to 6)."""
    if row & 1:
        offsets = [(0, -1), (0, 1), (-1, 0), (-1, 1), (1, 0), (1, 1)]
    else:
        offsets = [(0, -1), (0, 1), (-1, -1), (-1, 0), (1, -1), (1, 0)]
    out = []
    for dr, dc in offsets:
        r, c = row + dr, col + dc
        if 0 <= r < rows and 0 <= c < cols:
            out.append((r, c))
    return out


# ---------------------------------------------------------------------------
# Map structure and training

@dataclass
class SomGrid:
    """Hexagonal grid of prototype vectors, row-major neuron indexing."""

    rows: int
    cols: int
    weights: np.ndarray  # (rows*cols, dim)
    rng_seed: int = 0

    @property
    def n_neurons(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class TrainingSchedule:
    """Linear-to-floor decay of learning rate and neighborhood radius."""

    total_iterations: int
    alpha0: float = 0.5
    alpha_min: float = 0.01
    sigma0: float = 7.5
    sigma_min: float = 0.5

    def alpha(self, n: int) -> float:
        return self._decay(n, self.alpha0, self.alpha_min)

    def sigma(self, n: int) -> float:
        return self._decay(n, self.sigma0, self.sigma_min)

    def _decay(self, n: int, start: float, floor: float) -> float:
        if self.total_iterations <= 1:
            return floor
        frac = min(n / (self.total_iterations - 1), 1.0)
        return start + (floor - start) * frac


def default_schedule(n_samples: int, rows: int, cols: int) -> TrainingSchedule:
    return TrainingSchedule(total_iterations=20 * n_samples,
                            sigma0=max(rows, cols) / 2.0)


def init_random(rows: int, cols: int, data: np.ndarray, seed: int) -> SomGrid:
    """Prototypes drawn uniformly from the per-feature [min, max] of ``data``."""
    if rows < 1 or cols < 1:
        raise SomError("grid dimensions must be positive")
    data = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    weights = rng.uniform(0.0, 1.0, size=(rows * cols, data.shape[1])) * (hi - lo) + lo
    return SomGrid(rows=rows, cols=cols, weights=weights, rng_seed=seed)


BMU_CHUNK = 256


def bmus(grid: SomGrid, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best matching unit of each row of ``samples``: (indices, distances).

    Each index is that of the nearest prototype, ties to the lowest index.
    Rows are searched ``BMU_CHUNK`` at a time, so the (rows, n_neurons, dim)
    difference array stays small for a whole training set too.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != grid.dim:
        raise SomError(f"dimension mismatch: samples {samples.shape}, grid {grid.dim}")
    idx = np.empty(len(samples), dtype=np.intp)
    dist = np.empty(len(samples))
    for lo in range(0, len(samples), BMU_CHUNK):
        chunk = samples[lo:lo + BMU_CHUNK]
        d2 = np.sum((chunk[:, None, :] - grid.weights[None, :, :]) ** 2, axis=2)
        idx[lo:lo + len(chunk)] = np.argmin(d2, axis=1)
        dist[lo:lo + len(chunk)] = np.sqrt(d2.min(axis=1))
    return idx, dist


def bmu(grid: SomGrid, x: np.ndarray) -> tuple[int, float]:
    """Best matching unit of one sample: (index, distance), as ``bmus``."""
    idx, dist = bmus(grid, np.asarray(x, dtype=float)[None, :])
    return int(idx[0]), float(dist[0])


def quantization_error(grid: SomGrid, samples: np.ndarray) -> float:
    """Mean distance from samples to their BMU prototypes."""
    return float(np.mean(bmus(grid, samples)[1]))


def train(grid: SomGrid, samples: np.ndarray, schedule: TrainingSchedule,
          seed: int) -> tuple[SomGrid, list[float]]:
    """Sequential Kohonen training.

    Each iteration draws one sample uniformly at random (seeded), finds its
    BMU, and pulls every prototype toward the sample with a Gaussian kernel
    over hexagonal grid distance to the BMU.  Returns the trained grid and the
    quantization error history (initial value plus one entry per epoch of
    ``len(samples)`` iterations).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise SomError("empty training set")
    if samples.shape[1] != grid.dim:
        raise SomError("sample dimension does not match grid")
    rng = np.random.default_rng(seed)
    weights = grid.weights.copy()
    dist = grid_distance_matrix(grid.rows, grid.cols)
    k = samples.shape[0]
    history = [quantization_error(grid, samples)]
    live = SomGrid(rows=grid.rows, cols=grid.cols, weights=weights,
                   rng_seed=grid.rng_seed)
    for n in range(schedule.total_iterations):
        x = samples[rng.integers(k)]
        d2 = np.sum((weights - x) ** 2, axis=1)
        c = int(np.argmin(d2))
        sigma = schedule.sigma(n)
        kernel = np.exp(-dist[c] ** 2 / (2.0 * sigma * sigma))
        weights += schedule.alpha(n) * kernel[:, None] * (x - weights)
        if (n + 1) % k == 0:
            history.append(quantization_error(live, samples))
    if schedule.total_iterations % k != 0:
        history.append(quantization_error(live, samples))
    return live, history


def u_matrix(grid: SomGrid) -> np.ndarray:
    """(rows, cols) mean Euclidean distance from each prototype to its neighbors."""
    out = np.zeros((grid.rows, grid.cols))
    w = grid.weights
    for r in range(grid.rows):
        for c in range(grid.cols):
            nbrs = hex_neighbors(r, c, grid.rows, grid.cols)
            dists = [np.linalg.norm(w[r * grid.cols + c] - w[nr * grid.cols + nc])
                     for nr, nc in nbrs]
            out[r, c] = float(np.mean(dists))
    return out


def hit_histogram(grid: SomGrid, samples: np.ndarray) -> np.ndarray:
    """Per-neuron count of samples whose BMU is that neuron."""
    return np.bincount(bmus(grid, samples)[0], minlength=grid.n_neurons)


# ---------------------------------------------------------------------------
# Prototype clustering (k-means with restarts)

@dataclass
class ClusterPartition:
    """Assignment of every neuron to one of C nonempty clusters."""

    cluster_count: int
    assignment: np.ndarray  # (n_neurons,) cluster ids in [0, C)


def _kmeans_once(points: np.ndarray, c: int, rng: np.random.Generator,
                 max_iter: int = 200) -> tuple[np.ndarray, float]:
    n = points.shape[0]
    centers = points[rng.choice(n, size=c, replace=False)].copy()
    assignment = np.full(n, -1)
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assignment = np.argmin(d2, axis=1)
        # repair empty clusters: split the largest at its farthest member
        for cid in range(c):
            if not np.any(new_assignment == cid):
                sizes = np.bincount(new_assignment, minlength=c)
                big = int(np.argmax(sizes))
                members = np.flatnonzero(new_assignment == big)
                far = members[np.argmax(
                    np.sum((points[members] - centers[big]) ** 2, axis=1))]
                new_assignment[far] = cid
                centers[cid] = points[far]
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cid in range(c):
            centers[cid] = points[assignment == cid].mean(axis=0)
    d2 = np.sum((points - centers[assignment]) ** 2, axis=1)
    return assignment, float(np.sum(d2))


def cluster_prototypes(grid: SomGrid, cluster_count: int, restarts: int = 32,
                       seed: int = 0, hit_counts=None) -> ClusterPartition:
    """Partition prototype vectors by k-means, keeping the best of ``restarts``.

    With ``hit_counts`` (the hit histogram of the training data) each
    prototype enters the k-means objective once per hit, so the partition
    follows where the data mass lies instead of giving interpolating dead
    units equal say.  Prototypes themselves (hit or not) are then assigned to
    the nearest resulting center.
    """
    m = grid.n_neurons
    if not 1 <= cluster_count <= m:
        raise SomError(f"cluster count {cluster_count} outside [1, {m}]")
    points = grid.weights
    if hit_counts is not None:
        hit_counts = np.asarray(hit_counts, dtype=int)
        if hit_counts.shape != (m,) or np.any(hit_counts < 0):
            raise SomError("hit_counts must be one nonnegative count per neuron")
        if np.count_nonzero(hit_counts) < cluster_count:
            raise SomError(
                f"only {np.count_nonzero(hit_counts)} hit neurons for "
                f"{cluster_count} clusters")
        points = np.repeat(grid.weights, hit_counts, axis=0)
    rng = np.random.default_rng(seed)
    best = None
    best_cost = np.inf
    for _ in range(restarts):
        assignment, cost = _kmeans_once(points, cluster_count, rng)
        if cost < best_cost:
            best, best_cost = assignment, cost
    if hit_counts is None:
        return ClusterPartition(cluster_count=cluster_count, assignment=best)
    centers = np.array([points[best == cid].mean(axis=0)
                        for cid in range(cluster_count)])
    d2 = np.sum((grid.weights[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    full = np.argmin(d2, axis=1)
    for cid in range(cluster_count):  # keep every cluster non-empty
        if not np.any(full == cid):
            full[int(np.argmin(d2[:, cid]))] = cid
    return ClusterPartition(cluster_count=cluster_count, assignment=full)


# ---------------------------------------------------------------------------
# Trained model persistence

@dataclass
class SomModel:
    """A trained, clustered and labeled map plus its normalizer.

    ``labels[cid]`` gives the Low/Medium/High tag for cluster ``cid``.
    """

    grid: SomGrid
    normalizer: Normalizer
    partition: ClusterPartition
    labels: list[str]
    schedule: TrainingSchedule
    train_seed: int
    cluster_seed: int
    qe_history: list[float] = field(default_factory=list)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.normalizer.feature_names

    def bmu_indices(self, raw_vectors: np.ndarray) -> np.ndarray:
        """BMU index of each row of unnormalized feature vectors."""
        return bmus(self.grid, self.normalizer.transform(raw_vectors))[0]

    def labels_at(self, bmu_indices: np.ndarray) -> list[str]:
        """Label of the cluster that holds each BMU index."""
        return [self.labels[c] for c in self.partition.assignment[bmu_indices]]

    def bmu_index(self, raw_vector: np.ndarray) -> int:
        return bmu(self.grid, self.normalizer.transform(raw_vector))[0]

    def cluster_of(self, raw_vector: np.ndarray) -> int:
        return int(self.partition.assignment[self.bmu_index(raw_vector)])

    def label_of(self, raw_vector: np.ndarray) -> str:
        return self.labels[self.cluster_of(raw_vector)]

    def to_dict(self) -> dict:
        return {
            "topology": "hexagonal",
            "rows": self.grid.rows,
            "cols": self.grid.cols,
            "rng_seed": self.grid.rng_seed,
            "feature_names": list(self.feature_names),
            "normalizer_mean": self.normalizer.mean.tolist(),
            "normalizer_std": self.normalizer.std.tolist(),
            "prototypes": self.grid.weights.tolist(),
            "cluster_count": self.partition.cluster_count,
            "assignment": self.partition.assignment.tolist(),
            "labels": list(self.labels),
            "schedule": {
                "total_iterations": self.schedule.total_iterations,
                "alpha0": self.schedule.alpha0,
                "alpha_min": self.schedule.alpha_min,
                "sigma0": self.schedule.sigma0,
                "sigma_min": self.schedule.sigma_min,
            },
            "train_seed": self.train_seed,
            "cluster_seed": self.cluster_seed,
            "qe_history": list(self.qe_history),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "SomModel":
        grid = SomGrid(rows=d["rows"], cols=d["cols"],
                       weights=np.array(d["prototypes"], dtype=float),
                       rng_seed=d["rng_seed"])
        normalizer = Normalizer(feature_names=tuple(d["feature_names"]),
                                mean=np.array(d["normalizer_mean"], dtype=float),
                                std=np.array(d["normalizer_std"], dtype=float))
        partition = ClusterPartition(cluster_count=d["cluster_count"],
                                     assignment=np.array(d["assignment"], dtype=int))
        schedule = TrainingSchedule(**d["schedule"])
        return cls(grid=grid, normalizer=normalizer, partition=partition,
                   labels=list(d["labels"]), schedule=schedule,
                   train_seed=d["train_seed"], cluster_seed=d["cluster_seed"],
                   qe_history=list(d["qe_history"]))

    @classmethod
    def load(cls, path) -> "SomModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
