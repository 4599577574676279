"""Hexagonal-grid self-organizing map: sizing, training, U-matrix, clustering."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .features import FEATURE_SIGNALS, Normalizer

# Cluster tags of both maps, best (lowest metric average) first.
LABELS = ("Low", "Medium", "High")


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
    difference array stays small for a whole training set too.  A nan or inf
    sample raises SomError: it has no nearest prototype.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != grid.dim:
        raise SomError(f"dimension mismatch: samples {samples.shape}, grid {grid.dim}")
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        raise SomError(f"non-finite sample at row {int(np.argmin(finite))}")
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

    The sample indices are drawn up front in one call, which yields the same
    stream as one ``rng.integers(k)`` per iteration.  The update
    ``w - (kernel * alpha) * (w - x)`` runs in place and equals
    ``w + alpha * kernel * (x - w)`` bit for bit: IEEE negation and commuted
    products are exact.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise SomError("empty training set")
    if samples.shape[1] != grid.dim:
        raise SomError("sample dimension does not match grid")
    rng = np.random.default_rng(seed)
    weights = grid.weights.copy()
    neg_d2 = -grid_distance_matrix(grid.rows, grid.cols) ** 2
    k = samples.shape[0]
    history = [quantization_error(grid, samples)]
    live = SomGrid(rows=grid.rows, cols=grid.cols, weights=weights,
                   rng_seed=grid.rng_seed)
    picks = rng.integers(k, size=schedule.total_iterations)
    diff = np.empty_like(weights)
    sq = np.empty_like(weights)
    d2 = np.empty(len(weights))
    kernel = np.empty(len(weights))
    kernel_col = kernel[:, None]
    for n in range(schedule.total_iterations):
        np.subtract(weights, samples[picks[n]], out=diff)
        np.square(diff, out=sq)
        np.add.reduce(sq, axis=1, out=d2)
        sigma = schedule.sigma(n)
        np.divide(neg_d2[d2.argmin()], 2.0 * sigma * sigma, out=kernel)
        np.exp(kernel, out=kernel)
        np.multiply(kernel, schedule.alpha(n), out=kernel)
        np.multiply(diff, kernel_col, out=diff)
        np.subtract(weights, diff, out=weights)
        if (n + 1) % k == 0:
            history.append(quantization_error(live, samples))
    if schedule.total_iterations % k != 0:
        history.append(quantization_error(live, samples))
    return live, history


def u_matrix(grid: SomGrid) -> np.ndarray:
    """(rows, cols) mean Euclidean distance from each prototype to its neighbors."""
    adjacent = grid_distance_matrix(grid.rows, grid.cols) == 1
    w = grid.weights
    dist = np.sqrt(np.sum((w[:, None, :] - w[None, :, :]) ** 2, axis=2))
    mean = np.sum(dist, axis=1, where=adjacent) / adjacent.sum(axis=1)
    return mean.reshape(grid.rows, grid.cols)


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
                       seed: int = 0, *, hit_counts) -> ClusterPartition:
    """Partition prototype vectors by hit-weighted k-means, keeping the best of
    ``restarts``.

    Each prototype enters the k-means objective once per hit in ``hit_counts``
    (the hit histogram of the training data), so the partition follows where
    the data mass lies instead of giving interpolating dead units equal say.
    Prototypes themselves (hit or not) are then assigned to the nearest
    resulting center.  Equal counts weigh every prototype alike.
    """
    m = grid.n_neurons
    if not 1 <= cluster_count <= m:
        raise SomError(f"cluster count {cluster_count} outside [1, {m}]")
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

    def labels_at(self, bmu_indices: np.ndarray) -> np.ndarray:
        """Index into LABELS of the label of the cluster that holds each BMU index."""
        ranks = np.array([LABELS.index(label) for label in self.labels])
        return ranks[self.partition.assignment[bmu_indices]]

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
            "schedule": asdict(self.schedule),
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
        """Rebuild a model from ``to_dict`` output; raises SomError naming the
        first field that is missing or cannot make a working map."""
        def array(key, dtype=float):
            try:
                return np.array(d[key], dtype=dtype)
            except (TypeError, ValueError):
                raise SomError(f"{key}: not a numeric array") from None

        try:
            grid = SomGrid(rows=d["rows"], cols=d["cols"], weights=array("prototypes"),
                           rng_seed=d["rng_seed"])
            normalizer = Normalizer(feature_names=tuple(d["feature_names"]),
                                    mean=array("normalizer_mean"),
                                    std=array("normalizer_std"))
            partition = ClusterPartition(cluster_count=d["cluster_count"],
                                         assignment=array("assignment", int))
            schedule = TrainingSchedule(**d["schedule"])
            model = cls(grid=grid, normalizer=normalizer, partition=partition,
                        labels=list(d["labels"]), schedule=schedule,
                        train_seed=d["train_seed"], cluster_seed=d["cluster_seed"],
                        qe_history=list(d["qe_history"]))
            model._check()
        except KeyError as exc:
            raise SomError(f"missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise SomError(f"malformed model: {exc}") from None
        return model

    def _check(self) -> None:
        rows, cols = self.grid.rows, self.grid.cols
        if not all(isinstance(v, int) and v >= 1 for v in (rows, cols)):
            raise SomError(f"rows/cols: {rows} x {cols} is not a grid")
        unknown = sorted(set(self.feature_names) - set(FEATURE_SIGNALS))
        if unknown:
            raise SomError(f"feature_names: unknown feature(s) {', '.join(unknown)}")
        n, dim = rows * cols, len(self.feature_names)
        arrays = {"prototypes": (self.grid.weights, (n, dim)),
                  "normalizer_mean": (self.normalizer.mean, (dim,)),
                  "normalizer_std": (self.normalizer.std, (dim,))}
        for name, (values, shape) in arrays.items():
            if values.shape != shape:
                raise SomError(f"{name}: shape {values.shape}, expected {shape}")
            if not np.all(np.isfinite(values)):
                raise SomError(f"{name}: non-finite value")
        if np.any(self.normalizer.std <= 0):
            raise SomError("normalizer_std: value <= 0")
        count = self.partition.cluster_count
        if count != len(LABELS):
            raise SomError(f"cluster_count: {count}, expected {len(LABELS)}")
        assignment = self.partition.assignment
        if assignment.shape != (n,):
            raise SomError(f"assignment: {assignment.size} values for {n} neurons")
        if np.any((assignment < 0) | (assignment >= count)):
            raise SomError(f"assignment: value outside [0, {count})")
        if sorted(self.labels) != sorted(LABELS):
            raise SomError(f"labels: {self.labels} is not a permutation of {list(LABELS)}")

    @classmethod
    def load(cls, path) -> "SomModel":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (SomError, json.JSONDecodeError) as exc:
            raise SomError(f"model file {path}: {exc}") from None
