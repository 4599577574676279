"""Hexagonal-grid self-organizing map: sizing, training, U-matrix, clustering."""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from . import DataError
from .features import FEATURE_SIGNALS, Normalizer

# Cluster tags of both maps, best (lowest metric average) first.
LABELS = ("Low", "Medium", "High")


# ---------------------------------------------------------------------------
# Hexagonal grid geometry (odd-r offset coordinates)

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

    def alpha(self, n):
        return self._decay(n, self.alpha0, self.alpha_min)

    def sigma(self, n):
        return self._decay(n, self.sigma0, self.sigma_min)

    def _decay(self, n, start: float, floor: float):
        """Value at iteration ``n``, an int or an index array (same shape out)."""
        if self.total_iterations <= 1:
            return np.full(np.shape(n), floor)[()]
        frac = np.minimum(n / (self.total_iterations - 1), 1.0)
        return start + (floor - start) * frac


def default_schedule(n_samples: int, rows: int, cols: int) -> TrainingSchedule:
    return TrainingSchedule(total_iterations=20 * n_samples,
                            sigma0=max(rows, cols) / 2.0)


def init_random(rows: int, cols: int, data: np.ndarray, seed: int) -> SomGrid:
    """Prototypes drawn uniformly from the per-feature [min, max] of ``data``."""
    data = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    weights = rng.uniform(0.0, 1.0, size=(rows * cols, data.shape[1])) * (hi - lo) + lo
    return SomGrid(rows=rows, cols=cols, weights=weights, rng_seed=seed)


BMU_CHUNK = 128


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., len(a), len(b)) squared Euclidean distances between the rows of
    a and b; a may hold a leading axis of row sets, each against all of b.

    The squared feature differences are added column by column, left to
    right, through one reused term buffer.  numpy's ``add.reduce`` sums a
    contiguous axis shorter than 8 in the same order, so for the maps' 2 and 5
    features this gives the doubles of ``np.sum((a[:, None] - b[None]) ** 2,
    axis=2)`` without its (len(a), len(b), dim) temporary; a test pins the two
    against each other.
    """
    d2 = (a[..., None, 0] - b[:, 0]) ** 2
    term = np.empty_like(d2)
    for j in range(1, a.shape[-1]):
        np.subtract(a[..., None, j], b[:, j], out=term)
        np.square(term, out=term)
        d2 += term
    return d2


def bmus(grid: SomGrid, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best matching unit of each row of ``samples``: (indices, distances).

    Each index is that of the nearest prototype, ties to the lowest index,
    and each distance the root of the squared distance read at that index.
    Rows are searched ``BMU_CHUNK`` at a time, so the (rows, n_neurons)
    distance array stays small for a whole training set too.  A sample with
    no finite distance to any prototype raises DataError naming its row: a
    nan or inf sample, or one whose squared distances all overflow.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != grid.dim:
        raise DataError(f"dimension mismatch: samples {samples.shape}, grid {grid.dim}")
    columns = np.asfortranarray(grid.weights)  # each feature one contiguous column
    idx = np.empty(len(samples), dtype=np.intp)
    dist = np.empty(len(samples))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(samples), BMU_CHUNK):
            chunk = samples[lo:lo + BMU_CHUNK]
            d2 = _sq_distances(chunk, columns)
            best = idx[lo:lo + len(chunk)]
            d2.argmin(axis=1, out=best)
            np.sqrt(d2[np.arange(len(chunk)), best], out=dist[lo:lo + len(chunk)])
    finite = np.isfinite(dist)
    if not finite.all():
        raise DataError(f"no finite distance to any prototype at sample row "
                        f"{int(np.argmin(finite))}")
    return idx, dist


def bmu(grid: SomGrid, x: np.ndarray) -> tuple[int, float]:
    """Best matching unit of one sample: (index, distance), as ``bmus``."""
    idx, dist = bmus(grid, np.asarray(x, dtype=float)[None, :])
    return int(idx[0]), float(dist[0])


def quantization_error(grid: SomGrid, samples: np.ndarray) -> float:
    """Mean distance from samples to their BMU prototypes."""
    return float(np.mean(bmus(grid, samples)[1]))


def train(grids: Sequence[SomGrid], samples: Sequence[np.ndarray],
          schedule: TrainingSchedule, seeds: Sequence[int]
          ) -> list[tuple[SomGrid, list[float], np.ndarray]]:
    """Sequential Kohonen training of several maps in lockstep.

    Map ``m`` trains ``grids[m]`` on ``samples[m]`` with the sample stream
    seeded by ``seeds[m]``: each iteration draws one sample uniformly at
    random, finds its BMU, and pulls every prototype toward the sample with a
    Gaussian kernel over hexagonal grid distance to the BMU.  Returns one
    (trained grid, quantization error history, BMU indices) triple per map;
    the history holds the initial value plus one entry per epoch of
    ``len(samples[m])`` iterations, the last of them taken at the trained
    weights, and the indices are those of that last search,
    ``bmus(trained, samples[m])[0]``.  The maps share ``schedule``, so they
    must share their grid shape and their sample count, as
    ``pipeline.train_models`` guarantees; their feature counts may differ.

    Each map's doubles are those of training it alone, one iteration at a
    time.  The sample indices are drawn up front in one call per map, which
    yields the same stream as one ``rng.integers(k)`` per iteration, and so
    are every iteration's alpha and ``2 sigma**2``.  The kernel depends only
    on the integer hex distance d to the BMU, so once per epoch a table, the
    same for every map, holds ``exp(-d**2 / (2 sigma**2)) * alpha`` for every
    iteration and every d that occurs; each iteration gathers its neurons'
    values from its row by their distance to the BMU.  The weights are held
    as one (maps, max dim, n_neurons) array, each map feature-major with
    ``+0.0`` rows after its own features, and each sample likewise padded:
    one ufunc call per step then serves every map.  A zero row adds
    ``(0 - 0)**2 = +0.0`` to a squared distance, which leaves it unchanged,
    and its update ``0 - (g * 0)`` stays ``+0.0``.  Each neuron's squared
    distance is ``add.reduce`` over the feature axis, which adds the feature
    rows left to right as the (n_neurons, dim) ``axis=1`` reduce does.  The
    update ``w - (kernel * alpha) * (w - x)`` runs in place and equals
    ``w + alpha * kernel * (x - w)`` bit for bit: IEEE negation and commuted
    products are exact.
    """
    grids, seeds = list(grids), list(seeds)
    samples = [np.asarray(s, dtype=float) for s in samples]
    histories = [[] for _ in grids]

    def search(maps: Sequence[SomGrid]) -> list[np.ndarray]:
        """Each map's BMU indices over its samples; its QE joins its history."""
        found = [bmus(g, data) for g, data in zip(maps, samples)]
        for history, (_, dist) in zip(histories, found):
            history.append(float(np.mean(dist)))
        return [idx for idx, _ in found]

    last = search(grids)
    maps, k, n_neurons = len(grids), len(samples[0]), grids[0].n_neurons
    depth = max(g.dim for g in grids)
    weights = np.zeros((maps, depth, n_neurons))  # per map (dim, n_neurons)
    padded = np.zeros((maps, k, depth))
    for m, (grid, data) in enumerate(zip(grids, samples)):
        weights[m, :grid.dim] = grid.weights.T
        padded[m, :, :grid.dim] = data
    live = [SomGrid(rows=g.rows, cols=g.cols, weights=weights[m, :g.dim].T,
                    rng_seed=g.rng_seed) for m, g in enumerate(grids)]
    hex_rows = grid_distance_matrix(grids[0].rows, grids[0].cols).astype(np.intp)
    neg_d2 = -np.arange(hex_rows.max() + 1.0) ** 2
    total = schedule.total_iterations
    picks = np.array([np.random.default_rng(seed).integers(k, size=total)
                      for seed in seeds])
    steps = np.arange(total)
    alphas = schedule.alpha(steps)
    sigmas = schedule.sigma(steps)
    two_sigma_sq = 2.0 * sigmas * sigmas
    diff = np.empty_like(weights)
    sq = np.empty_like(weights)
    d2 = np.empty((maps, n_neurons))
    best = np.empty(maps, dtype=np.intp)
    kernel = np.empty((maps, 1, n_neurons))
    for start in range(0, total, k):
        epoch = slice(start, start + k)
        table = np.exp(neg_d2[None, :] / two_sigma_sq[epoch, None]) * alphas[epoch, None]
        # each step's samples of every map as (maps, depth, 1) columns
        columns = padded[np.arange(maps), picks[:, epoch].T][..., None]
        for x, g in zip(columns, table):
            np.subtract(weights, x, out=diff)
            np.square(diff, out=sq)
            np.add.reduce(sq, axis=1, out=d2)
            d2.argmin(axis=1, out=best)
            g.take(hex_rows.take(best, axis=0)[:, None, :], out=kernel)
            np.multiply(diff, kernel, out=diff)
            np.subtract(weights, diff, out=weights)
        last = search(live)
    for grid in live:
        grid.weights = np.ascontiguousarray(grid.weights)
    return list(zip(live, histories, last))


def u_matrix(grid: SomGrid) -> np.ndarray:
    """(rows, cols) mean Euclidean distance from each prototype to its neighbors."""
    adjacent = grid_distance_matrix(grid.rows, grid.cols) == 1
    dist = np.sqrt(_sq_distances(grid.weights, grid.weights))
    mean = np.sum(dist, axis=1, where=adjacent) / adjacent.sum(axis=1)
    return mean.reshape(grid.rows, grid.cols)


def hit_histogram(grid: SomGrid, samples: np.ndarray) -> np.ndarray:
    """Per-neuron count of samples whose BMU is that neuron."""
    return np.bincount(bmus(grid, samples)[0], minlength=grid.n_neurons)


# ---------------------------------------------------------------------------
# Prototype clustering (k-means with restarts)

def _kmeans(prototypes: np.ndarray, hit_counts: np.ndarray, c: int,
            rng: np.random.Generator, runs: int, max_iter: int = 200
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``runs`` Lloyd runs of k-means over the points ``np.repeat(prototypes,
    hit_counts, axis=0)``, batched: (assignments (runs, n), costs (runs,),
    centers (runs, c, dim)), each center the mean of its members in its run's
    final assignment.  Each run's doubles are those of running it alone.

    Every run first draws its ``c`` distinct seed points from ``rng``, in run
    order.  A pass searches each run's (c, hit prototypes) squared distances,
    and each point takes the argmin of its prototype: equal rows give equal
    doubles and equal ties.  The empty-cluster repair runs per run before the
    convergence test, so it may move a center on a run's last pass; a run
    whose assignment did not change then drops out and keeps its centers.
    Each cluster sum is one ``np.bincount`` per feature, which adds the
    members from +0.0 in ascending point order, as ``mean(axis=0)`` adds the
    rows of a slice of two or more features (the maps have 5 and 2).  numpy
    sums a single feature pairwise, so on a 1-feature map a center could
    differ in its last bits from the mean of the same slice.  Each cost is the
    row sum of its run's chosen squared distances, as ``np.sum`` adds them.
    """
    hit = hit_counts > 0
    counts = hit_counts[hit]
    hit_protos = np.asfortranarray(prototypes[hit])  # each feature one contiguous column
    owner = np.repeat(np.arange(len(counts)), counts)  # each point's row of hit_protos
    points = hit_protos[owner]
    n = len(points)
    centers = np.stack([points[rng.choice(n, size=c, replace=False)] for _ in range(runs)])
    assignment = np.full((runs, n), -1)
    active = np.arange(runs)
    for _ in range(max_iter):
        d2 = _sq_distances(centers[active], hit_protos)
        new_assignment = np.repeat(d2.argmin(axis=1), counts, axis=1)
        bins = np.arange(len(active))[:, None] * c + new_assignment
        sizes = np.bincount(bins.ravel(), minlength=len(active) * c).reshape(-1, c)
        for i in np.flatnonzero((sizes == 0).any(axis=1)):
            run, run_assignment, run_sizes = active[i], new_assignment[i], sizes[i]
            # repair empty clusters: split the largest at its farthest member.  As
            # n >= c, the largest holds >= 2 points, so no repair empties a cluster.
            for cid in np.flatnonzero(run_sizes == 0):
                big = int(np.argmax(run_sizes))
                members = np.flatnonzero(run_assignment == big)
                far = members[np.argmax(
                    _sq_distances(centers[run, big:big + 1], points[members])[0])]
                run_assignment[far] = cid
                centers[run, cid] = points[far]
                run_sizes[big] -= 1
                run_sizes[cid] = 1
        changed = (new_assignment != assignment[active]).any(axis=1)
        active, new_assignment = active[changed], new_assignment[changed]
        if not len(active):
            break
        assignment[active] = new_assignment
        sizes = sizes[changed]
        bins = (np.arange(len(active))[:, None] * c + new_assignment).ravel()
        sums = np.stack([np.bincount(bins, weights=column, minlength=sizes.size)
                         for column in np.tile(points.T, len(active))], axis=-1)
        centers[active] = sums.reshape(len(active), c, -1) / sizes[..., None]
    d2 = _sq_distances(centers, hit_protos)
    costs = d2[np.arange(runs)[:, None], assignment, owner].sum(axis=1)
    return assignment, costs, centers


def cluster_prototypes(grid: SomGrid, cluster_count: int, restarts: int = 32,
                       seed: int = 0, *, hit_counts) -> np.ndarray:
    """Partition prototype vectors by hit-weighted k-means, keeping the best of
    ``restarts``: the cluster id in ``[0, cluster_count)`` of every neuron,
    each cluster holding at least one neuron.

    Each prototype enters the k-means objective once per hit in ``hit_counts``
    (the hit histogram of the training data), so the partition follows where
    the data mass lies instead of giving interpolating dead units equal say.
    Prototypes themselves (hit or not) are then assigned to the nearest
    resulting center.  Equal counts weigh every prototype alike.
    """
    hit_counts = np.asarray(hit_counts, dtype=int)
    if np.count_nonzero(hit_counts) < cluster_count:
        raise DataError(
            f"only {np.count_nonzero(hit_counts)} hit neurons for "
            f"{cluster_count} clusters")
    _, costs, centers = _kmeans(grid.weights, hit_counts, cluster_count,
                                np.random.default_rng(seed), restarts)
    centers = centers[np.argmin(costs)]  # the first run of least cost
    d2 = _sq_distances(grid.weights, centers)
    full = np.argmin(d2, axis=1)
    for cid in range(cluster_count):  # keep every cluster non-empty
        if not np.any(full == cid):
            full[int(np.argmin(d2[:, cid]))] = cid
    return full


# ---------------------------------------------------------------------------
# Trained model persistence

@dataclass
class SomModel:
    """A trained, clustered and labeled map plus its normalizer.

    ``assignment[neuron]`` gives the neuron's cluster id (``cluster_prototypes``)
    and ``labels[cid]`` the Low/Medium/High tag for cluster ``cid``.
    """

    grid: SomGrid
    normalizer: Normalizer
    assignment: np.ndarray
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
        with np.errstate(over="ignore", invalid="ignore"):
            vectors = self.normalizer.transform(raw_vectors)
        return bmus(self.grid, vectors)[0]

    def labels_at(self, bmu_indices: np.ndarray) -> np.ndarray:
        """Index into LABELS of the label of the cluster that holds each BMU index."""
        ranks = np.array([LABELS.index(label) for label in self.labels])
        return ranks[self.assignment[bmu_indices]]

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
            "cluster_count": len(LABELS),
            "assignment": self.assignment.tolist(),
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
        """Rebuild a model from ``to_dict`` output; raises DataError naming the
        first field that is missing or cannot make a working map."""
        def array(key, dtype=float):
            """``d[key]`` as a ``dtype`` array of JSON numbers, or of JSON
            integers for ``int``: never strings, booleans or fractions."""
            kinds = (int,) if dtype is int else (int, float)
            try:
                values = np.array(d[key], dtype=object)
                if all(type(v) in kinds for v in values.flat):
                    return values.astype(dtype)
            except (TypeError, ValueError, OverflowError):
                pass
            raise DataError(f"{key}: not an array of JSON "
                            f"{'integers' if dtype is int else 'numbers'}")

        try:
            grid = SomGrid(rows=d["rows"], cols=d["cols"], weights=array("prototypes"),
                           rng_seed=d["rng_seed"])
            normalizer = Normalizer(feature_names=tuple(d["feature_names"]),
                                    mean=array("normalizer_mean"),
                                    std=array("normalizer_std"))
            if d["cluster_count"] != len(LABELS):
                raise DataError(f"cluster_count: {d['cluster_count']!r}, "
                                f"expected {len(LABELS)}")
            schedule = TrainingSchedule(**d["schedule"])
            model = cls(grid=grid, normalizer=normalizer,
                        assignment=array("assignment", int),
                        labels=list(d["labels"]), schedule=schedule,
                        train_seed=d["train_seed"], cluster_seed=d["cluster_seed"],
                        qe_history=list(d["qe_history"]))
            model._check()
        except KeyError as exc:
            raise DataError(f"missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed model: {exc}") from None
        return model

    def _check(self) -> None:
        rows, cols = self.grid.rows, self.grid.cols
        if not all(type(v) is int and v >= 1 for v in (rows, cols)):  # JSON true is no size
            raise DataError(f"rows/cols: {rows} x {cols} is not a grid")
        unknown = sorted(set(self.feature_names) - set(FEATURE_SIGNALS))
        if unknown:
            raise DataError(f"feature_names: unknown feature(s) {', '.join(unknown)}")
        n, dim = rows * cols, len(self.feature_names)
        arrays = {"prototypes": (self.grid.weights, (n, dim)),
                  "normalizer_mean": (self.normalizer.mean, (dim,)),
                  "normalizer_std": (self.normalizer.std, (dim,))}
        for name, (values, shape) in arrays.items():
            if values.shape != shape:
                raise DataError(f"{name}: shape {values.shape}, expected {shape}")
            if not np.all(np.isfinite(values)):
                raise DataError(f"{name}: non-finite value")
        if np.any(self.normalizer.std <= 0):
            raise DataError("normalizer_std: value <= 0")
        assignment = self.assignment
        if assignment.shape != (n,):
            raise DataError(f"assignment: {assignment.size} values for {n} neurons")
        if np.any((assignment < 0) | (assignment >= len(LABELS))):
            raise DataError(f"assignment: value outside [0, {len(LABELS)})")
        if sorted(self.labels) != sorted(LABELS):
            raise DataError(f"labels: {self.labels} is not a permutation of {list(LABELS)}")

    @classmethod
    def load(cls, path) -> "SomModel":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (DataError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"model file {path}: {exc}") from None
