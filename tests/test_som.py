"""Hexagonal grid geometry, SOM training, U-matrix, clustering, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecoride import DataError, features, pipeline, som
from ecoride.features import Normalizer
from ecoride.som import LABELS, SomModel


def blobs(k=120, seed=0, centers=((0, 0), (6, 0), (0, 6))):
    rng = np.random.default_rng(seed)
    pts = [rng.normal(c, 0.5, size=(k // len(centers), 2)) for c in centers]
    return np.vstack(pts)


def _offset_to_cube(row, col):
    x = col - (row - (row & 1)) // 2
    return x, -x - row, row


def hex_distance(row_a, col_a, row_b, col_b):
    """Grid distance between two neurons of an odd-r hexagonal lattice, one
    pair at a time: the reference for ``som.grid_distance_matrix``."""
    a, b = _offset_to_cube(row_a, col_a), _offset_to_cube(row_b, col_b)
    return sum(abs(p - q) for p, q in zip(a, b)) // 2


def reference_sq_distances(a, b):
    """Squared distances through ``np.sum`` over a 3-D difference array."""
    return np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)


class TestHexGeometry:
    def test_distance_symmetry_and_zero(self):
        assert hex_distance(2, 3, 2, 3) == 0
        assert hex_distance(0, 0, 3, 2) == hex_distance(3, 2, 0, 0)

    def test_neighbor_counts(self):
        adjacent = som.grid_distance_matrix(5, 5) == 1
        assert adjacent[2 * 5 + 2].sum() == 6   # interior
        assert adjacent[0].sum() < 6            # corner

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (tuple(rng.integers(0, 8, 2)) for _ in range(3))
            assert hex_distance(*a, *c) <= hex_distance(*a, *b) + hex_distance(*b, *c)

    def test_distance_matrix(self):
        d = som.grid_distance_matrix(3, 4)
        assert d.shape == (12, 12)
        assert np.allclose(d, d.T) and np.all(np.diag(d) == 0)
        coords = [(r, c) for r in range(5) for c in range(6)]
        ref = [[hex_distance(*a, *b) for b in coords] for a in coords]
        np.testing.assert_array_equal(som.grid_distance_matrix(5, 6), ref)


class TestSizingAndInit:
    def test_init_within_data_range(self):
        data = blobs()
        grid = som.init_random(10, 10, data, seed=1)
        assert grid.weights.shape == (100, 2)
        assert np.all(grid.weights >= data.min(axis=0) - 1e-12)
        assert np.all(grid.weights <= data.max(axis=0) + 1e-12)

    def test_init_deterministic(self):
        data = blobs()
        a = som.init_random(5, 5, data, seed=7)
        b = som.init_random(5, 5, data, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestTraining:
    def test_qe_decreases(self):
        data = blobs(seed=4)
        grid = som.init_random(8, 8, data, seed=0)
        schedule = som.default_schedule(len(data), 8, 8)
        [(trained, history, _)] = som.train([grid], [data], schedule, [1])
        assert history[-1] < history[0]
        assert history[-1] == pytest.approx(som.quantization_error(trained, data))

    def test_deterministic(self):
        data = blobs(seed=4)
        out = []
        for _ in range(2):
            grid = som.init_random(8, 8, data, seed=0)
            [(trained, _, _)] = som.train([grid], [data],
                                       som.default_schedule(len(data), 8, 8), [1])
            out.append(trained.weights)
        np.testing.assert_array_equal(out[0], out[1])

    def test_rejects_non_finite_samples(self):
        grid = som.init_random(4, 4, blobs(), seed=0)
        data = blobs()
        data[7, 1] = np.nan
        with pytest.raises(DataError, match="no finite distance to any prototype at sample row 7"):
            som.train([grid], [data], som.TrainingSchedule(total_iterations=10), [0])

    def test_schedule_decay(self):
        s = som.TrainingSchedule(total_iterations=100, alpha0=0.5, alpha_min=0.01)
        assert s.alpha(0) == pytest.approx(0.5)
        assert s.alpha(99) == pytest.approx(0.01)
        assert s.alpha(50) < s.alpha(10)

    @pytest.mark.parametrize("total", [0, 1, 2, 7, 100])
    def test_schedule_decay_array_matches_scalar(self, total):
        s = som.TrainingSchedule(total_iterations=total, sigma0=4.5)
        steps = np.arange(total + 3)
        for decay in (s.alpha, s.sigma):
            assert decay(steps).tolist() == [decay(int(n)) for n in steps]


def reference_train(grid, samples, schedule, seed):
    """``som.train`` as it was before its in-place rewrite, kept as the reference.

    Its quantization error is its own ``np.sum`` one, not ``som``'s."""
    samples = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    weights = grid.weights.copy()
    dist = som.grid_distance_matrix(grid.rows, grid.cols)
    k = samples.shape[0]

    def qe():
        return float(np.mean(np.sqrt(reference_sq_distances(samples, weights).min(axis=1))))

    history = [qe()]
    for n in range(schedule.total_iterations):
        x = samples[rng.integers(k)]
        d2 = np.sum((weights - x) ** 2, axis=1)
        c = int(np.argmin(d2))
        sigma = schedule.sigma(n)
        kernel = np.exp(-dist[c] ** 2 / (2.0 * sigma * sigma))
        weights += schedule.alpha(n) * kernel[:, None] * (x - weights)
        if (n + 1) % k == 0:
            history.append(qe())
    if schedule.total_iterations % k != 0:
        history.append(qe())
    return som.SomGrid(rows=grid.rows, cols=grid.cols, weights=weights,
                       rng_seed=grid.rng_seed), history


def assert_trains_like_reference(grid, samples, schedule, seed):
    [(trained, history, last_bmus)] = som.train([grid], [samples], schedule, [seed])
    ref_trained, ref_history = reference_train(grid, samples, schedule, seed)
    assert np.array_equal(trained.weights, ref_trained.weights)
    assert trained.weights.flags.c_contiguous
    assert history == ref_history
    # the kept indices are those of a new search at the trained weights
    assert np.array_equal(last_bmus, som.bmus(trained, samples)[0])


@st.composite
def training_cases(draw):
    """(grid, samples, schedule, seed): small hex grids, few samples (repeats
    included, so BMU ties occur), iteration counts on and off epoch bounds."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    k, dim = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    samples = draw(hnp.arrays(np.float64, (k, dim),
                              elements=st.floats(-100.0, 100.0, width=64)))
    grid = som.init_random(rows, cols, samples, seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        total = k * draw(st.integers(0, 4))
    else:
        total = draw(st.integers(0, 160))
    schedule = som.TrainingSchedule(total_iterations=total,
                                    sigma0=max(rows, cols) / 2.0)
    return grid, samples, schedule, draw(st.integers(0, 2**32 - 1))


@st.composite
def lockstep_cases(draw):
    """(grids, samples, schedule, seeds) of two maps that share a grid shape, a
    sample count and a schedule, each with its own features (1 to 6), sample
    values and seeds."""
    rows, cols, k = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(1, 40))
    grids, samples, seeds = [], [], []
    for _ in range(2):
        data = draw(hnp.arrays(np.float64, (k, draw(st.integers(1, 6))),
                               elements=st.floats(-100.0, 100.0, width=64)))
        grids.append(som.init_random(rows, cols, data,
                                     seed=draw(st.integers(0, 2**32 - 1))))
        samples.append(data)
        seeds.append(draw(st.integers(0, 2**32 - 1)))
    total = k * draw(st.integers(0, 4)) if draw(st.booleans()) else draw(st.integers(0, 160))
    schedule = som.TrainingSchedule(total_iterations=total, sigma0=max(rows, cols) / 2.0)
    return grids, samples, schedule, seeds


class TestTrainMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=training_cases())
    def test_bit_identical(self, case):
        assert_trains_like_reference(*case)

    @settings(max_examples=150, deadline=None)
    @given(case=lockstep_cases())
    def test_lockstep_maps_train_as_if_alone(self, case):
        grids, samples, schedule, seeds = case
        # every live grid that train searches for its epoch QE is a view of
        # the lockstep weights, which hold each map's padding rows
        live = []
        real_bmus = som.bmus

        def spy(grid, data):
            live.append(grid.weights)
            return real_bmus(grid, data)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(som, "bmus", spy)
            trained = som.train(grids, samples, schedule, seeds)
        assert len(trained) == len(grids)
        for (got, history, last_bmus), grid, data, seed in zip(trained, grids, samples, seeds):
            ref, ref_history = reference_train(grid, data, schedule, seed)
            assert np.array_equal(got.weights, ref.weights)
            assert got.weights.flags.c_contiguous
            assert history == ref_history
            assert np.array_equal(last_bmus, som.bmus(got, data)[0])
        if schedule.total_iterations:
            lockstep = live[-1].base
            assert lockstep.shape == (2, max(g.dim for g in grids), grids[0].n_neurons)
            for m, grid in enumerate(grids):
                padding = lockstep[m, grid.dim:]
                assert not padding.any() and not np.signbit(padding).any()

    def test_bit_identical_on_synthetic_fleet(self, small_corpus):
        analyzed = [pipeline.analyze_record(r) for r in small_corpus]
        for names, seed in ((features.MAIN_FEATURES, 5), (features.AUX_FEATURES, 105)):
            vectors = [features.feature_matrix(a, names) for a in analyzed]
            train = np.vstack([v[:int(round(0.75 * len(v)))] for v in vectors])
            z = features.fit_normalizer(train, names).transform(train)
            grid = som.init_random(15, 15, z, seed=seed)
            assert_trains_like_reference(grid, z, som.default_schedule(len(z), 15, 15),
                                         seed + 1)


def reference_kmeans_once(points, c, rng, max_iter=200, repairs=None, updates=None):
    """One run of ``som._kmeans`` alone, with ``np.sum`` distances and mask
    means: the reference.  Each empty-cluster repair appends the cluster id to
    ``repairs``, each pass that moves the centers to their means its index to
    ``updates``."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=c, replace=False)].copy()
    assignment = np.full(n, -1)
    for step in range(max_iter):
        d2 = reference_sq_distances(points, centers)
        new_assignment = np.argmin(d2, axis=1)
        for cid in range(c):
            if not np.any(new_assignment == cid):
                sizes = np.bincount(new_assignment, minlength=c)
                big = int(np.argmax(sizes))
                members = np.flatnonzero(new_assignment == big)
                far = members[np.argmax(
                    np.sum((points[members] - centers[big]) ** 2, axis=1))]
                new_assignment[far] = cid
                centers[cid] = points[far]
                if repairs is not None:
                    repairs.append(cid)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cid in range(c):
            centers[cid] = points[assignment == cid].mean(axis=0)
        if updates is not None:
            updates.append(step)
    d2 = np.sum((points - centers[assignment]) ** 2, axis=1)
    return assignment, float(np.sum(d2))


def spread_rows(rng, n, dim):
    """``n`` rows of ``dim`` features on scales from 1e-3 to 1e3, with repeated
    rows, so that the order of the feature sum shows in the last bits and
    argmin ties occur."""
    rows = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
    rows[rng.integers(n, size=n // 4)] = rows[rng.integers(n, size=n // 4)]
    return rows


def kmeans_cases(dim):
    """(rng seed, prototypes, hit counts, clusters) of 24 k-means cases: 36
    prototypes in 3 clusters, then 6 prototypes in 4 or 5 clusters.  With so
    few distinct points two seeded centers often coincide, the higher one's
    cluster comes out empty and the repair branch runs."""
    rng = np.random.default_rng(20 + dim)
    cases = [(36, 0, 3)] * 12 + [(6, 1, 4)] * 6 + [(6, 1, 5)] * 6
    for seed, (n_protos, min_hits, c) in enumerate(cases):
        protos = spread_rows(rng, n_protos, dim)
        yield seed, protos, rng.integers(min_hits, 4, size=n_protos), c


def assert_runs_match_reference(protos, counts, c, seed, runs):
    """Check each run of one batched ``som._kmeans`` call against
    ``reference_kmeans_once`` run alone from the same generator state; return
    each run's (repairs, center updates) in the reference."""
    points = np.repeat(protos, counts, axis=0)
    assignments, costs, centers = som._kmeans(protos, counts, c,
                                              np.random.default_rng(seed), runs)
    rng = np.random.default_rng(seed)
    made = []
    for assignment, cost, run_centers in zip(assignments, costs, centers):
        repairs, updates = [], []
        ref_assignment, ref_cost = reference_kmeans_once(
            points, c, rng, repairs=repairs, updates=updates)
        assert np.array_equal(assignment, ref_assignment) and cost == ref_cost
        # the returned centers are the mask means cluster_prototypes reads
        assert np.array_equal(run_centers, np.array(
            [points[assignment == cid].mean(axis=0) for cid in range(c)]))
        made.append((len(repairs), len(updates)))
    return made


class TestDistanceOrder:
    """The column-accumulated distances give the doubles of ``np.sum`` over the
    feature axis; a numpy whose reduce adds in another order fails here."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_sq_distances_match_np_sum(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(40):
            a = spread_rows(rng, int(rng.integers(1, 60)), dim)
            b = np.vstack([spread_rows(rng, int(rng.integers(1, 40)), dim), a[:3]])
            got, ref = som._sq_distances(a, b), reference_sq_distances(a, b)
            assert np.array_equal(got, ref)
            assert np.array_equal(got.argmin(axis=1), ref.argmin(axis=1))

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_feature_major_reduce_matches_np_sum(self, dim):
        # som.train's per-iteration distances: add.reduce over axis 0 of the
        # (dim, n_neurons) squares against np.sum over axis 1 of (n_neurons, dim)
        rng = np.random.default_rng(30 + dim)
        for _ in range(40):
            weights, x = spread_rows(rng, 225, dim), spread_rows(rng, 1, dim)[0]
            feature_major = np.ascontiguousarray(weights.T)
            got = np.add.reduce((feature_major - x[:, None]) ** 2, axis=0)
            assert np.array_equal(got, np.sum((weights - x) ** 2, axis=1))

    @pytest.mark.parametrize("dim", [2, 5])
    def test_bmus_match_np_sum(self, dim):
        rng = np.random.default_rng(10 + dim)
        weights = spread_rows(rng, 225, dim)
        weights[17] = weights[3]  # a tied pair of prototypes
        samples = np.vstack([spread_rows(rng, 2 * som.BMU_CHUNK + 11, dim), weights[:20]])
        grid = som.SomGrid(rows=15, cols=15, weights=weights)
        idx, dist = som.bmus(grid, samples)
        d2 = reference_sq_distances(samples, weights)
        assert np.array_equal(idx, d2.argmin(axis=1))
        assert np.array_equal(dist, np.sqrt(d2.min(axis=1)))

    @pytest.mark.parametrize("dim", [2, 5])
    def test_bmus_do_not_depend_on_the_chunk_size(self, dim, monkeypatch):
        rng = np.random.default_rng(40 + dim)
        weights = spread_rows(rng, 225, dim)
        weights[17] = weights[3]  # a tied pair of prototypes
        samples = np.vstack([spread_rows(rng, 300, dim), weights[:20]])
        grid = som.SomGrid(rows=15, cols=15, weights=weights)
        found = []
        for chunk in (1, 7, 128, len(samples) + 1):
            monkeypatch.setattr(som, "BMU_CHUNK", chunk)
            found.append(som.bmus(grid, samples))
        idx, dist = found[0]
        assert idx[-3] == 3  # weights[17] finds the lower of the tied pair
        for other_idx, other_dist in found[1:]:
            assert np.array_equal(other_idx, idx) and np.array_equal(other_dist, dist)

    @pytest.mark.parametrize("dim", [2, 5])
    def test_kmeans_runs_match_np_sum(self, dim, monkeypatch):
        searches, repairs = [], 0
        sq_distances = som._sq_distances
        monkeypatch.setattr(som, "_sq_distances",
                            lambda a, b: searches.append(a.shape[-2]) or sq_distances(a, b))
        for seed, protos, counts, c in kmeans_cases(dim):
            searches.clear()
            made = assert_runs_match_reference(protos, counts, c, seed, runs=4)
            # a repair's farthest-member search is the only one from one center
            assert (1 in searches) == any(r for r, _ in made)
            repairs += sum(r for r, _ in made)
        assert repairs >= 6

    def test_a_cycling_run_leaves_its_batch_alone(self):
        # 6 prototypes (5 of them distinct) in 5 clusters: from rng seed 19 the
        # first run repairs an empty cluster on every one of its 200 passes, as
        # each mean step empties a cluster that the next repair refills
        seed, protos, counts, c = list(kmeans_cases(5))[19]
        made = assert_runs_match_reference(protos, counts, c, seed, runs=8)
        assert made[0] == (200, 200)
        assert sum(updates < 200 for _, updates in made) >= 2  # runs that converge


class TestBmu:
    def test_nearest_and_tie_break(self):
        grid = som.SomGrid(rows=1, cols=3,
                           weights=np.array([[0.0], [1.0], [1.0]]), rng_seed=0)
        idx, dist = som.bmu(grid, np.array([0.9]))
        assert idx == 1  # tie between 1 and 2 -> lowest index
        assert dist == pytest.approx(0.1)

    def test_batched_matches_per_sample(self):
        data = blobs(k=600, seed=2)
        assert len(data) > 2 * som.BMU_CHUNK  # the search spans several chunks
        grid = som.init_random(4, 4, data, seed=0)
        grid.weights[5] = grid.weights[3]  # a tie: the lower index must win
        data = np.vstack([data, grid.weights[3]])
        idx, dist = som.bmus(grid, data)
        for x, i, d in zip(data, idx, dist):
            d2 = np.sum((grid.weights - x) ** 2, axis=1)
            assert i == np.argmin(d2) and d == np.sqrt(d2.min())
        assert idx[-1] == 3
        np.testing.assert_array_equal(som.hit_histogram(grid, data),
                                      np.bincount(idx, minlength=16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        grid = som.init_random(3, 3, blobs(), seed=0)
        data = blobs(k=30)
        data[11, 0] = bad
        with pytest.raises(DataError, match="no finite distance to any prototype at sample row 11"):
            som.bmus(grid, data)

    def test_rejects_overflowing_distances(self):
        # finite samples and prototypes whose squared distances all overflow
        # to inf: argmin alone would pick neuron 0 with distance inf
        grid = som.init_random(3, 3, blobs(), seed=0)
        grid.weights *= 1e200
        with pytest.raises(DataError, match="no finite distance to any prototype at sample row 0"):
            som.bmus(grid, blobs(k=30))

    def test_dimension_mismatch(self):
        grid = som.init_random(3, 3, blobs(), seed=0)
        with pytest.raises(DataError, match="mismatch"):
            som.bmu(grid, np.zeros(5))


class TestUMatrix:
    def test_boundary_shows_up(self):
        # two tight blobs mapped onto a trained SOM: U-matrix range is wide
        data = blobs(k=200, seed=6, centers=((0, 0), (10, 10)))
        grid = som.init_random(8, 8, data, seed=0)
        [(trained, _, _)] = som.train([grid], [data],
                                   som.default_schedule(len(data), 8, 8), [1])
        u = som.u_matrix(trained)
        assert u.shape == (8, 8)
        assert u.max() > 3.0 * np.median(u)

    @pytest.mark.parametrize("rows, cols", [(15, 15), (1, 4)])
    def test_matches_per_neuron_loop(self, rows, cols):
        grid = som.init_random(rows, cols, blobs(seed=7), seed=3)
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        ref = np.array([
            np.mean([np.linalg.norm(grid.weights[i] - grid.weights[j])
                     for j, b in enumerate(coords) if hex_distance(*a, *b) == 1])
            for i, a in enumerate(coords)]).reshape(rows, cols)
        assert np.allclose(som.u_matrix(grid), ref, rtol=1e-12, atol=0)


class TestClustering:
    def test_recovers_three_blobs(self):
        data = blobs(k=300, seed=8)
        grid = som.init_random(10, 10, data, seed=0)
        [(trained, _, _)] = som.train([grid], [data],
                                   som.default_schedule(len(data), 10, 10), [1])
        # equal counts: every prototype has the same say
        assignment = som.cluster_prototypes(trained, 3, restarts=16, seed=2,
                                            hit_counts=np.ones(100, int))
        assert assignment.shape == (100,)
        assert set(np.unique(assignment)) == {0, 1, 2}
        # blob members should land in distinct clusters
        owners = {tuple(np.unique(
            [assignment[som.bmu(trained, x)[0]] for x in data[i:i + 100]]))
            for i in (0, 100, 200)}
        assert all(len(o) == 1 for o in owners)
        assert len(owners) == 3

    def test_hit_weighting_follows_data_mass(self):
        data = blobs(k=300, seed=8)
        grid = som.init_random(10, 10, data, seed=0)
        [(trained, _, _)] = som.train([grid], [data],
                                   som.default_schedule(len(data), 10, 10), [1])
        hits = som.hit_histogram(trained, data)
        assignment = som.cluster_prototypes(trained, 3, restarts=16, seed=2,
                                            hit_counts=hits)
        labels = [assignment[som.bmu(trained, x)[0]] for x in data]
        assert all(len(np.unique(labels[i:i + 100])) == 1 for i in (0, 100, 200))

    def test_every_cluster_nonempty(self):
        data = blobs(k=60, seed=9)
        grid = som.init_random(4, 4, data, seed=0)
        assignment = som.cluster_prototypes(grid, 5, restarts=8, seed=3,
                                            hit_counts=np.ones(16, int))
        assert set(np.unique(assignment)) == set(range(5))

    def test_hit_histogram_total(self):
        data = blobs(k=90, seed=1)
        grid = som.init_random(5, 5, data, seed=0)
        hits = som.hit_histogram(grid, data)
        assert hits.sum() == len(data)


def make_model(seed=0):
    data = blobs(k=150, seed=seed)
    norm = Normalizer(feature_names=("XACC_pos", "ERPM"),
                      mean=data.mean(axis=0), std=data.std(axis=0))
    z = norm.transform(data)
    grid = som.init_random(6, 6, z, seed=seed)
    schedule = som.default_schedule(len(z), 6, 6)
    [(trained, qe, _)] = som.train([grid], [z], schedule, [seed + 1])
    assignment = som.cluster_prototypes(trained, 3, restarts=8, seed=seed + 2,
                                        hit_counts=som.hit_histogram(trained, z))
    return SomModel(grid=trained, normalizer=norm, assignment=assignment,
                    labels=["Medium", "Low", "High"], schedule=schedule,
                    train_seed=seed + 1, cluster_seed=seed + 2, qe_history=qe)


class TestModelPersistence:
    def test_round_trip_byte_identical(self, tmp_path):
        model = make_model()
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        model.save(p1)
        SomModel.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_same_classification(self, tmp_path):
        model = make_model()
        p = tmp_path / "m.json"
        model.save(p)
        loaded = SomModel.load(p)
        data = blobs(k=90, seed=11)
        idx = model.bmu_indices(data)
        np.testing.assert_array_equal(idx, loaded.bmu_indices(data))
        np.testing.assert_array_equal(model.labels_at(idx),
                                      loaded.labels_at(loaded.bmu_indices(data)))

    def test_labels_at_uses_partition(self):
        model = make_model()
        x = blobs(k=30, seed=12)[:1]
        cid = model.assignment[model.bmu_indices(x)[0]]
        assert model.labels_at(model.bmu_indices(x)).tolist() \
            == [LABELS.index(model.labels[cid])]
