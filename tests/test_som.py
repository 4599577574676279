"""Hexagonal grid geometry, SOM training, U-matrix, clustering, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecoride import features, pipeline, som
from ecoride.features import Normalizer
from ecoride.som import LABELS, SomError, SomModel


def blobs(k=120, seed=0, centers=((0, 0), (6, 0), (0, 6))):
    rng = np.random.default_rng(seed)
    pts = [rng.normal(c, 0.5, size=(k // len(centers), 2)) for c in centers]
    return np.vstack(pts)


class TestHexGeometry:
    def test_distance_symmetry_and_zero(self):
        assert som.hex_distance(2, 3, 2, 3) == 0
        assert som.hex_distance(0, 0, 3, 2) == som.hex_distance(3, 2, 0, 0)

    def test_neighbor_counts(self):
        adjacent = som.grid_distance_matrix(5, 5) == 1
        assert adjacent[2 * 5 + 2].sum() == 6   # interior
        assert adjacent[0].sum() < 6            # corner

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = (tuple(rng.integers(0, 8, 2)) for _ in range(3))
            assert (som.hex_distance(*a, *c)
                    <= som.hex_distance(*a, *b) + som.hex_distance(*b, *c))

    def test_distance_matrix(self):
        d = som.grid_distance_matrix(3, 4)
        assert d.shape == (12, 12)
        assert np.allclose(d, d.T) and np.all(np.diag(d) == 0)
        coords = [(r, c) for r in range(5) for c in range(6)]
        ref = [[som.hex_distance(*a, *b) for b in coords] for a in coords]
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
        trained, history = som.train(grid, data, schedule, seed=1)
        assert history[-1] < history[0]
        assert history[-1] == pytest.approx(som.quantization_error(trained, data))

    def test_deterministic(self):
        data = blobs(seed=4)
        out = []
        for _ in range(2):
            grid = som.init_random(8, 8, data, seed=0)
            trained, _ = som.train(grid, data,
                                   som.default_schedule(len(data), 8, 8), seed=1)
            out.append(trained.weights)
        np.testing.assert_array_equal(out[0], out[1])

    def test_input_validation(self):
        grid = som.init_random(4, 4, blobs(), seed=0)
        schedule = som.TrainingSchedule(total_iterations=10)
        with pytest.raises(SomError):
            som.train(grid, np.empty((0, 2)), schedule, seed=0)
        with pytest.raises(SomError):
            som.train(grid, np.ones((5, 3)), schedule, seed=0)

    def test_rejects_non_finite_samples(self):
        grid = som.init_random(4, 4, blobs(), seed=0)
        data = blobs()
        data[7, 1] = np.nan
        with pytest.raises(SomError, match="non-finite sample at row 7"):
            som.train(grid, data, som.TrainingSchedule(total_iterations=10), seed=0)

    def test_schedule_decay(self):
        s = som.TrainingSchedule(total_iterations=100, alpha0=0.5, alpha_min=0.01)
        assert s.alpha(0) == pytest.approx(0.5)
        assert s.alpha(99) == pytest.approx(0.01)
        assert s.alpha(50) < s.alpha(10)


def reference_train(grid, samples, schedule, seed):
    """``som.train`` as it was before its in-place rewrite, kept as the reference."""
    samples = np.asarray(samples, dtype=float)
    rng = np.random.default_rng(seed)
    weights = grid.weights.copy()
    dist = som.grid_distance_matrix(grid.rows, grid.cols)
    k = samples.shape[0]
    history = [som.quantization_error(grid, samples)]
    live = som.SomGrid(rows=grid.rows, cols=grid.cols, weights=weights,
                       rng_seed=grid.rng_seed)
    for n in range(schedule.total_iterations):
        x = samples[rng.integers(k)]
        d2 = np.sum((weights - x) ** 2, axis=1)
        c = int(np.argmin(d2))
        sigma = schedule.sigma(n)
        kernel = np.exp(-dist[c] ** 2 / (2.0 * sigma * sigma))
        weights += schedule.alpha(n) * kernel[:, None] * (x - weights)
        if (n + 1) % k == 0:
            history.append(som.quantization_error(live, samples))
    if schedule.total_iterations % k != 0:
        history.append(som.quantization_error(live, samples))
    return live, history


def assert_trains_like_reference(grid, samples, schedule, seed):
    trained, history = som.train(grid, samples, schedule, seed)
    ref_trained, ref_history = reference_train(grid, samples, schedule, seed)
    assert np.array_equal(trained.weights, ref_trained.weights)
    assert history == ref_history


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


class TestTrainMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=training_cases())
    def test_bit_identical(self, case):
        assert_trains_like_reference(*case)

    def test_bit_identical_on_synthetic_fleet(self, small_corpus):
        analyzed = [pipeline.analyze_record(r) for r in small_corpus]
        for names, seed in ((features.MAIN_FEATURES, 5), (features.AUX_FEATURES, 105)):
            vectors = [features.feature_matrix(a.columns, names) for a in analyzed]
            train = np.vstack([v[:int(round(0.75 * len(v)))] for v in vectors])
            z = features.fit_normalizer(train, names).transform(train)
            grid = som.init_random(15, 15, z, seed=seed)
            assert_trains_like_reference(grid, z, som.default_schedule(len(z), 15, 15),
                                         seed + 1)


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
        with pytest.raises(SomError, match="non-finite sample at row 11"):
            som.bmus(grid, data)

    def test_dimension_mismatch(self):
        grid = som.init_random(3, 3, blobs(), seed=0)
        with pytest.raises(SomError, match="mismatch"):
            som.bmu(grid, np.zeros(5))


class TestUMatrix:
    def test_boundary_shows_up(self):
        # two tight blobs mapped onto a trained SOM: U-matrix range is wide
        data = blobs(k=200, seed=6, centers=((0, 0), (10, 10)))
        grid = som.init_random(8, 8, data, seed=0)
        trained, _ = som.train(grid, data,
                               som.default_schedule(len(data), 8, 8), seed=1)
        u = som.u_matrix(trained)
        assert u.shape == (8, 8)
        assert u.max() > 3.0 * np.median(u)

    @pytest.mark.parametrize("rows, cols", [(15, 15), (1, 4)])
    def test_matches_per_neuron_loop(self, rows, cols):
        grid = som.init_random(rows, cols, blobs(seed=7), seed=3)
        coords = [(r, c) for r in range(rows) for c in range(cols)]
        ref = np.array([
            np.mean([np.linalg.norm(grid.weights[i] - grid.weights[j])
                     for j, b in enumerate(coords) if som.hex_distance(*a, *b) == 1])
            for i, a in enumerate(coords)]).reshape(rows, cols)
        assert np.allclose(som.u_matrix(grid), ref, rtol=1e-12, atol=0)


class TestClustering:
    def test_recovers_three_blobs(self):
        data = blobs(k=300, seed=8)
        grid = som.init_random(10, 10, data, seed=0)
        trained, _ = som.train(grid, data,
                               som.default_schedule(len(data), 10, 10), seed=1)
        # equal counts: every prototype has the same say
        part = som.cluster_prototypes(trained, 3, restarts=16, seed=2,
                                      hit_counts=np.ones(100, int))
        assert part.assignment.shape == (100,)
        assert set(np.unique(part.assignment)) == {0, 1, 2}
        # blob members should land in distinct clusters
        owners = {tuple(np.unique(
            [part.assignment[som.bmu(trained, x)[0]] for x in data[i:i + 100]]))
            for i in (0, 100, 200)}
        assert all(len(o) == 1 for o in owners)
        assert len(owners) == 3

    def test_hit_weighting_follows_data_mass(self):
        data = blobs(k=300, seed=8)
        grid = som.init_random(10, 10, data, seed=0)
        trained, _ = som.train(grid, data,
                               som.default_schedule(len(data), 10, 10), seed=1)
        hits = som.hit_histogram(trained, data)
        part = som.cluster_prototypes(trained, 3, restarts=16, seed=2,
                                      hit_counts=hits)
        labels = [part.assignment[som.bmu(trained, x)[0]] for x in data]
        assert all(len(np.unique(labels[i:i + 100])) == 1 for i in (0, 100, 200))

    def test_every_cluster_nonempty(self):
        data = blobs(k=60, seed=9)
        grid = som.init_random(4, 4, data, seed=0)
        part = som.cluster_prototypes(grid, 5, restarts=8, seed=3,
                                      hit_counts=np.ones(16, int))
        assert set(np.unique(part.assignment)) == set(range(5))

    def test_invalid_inputs(self):
        grid = som.init_random(3, 3, blobs(), seed=0)
        ones = np.ones(9, int)
        with pytest.raises(SomError):
            som.cluster_prototypes(grid, 0, hit_counts=ones)
        with pytest.raises(SomError):
            som.cluster_prototypes(grid, 10, hit_counts=ones)
        with pytest.raises(SomError, match="hit_counts"):
            som.cluster_prototypes(grid, 2, hit_counts=np.ones(4, dtype=int))

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
    trained, qe = som.train(grid, z, schedule, seed=seed + 1)
    part = som.cluster_prototypes(trained, 3, restarts=8, seed=seed + 2,
                                  hit_counts=som.hit_histogram(trained, z))
    return SomModel(grid=trained, normalizer=norm, partition=part,
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
        cid = model.partition.assignment[model.bmu_indices(x)[0]]
        assert model.labels_at(model.bmu_indices(x)).tolist() \
            == [LABELS.index(model.labels[cid])]
