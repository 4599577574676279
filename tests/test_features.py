"""Window features, the Pearson correlation table and the z-score normalizer."""

import numpy as np
import pytest

from ecoride import DataError, comfort, features, pipeline, telemetry

from conftest import make_record


class TestComputeFeatures:
    def test_rms_and_var_against_numpy(self, record, windows):
        f = features.compute_features(record, windows)
        start = windows[1]
        swa = record.channels["SWA"][start:start + 256]
        assert f["SWA RMS"][1] == pytest.approx(np.sqrt(np.mean(swa**2)))
        assert f["SWA Var"][1] == pytest.approx(np.var(swa))
        assert f["SWA RMS"].shape == f["SWA Var"].shape == windows.shape
        assert list(f) == list(features.FEATURE_COLUMNS)

    def test_signed_split(self, record, windows):
        f = features.compute_features(record, windows)
        xacc = record.channels["XACC"][:256]
        pos = np.maximum(xacc, 0.0)
        neg = np.maximum(-xacc, 0.0)
        assert f["XACC_pos RMS"][0] == pytest.approx(np.sqrt(np.mean(pos**2)))
        assert f["XACC_neg RMS"][0] == pytest.approx(np.sqrt(np.mean(neg**2)))
        # energy identity: pos^2 + neg^2 == xacc^2 samplewise
        np.testing.assert_allclose(f["XACC_pos RMS"] ** 2 + f["XACC_neg RMS"] ** 2,
                                   f["XACC RMS"] ** 2)

    def test_vector_order(self, record, windows):
        f = features.compute_features(record, windows)
        m = features.feature_matrix(f, features.MAIN_FEATURES)
        assert m.shape == (len(windows), 5)
        np.testing.assert_array_equal(m[:, 0], f["SWA RMS"])
        np.testing.assert_array_equal(m[:, 4], f["ERPM RMS"])
        assert features.feature_matrix(f, features.AUX_FEATURES).shape == (len(windows), 2)


def pearson(x, y) -> float:
    """The per-pair Pearson formula that ``correlation_table`` reproduces bit for bit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx**2))
    sy = np.sqrt(np.sum(dy**2))
    return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))


def per_pair_table(columns) -> np.ndarray:
    return np.array([[pearson(columns[t], columns[c]) for c in features.FEATURE_COLUMNS]
                     for t in features.CORRELATION_TARGETS])


def random_columns(n, seed) -> dict[str, np.ndarray]:
    """A seeded table of ``n`` windows: integer counts for the ``n_*`` targets,
    floats of mixed offset and scale elsewhere, and one feature an exact
    linear function of ``fuel``, whose correlation rounds to about 1."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name in (*features.CORRELATION_TARGETS, *features.FEATURE_COLUMNS):
        if name.startswith("n_"):
            column = rng.integers(0, 9, n)
            column[:2] = (0, 1)  # not constant at n = 2
        else:
            column = rng.normal(rng.uniform(-1e4, 1e4), 10.0 ** rng.uniform(-3, 3), n)
        columns[name] = column
    columns["VS RMS"] = 3.0 * columns["fuel"] + 2.0
    return columns


class TestCorrelationTable:
    def test_known_value(self):
        # hand-checked: r((1,3,2,4),(1,2,3,4)) = 0.8, in every cell
        columns = {t: np.array([1, 3, 2, 4]) for t in features.CORRELATION_TARGETS}
        columns.update((c, np.array([1.0, 2.0, 3.0, 4.0])) for c in features.FEATURE_COLUMNS)
        table = features.correlation_table(columns)
        assert table.shape == (6, 14)
        np.testing.assert_allclose(table, 0.8)

    def test_perfect_correlation(self):
        # a feature 3x + 2 of every target x, or -x: each cell is +1 or -1
        x = np.arange(10.0)
        columns = {t: x for t in features.CORRELATION_TARGETS}
        sign = np.where(np.arange(len(features.FEATURE_COLUMNS)) % 2, 1.0, -1.0)
        columns.update((c, 3 * x + 2 if s > 0 else -x)
                       for c, s in zip(features.FEATURE_COLUMNS, sign))
        np.testing.assert_allclose(features.correlation_table(columns),
                                   np.tile(sign, (6, 1)))

    @staticmethod
    def _same_bits(got, want):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_fleet_matches_per_pair_reference_bit_for_bit(self, small_corpus):
        # the seed-42 120 s fleet's window table, integer counts included
        columns = pipeline.analyze_fleet(small_corpus)
        self._same_bits(features.correlation_table(columns), per_pair_table(columns))

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 261, 1341, 4099,
                                   8193, 16411])
    def test_random_tables_match_per_pair_reference_bit_for_bit(self, n):
        # lengths about numpy's pairwise-summation block (128) and unroll (8)
        for seed in range(3):
            columns = random_columns(n, seed=1000 * n + seed)
            self._same_bits(features.correlation_table(columns), per_pair_table(columns))

    def test_shape_and_labels(self, tmp_path):
        rec = make_record(n=2048, seed=5)
        # constant VS would make its feature columns degenerate
        rec.channels["VS"] += 5.0 * np.sin(np.arange(2048) / 100.0)
        ws = telemetry.split_windows(rec)
        columns = {**features.compute_features(rec, ws), **comfort.window_metrics(rec, ws)}
        # give every target nonzero variance
        i = np.arange(len(ws))
        columns["n_x_pos"], columns["n_x_neg"], columns["n_y"] = i % 2, i % 3, i % 4
        table = features.correlation_table(columns)
        out = tmp_path / "corr.csv"
        features.write_correlation_csv(table, out)
        header, *body = (line.split(",") for line in out.read_text().splitlines())
        rows, cols = [r[0] for r in body], header[1:]
        assert rows == list(features.CORRELATION_TARGETS)
        assert len(cols) == 2 * len(features.FEATURE_SIGNALS)
        assert cols[0] == "SWA RMS" and cols[1] == "SWA Var"
        assert table.shape == (len(rows), len(cols))
        assert np.all(np.abs(table) <= 1.0)

    @pytest.mark.parametrize("name", ["n_y", "ERPM Var"])
    def test_constant_column_is_named(self, name):
        columns = {c: np.arange(7.0) % 3 for c in (*features.CORRELATION_TARGETS,
                                                  *features.FEATURE_COLUMNS)}
        columns[name] = np.full(7, 3.3)
        with pytest.raises(DataError, match=f"^{name} is the same in all 7 windows: "
                                            "its correlations are undefined$"):
            features.correlation_table(columns)


class TestNormalizer:
    def test_fit_transform_round_trip(self):
        rng = np.random.default_rng(2)
        data = rng.normal(5.0, 3.0, size=(100, 5))
        norm = features.fit_normalizer(data, features.MAIN_FEATURES)
        z = norm.transform(data)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_named(self):
        data = np.ones((10, 2))
        data[:, 0] = np.arange(10)
        with pytest.raises(DataError, match="ERPM"):
            features.fit_normalizer(data, feature_names=("XACC_pos", "ERPM"))

    def test_feature_matrix(self, record, windows):
        feats = features.compute_features(record, windows)
        m = features.feature_matrix(feats, features.AUX_FEATURES)
        assert m.shape == (len(windows), 2)
