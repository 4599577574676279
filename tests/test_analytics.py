"""Driver summaries, bivariate KDE and classification heatmaps."""

import json

import numpy as np
import pytest

from ecoride import DataError, analytics


def metrics_table(fuel=(3.0,), vr=0.5):
    """One driver's metric columns with the given per-window fuel values."""
    n = len(fuel)
    return {"msdv_x": np.full(n, 0.2), "msdv_y": np.full(n, 0.4), "vr": np.full(n, vr),
            "n_x_pos": np.zeros(n, dtype=int), "n_x_neg": np.ones(n, dtype=int),
            "n_y": np.full(n, 2), "fuel": np.asarray(fuel, dtype=float)}


class TestDriverSummary:
    def test_means_per_driver(self):
        metrics = {"b": metrics_table(fuel=[5.0]), "a": metrics_table(fuel=[2.0, 4.0]),
                   "c": metrics_table(fuel=[])}
        out = analytics.driver_summary(metrics)
        assert [s.driver_id for s in out] == ["a", "b"]  # "c" kept no window
        assert out[0].window_count == 2
        assert out[0].means["fuel"] == pytest.approx(3.0)
        assert out[1].means["fuel"] == pytest.approx(5.0)

    def test_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        analytics.write_summary_csv(analytics.driver_summary({"d0": metrics_table()}), path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("driver_id,window_count,fuel,vr")
        assert lines[1].startswith("d0,1,3,0.5")


class TestSilverman:
    def test_formula(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        h = analytics.silverman_bandwidth(x)
        assert h == pytest.approx(1.06 * x.std(ddof=1) * 200 ** (-0.2))


class TestKde2d:
    def sample(self, n=400, seed=0, mean=(3.0, 0.8), spread=(0.4, 0.15)):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.normal(mean[0], spread[0], n),
                                rng.normal(mean[1], spread[1], n)])

    def test_integral_near_one(self):
        surface = analytics.kde2d(self.sample())
        assert 0.95 <= surface.integral() <= 1.05

    def test_mode_near_sample_mean(self):
        # coarse grid so KDE sampling jitter stays below one cell
        pts = self.sample(n=4000, spread=(0.5, 0.2))
        surface = analytics.kde2d(pts, resolution=16)
        iy, ix = np.unravel_index(int(np.argmax(surface.density)), surface.density.shape)
        mx, my = surface.x_grid[ix], surface.y_grid[iy]
        dx = float(surface.x_grid[1] - surface.x_grid[0])
        dy = float(surface.y_grid[1] - surface.y_grid[0])
        assert abs(mx - pts[:, 0].mean()) <= dx
        assert abs(my - pts[:, 1].mean()) <= dy

    def test_density_nonnegative(self):
        surface = analytics.kde2d(self.sample(seed=5))
        assert np.all(surface.density >= 0)

    def test_input_validation(self):
        with pytest.raises(DataError, match=r"need at least 2 \(fuel, vr\) points"):
            analytics.kde2d(np.zeros((1, 2)))
        with pytest.raises(DataError, match="zero spread"):
            analytics.kde2d(np.column_stack([np.ones(10), np.arange(10.0)]))

    def test_export(self, tmp_path):
        surface = analytics.kde2d(self.sample(n=50), resolution=16)
        csv_path = tmp_path / "kde.csv"
        json_path = tmp_path / "kde.json"
        analytics.write_kde_csv(surface, csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "fuel,vr,density"
        assert len(lines) == 1 + 16 * 16
        meta = json.loads(json_path.read_text())
        assert meta["resolution"] == [16, 16]
        assert meta["integral"] == pytest.approx(surface.integral())


class TestDriverHeatmap:
    def test_tables_per_driver(self):
        # a: (Low, Low), (Low, High); b: four (High, Medium); c: no kept window
        by_driver = {"a": {"comfort_label": np.array([0, 0]), "fuel_label": np.array([0, 2])},
                     "b": {"comfort_label": np.full(4, 2), "fuel_label": np.full(4, 1)},
                     "c": {"comfort_label": np.array([], dtype=int),
                           "fuel_label": np.array([], dtype=int)}}
        out = analytics.driver_heatmap(by_driver)
        assert set(out) == {"a", "b"}
        assert out["a"][0, 0] == pytest.approx(50.0)
        assert out["b"][2, 1] == pytest.approx(100.0)
