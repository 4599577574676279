"""Driver summaries, bivariate KDE and classification heatmaps."""

import json

import numpy as np
import pytest

from ecoride import DataError, analytics


def fleet_table(fuel=(3.0,), vr=0.5):
    """A fleet table's metric columns with the given per-window fuel values."""
    n = len(fuel)
    return {"msdv_x": np.full(n, 0.2), "msdv_y": np.full(n, 0.4), "vr": np.full(n, vr),
            "n_x_pos": np.zeros(n, dtype=int), "n_x_neg": np.ones(n, dtype=int),
            "n_y": np.full(n, 2), "fuel": np.asarray(fuel, dtype=float)}


class TestDriverSummary:
    def test_means_per_driver(self):
        # the summary keeps the order of ``runs``, the fleet table's driver order
        fleet = fleet_table(fuel=[5.0, 2.0, 4.0])
        out = analytics.driver_summary(fleet, {"b": slice(0, 1), "a": slice(1, 3)})
        assert list(out) == ["b", "a"]
        assert out["a"][0] == 2 and out["b"][0] == 1
        fuel = analytics.SUMMARY_METRICS.index("fuel")
        assert out["a"][1][fuel] == pytest.approx(3.0)
        assert out["b"][1][fuel] == pytest.approx(5.0)

    def test_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        summary = analytics.driver_summary(fleet_table(), {"d0": slice(0, 1)})
        analytics.write_summary_csv(summary, path)
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
        # each flat axis is named, fuel first
        with pytest.raises(DataError, match="^fuel has zero spread$"):
            analytics.kde2d(np.ones((10, 2)))
        with pytest.raises(DataError, match="^vr has zero spread$"):
            analytics.kde2d(np.column_stack([np.arange(10.0), np.ones(10)]))

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
        # b: four (High, Medium); a: (Low, Low), (Low, High); c kept no window,
        # so it has no run of rows
        fleet = {"comfort_label": np.array([2, 2, 2, 2, 0, 0]),
                 "fuel_label": np.array([1, 1, 1, 1, 0, 2])}
        out = analytics.driver_heatmap(fleet, {"b": slice(0, 4), "a": slice(4, 6)})
        assert list(out) == ["b", "a"]
        assert out["a"][0, 0] == pytest.approx(50.0)
        assert out["a"][0, 2] == pytest.approx(50.0)
        assert out["b"][2, 1] == pytest.approx(100.0)
