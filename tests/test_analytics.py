"""Driver summaries, bivariate KDE and classification heatmaps."""

import csv
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
        with pytest.raises(DataError, match="zero spread"):
            analytics.kde2d(np.column_stack([np.ones(10), np.arange(10.0)]))
        # each flat axis is named, fuel first
        with pytest.raises(DataError, match="^fuel has zero spread$"):
            analytics.kde2d(np.ones((10, 2)))
        with pytest.raises(DataError, match="^vr has zero spread$"):
            analytics.kde2d(np.column_stack([np.arange(10.0), np.ones(10)]))

    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_below_two_is_named(self, resolution):
        # one point per axis has no grid step, so no integral and no export
        with pytest.raises(DataError, match=f"^KDE grid resolution {resolution} is below 2 "
                                            "points per axis$"):
            analytics.kde2d(self.sample(), resolution=resolution)
        assert 0.0 < analytics.kde2d(self.sample(), resolution=2).integral()

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


def reference_write_kde_csv(surface, path):
    """``write_kde_csv``'s CSV as it was before one formatted block: one
    ``csv.writer`` row of f-strings per grid point, kept as the reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fuel", "vr", "density"])
        for iy, vr in enumerate(surface.y_grid):
            for ix, fuel in enumerate(surface.x_grid):
                writer.writerow([f"{fuel:.6g}", f"{vr:.6g}",
                                 f"{surface.density[iy, ix]:.6g}"])


# Any double (negative, tiny, huge, subnormal, nan, inf), signed zeros, and
# plain magnitudes that print without an exponent.
KDE_CELLS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def kde_surfaces(draw):
    """Surfaces of nx != ny grid points, so a swapped axis shows."""
    nx, ny = draw(st.lists(st.integers(2, 12), min_size=2, max_size=2, unique=True))

    def cells(n):
        return np.array(draw(st.lists(KDE_CELLS, min_size=n, max_size=n)))
    return analytics.KdeSurface(x_grid=cells(nx), y_grid=cells(ny),
                                density=cells(ny * nx).reshape(ny, nx),
                                bandwidth_x=0.1, bandwidth_y=0.1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(surface=kde_surfaces())
@example(surface=analytics.KdeSurface(
    x_grid=np.array([-0.0, 1e-300, 123456789.0]), y_grid=np.array([-2.5e-7, 1e300]),
    density=np.array([[0.0, np.nan, np.inf], [-np.inf, 5e-324, -1234567.0]]),
    bandwidth_x=0.1, bandwidth_y=0.1))
def test_write_kde_csv_matches_reference(tmp_path, surface):
    path, ref = tmp_path / "kde.csv", tmp_path / "ref.csv"
    with np.errstate(all="ignore"):  # the sidecar's integral of nan/inf cells
        analytics.write_kde_csv(surface, path, tmp_path / "kde.json")
    reference_write_kde_csv(surface, ref)
    assert path.read_bytes() == ref.read_bytes()


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
