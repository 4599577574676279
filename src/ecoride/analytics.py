"""Per-driver statistics: summaries, bivariate KDE of (fuel, VR), heatmaps."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import DataError
from .advisor import intersect


SUMMARY_METRICS = ("fuel", "vr", "msdv_y", "n_x_pos", "n_x_neg", "n_y")


@dataclass
class DriverSummary:
    driver_id: str
    window_count: int
    means: dict[str, float]


def driver_summary(columns_by_driver: dict[str, dict[str, np.ndarray]]) -> list[DriverSummary]:
    """Arithmetic means of each metric per driver (one set of columns each),
    in driver-id order; a driver with no kept window has no summary."""
    return [DriverSummary(driver_id=driver_id, window_count=len(columns["vr"]),
                          means={name: float(np.mean(columns[name]))
                                 for name in SUMMARY_METRICS})
            for driver_id, columns in sorted(columns_by_driver.items()) if len(columns["vr"])]


def write_summary_csv(summaries: list[DriverSummary], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver_id", "window_count", *SUMMARY_METRICS])
        for s in summaries:
            writer.writerow([s.driver_id, s.window_count,
                             *[f"{s.means[m]:.6g}" for m in SUMMARY_METRICS]])


@dataclass
class KdeSurface:
    x_grid: np.ndarray  # fuel axis
    y_grid: np.ndarray  # vomit-rate axis
    density: np.ndarray  # (len(y_grid), len(x_grid))
    bandwidth_x: float
    bandwidth_y: float

    def integral(self) -> float:
        dx = float(self.x_grid[1] - self.x_grid[0])
        dy = float(self.y_grid[1] - self.y_grid[0])
        return float(self.density.sum() * dx * dy)


def silverman_bandwidth(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    sigma = float(values.std(ddof=1))
    return 1.06 * sigma * len(values) ** (-1.0 / 5.0)


def kde2d(points: np.ndarray, resolution: int = 64) -> KdeSurface:
    """Product-Gaussian kernel density on a regular grid.

    Per-axis bandwidths follow Silverman's rule h = 1.06 * sigma * n^(-1/5);
    the grid spans [min - h, max + h] on each axis.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 2:
        raise DataError("need at least 2 (fuel, vr) points")
    x, y = points[:, 0], points[:, 1]
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise DataError("degenerate axis: zero spread")
    hx = silverman_bandwidth(x)
    hy = silverman_bandwidth(y)
    x_grid = np.linspace(x.min() - hx, x.max() + hx, resolution)
    y_grid = np.linspace(y.min() - hy, y.max() + hy, resolution)
    n = len(x)
    gx = np.exp(-0.5 * ((x_grid[None, :] - x[:, None]) / hx) ** 2) / (hx * np.sqrt(2 * np.pi))
    gy = np.exp(-0.5 * ((y_grid[None, :] - y[:, None]) / hy) ** 2) / (hy * np.sqrt(2 * np.pi))
    density = gy.T @ gx / n  # (res_y, res_x)
    return KdeSurface(x_grid=x_grid, y_grid=y_grid, density=density,
                      bandwidth_x=hx, bandwidth_y=hy)


def write_kde_csv(surface: KdeSurface, csv_path, sidecar_path) -> None:
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fuel", "vr", "density"])
        for iy, vr in enumerate(surface.y_grid):
            for ix, fuel in enumerate(surface.x_grid):
                writer.writerow([f"{fuel:.6g}", f"{vr:.6g}",
                                 f"{surface.density[iy, ix]:.6g}"])
    meta = {
        "bandwidth_fuel": surface.bandwidth_x,
        "bandwidth_vr": surface.bandwidth_y,
        "fuel_bounds": [float(surface.x_grid[0]), float(surface.x_grid[-1])],
        "vr_bounds": [float(surface.y_grid[0]), float(surface.y_grid[-1])],
        "resolution": [len(surface.x_grid), len(surface.y_grid)],
        "integral": surface.integral(),
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def driver_heatmap(columns_by_driver: dict[str, dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Per-driver 3x3 comfort/fuel intersection percentage tables from the label
    columns, in driver-id order; a driver with no kept window has no table."""
    return {driver_id: intersect(columns["comfort_label"], columns["fuel_label"])
            for driver_id, columns in sorted(columns_by_driver.items())
            if len(columns["comfort_label"])}
