"""Per-driver statistics: summaries, bivariate KDE of (fuel, VR), heatmaps."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import DataError, save_csv
from .advisor import intersect


SUMMARY_METRICS = ("fuel", "vr", "msdv_y", "n_x_pos", "n_x_neg", "n_y")


def driver_summary(fleet: dict[str, np.ndarray],
                   runs: dict[str, slice]) -> dict[str, tuple[int, list[float]]]:
    """Window count and arithmetic mean of each of ``SUMMARY_METRICS`` per
    driver, over its run of rows of the fleet table; ``runs`` maps each driver
    with a kept window to that run's slice, in the order to list them."""
    return {driver_id: (rows.stop - rows.start,
                        [float(np.mean(fleet[name][rows])) for name in SUMMARY_METRICS])
            for driver_id, rows in runs.items()}


def write_summary_csv(summaries: dict[str, tuple[int, list[float]]], path) -> None:
    save_csv(path, ["driver_id", "window_count", *SUMMARY_METRICS],
             ([driver_id, count, *[f"{m:.6g}" for m in means]]
              for driver_id, (count, means) in summaries.items()))


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
    the grid spans [min - h, max + h] on each axis with ``resolution`` (at
    least 2) points.
    """
    if resolution < 2:
        raise DataError(f"KDE grid resolution {resolution} is below 2 points per axis")
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    for name, axis in (("fuel", x), ("vr", y)):
        if np.ptp(axis) == 0.0:
            raise DataError(f"{name} has zero spread")
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
    """The grid as CSV, plus a JSON sidecar of bandwidths, bounds and integral.

    The CSV is the header ``fuel,vr,density``, then one row per grid point,
    y-major (every fuel value of the first vr, then of the next), each cell
    ``%.6g`` and each line ending in CRLF: the bytes one ``csv.writer`` row
    per point wrote, since no such cell needs quoting.  Each grid coordinate
    is formatted once: every vr row is a template holding the formatted fuel
    and vr cells with a ``%.6g`` in each density cell, and the densities go
    into the joined templates in one ``%``.
    """
    x_cells = ["%.6g" % x for x in surface.x_grid.tolist()]
    template = "".join(sep.join(x_cells) + sep
                       for sep in (",%.6g,%%.6g\r\n" % y for y in surface.y_grid.tolist()))
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("fuel,vr,density\r\n")
        fh.write(template % tuple(surface.density.ravel().tolist()))
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


def driver_heatmap(fleet: dict[str, np.ndarray],
                   runs: dict[str, slice]) -> dict[str, np.ndarray]:
    """Per-driver 3x3 comfort/fuel intersection percentage tables from the label
    columns of each driver's run of rows of the fleet table, as in
    ``driver_summary``."""
    return {driver_id: intersect(fleet["comfort_label"][rows], fleet["fuel_label"][rows])
            for driver_id, rows in runs.items()}
