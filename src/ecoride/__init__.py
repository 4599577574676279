"""Ride-comfort / eco-driving telemetry analysis and SOM-based driving advice."""

import csv

__version__ = "0.1.0"


class DataError(Exception):
    """Bad input data, config or model file; the CLI reports it with exit code 2."""


def save_csv(path, header, rows) -> None:
    """One table file: the ``header`` row, then ``rows``, through ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
