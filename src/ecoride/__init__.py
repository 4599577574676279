"""Ride-comfort / eco-driving telemetry analysis and SOM-based driving advice."""

__version__ = "0.1.0"


class DataError(Exception):
    """Bad input data, config or model file; the CLI reports it with exit code 2."""
