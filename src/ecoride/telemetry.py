"""Telemetry ingestion: CSV loading, resampling to 32 Hz, overlapping windows."""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

SAMPLE_RATE_HZ = 32.0
WINDOW_LEN = 256
WINDOW_STEP = 128
SPEED_THRESHOLD_KMH = 60.0

# Channel names and their units (documentation only; values are plain floats).
CHANNELS = {
    "SWA": "deg",
    "VS": "km/h",
    "ERPM": "rev/min",
    "PGP": "%",
    "GP": "",
    "BP": "",
    "XACC": "m/s^2",
    "YACC": "m/s^2",
    "ZACC": "m/s^2",
    "FUEL": "l/100km",
}

TIME_COLUMN = "t"


class TelemetryError(Exception):
    """Raised for malformed telemetry inputs."""


def _require_finite(channel: str, what: str, arr: np.ndarray) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        raise TelemetryError(
            f"channel {channel}: non-finite {what} at sample {int(np.argmax(bad))}")


@dataclass
class RawChannel:
    """One named channel as sampled in the source file, before resampling."""

    name: str
    rate: float
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.rate <= 0:
            raise TelemetryError(f"channel {self.name}: rate must be > 0")
        if self.timestamps.shape != self.values.shape:
            raise TelemetryError(f"channel {self.name}: timestamp/value length mismatch")
        _require_finite(self.name, "timestamp", self.timestamps)
        _require_finite(self.name, "value", self.values)
        if len(self.timestamps) >= 2:
            dt = np.diff(self.timestamps)
            if np.any(dt <= 0):
                bad = int(np.argmax(dt <= 0)) + 1
                raise TelemetryError(
                    f"channel {self.name}: non-monotonic timestamps at sample {bad}"
                )
            med = float(np.median(dt))
            if abs(1.0 / med - self.rate) > 0.05 * self.rate:
                raise TelemetryError(
                    f"channel {self.name}: declared rate {self.rate} Hz inconsistent "
                    f"with median spacing {med:.6g} s"
                )

    @property
    def t_start(self) -> float:
        return float(self.timestamps[0])

    @property
    def t_end(self) -> float:
        return float(self.timestamps[-1])


@dataclass
class DriveRecord:
    """Uniformly sampled 32 Hz multi-channel telemetry for one driver/trip."""

    driver_id: str
    channels: dict[str, np.ndarray]
    t_start: float = 0.0

    def __post_init__(self):
        lengths = {name: len(v) for name, v in self.channels.items()}
        if len(set(lengths.values())) > 1:
            raise TelemetryError(f"unequal channel lengths: {lengths}")
        for name, values in self.channels.items():
            _require_finite(name, "value", values)
        for name in ("VS", "ERPM"):
            if name in self.channels and np.any(self.channels[name] < 0):
                raise TelemetryError(f"channel {name} has negative values")

    @property
    def n_total(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))

    def __len__(self) -> int:
        return self.n_total


def load_csv(path) -> list[RawChannel]:
    """Read a telemetry CSV into one RawChannel per ``CHANNELS`` column.

    The data rows are parsed in one ``np.loadtxt`` call; only a file that call
    cannot parse is read row by row, rejecting rows with unparseable values or
    a cell count other than the header's (logged with their row index).  A
    file with fewer than 2 data rows raises, and so does a ``nan``/``inf``
    timestamp or value, naming the channel and the data row (counted from 1
    over the accepted rows).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise TelemetryError(f"telemetry file not found: {path}") from None
    with fh:
        # readline (not file iteration) keeps fh.tell() usable for the fallback
        reader = csv.reader(iter(fh.readline, ""))
        header = None
        for row in reader:
            if row and any(cell.strip() for cell in row):
                header = [cell.strip() for cell in row]
                break
        if header is None:
            raise TelemetryError(f"empty telemetry file: {path}")
        for col in (TIME_COLUMN, *CHANNELS):
            if col not in header:
                raise TelemetryError(f"missing required column '{col}' in {path}")
        cols = [header.index(col) for col in (TIME_COLUMN, *CHANNELS)]

        data_start = fh.tell()
        try:
            with warnings.catch_warnings():
                # "input contained no data": the row count is checked below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", dtype=float, comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is None or table.shape[1] != len(header):
            fh.seek(data_start)
            table, cols = _parse_rows(fh, cols, len(header), path), range(len(cols))

    ts = table[:, cols[0]]
    values = {chan: table[:, c] for chan, c in zip(CHANNELS, cols[1:])}
    if len(ts) < 2:
        raise TelemetryError(f"need at least 2 data rows, got {len(ts)} in {path}")
    for label, arr in (("timestamp", ts), *((f"{c} value", v) for c, v in values.items())):
        bad = ~np.isfinite(arr)
        if bad.any():
            raise TelemetryError(
                f"non-finite {label} at data row {int(np.argmax(bad)) + 1} in {path}")
    dt = np.diff(ts)
    if np.any(dt <= 0):
        bad = int(np.argmax(dt <= 0)) + 1
        raise TelemetryError(f"non-monotonic timestamps at data row {bad} in {path}")
    rate = 1.0 / float(np.median(dt))
    return [
        RawChannel(name=chan, rate=rate, timestamps=ts, values=values[chan])
        for chan in CHANNELS
    ]


def _parse_rows(fh, cols: list[int], width: int, path) -> np.ndarray:
    """Row-by-row parse of columns ``cols``: blank rows are skipped; rows of
    other than ``width`` cells and unparseable ones are logged with their row
    index and dropped."""
    rows = []
    for i, row in enumerate(csv.reader(fh), start=2):  # 1-based, after header
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != width:
            log.warning("rejecting row %d in %s: %d cells, header has %d",
                        i, path, len(row), width)
            continue
        try:
            rows.append([float(row[c]) for c in cols])
        except ValueError:
            log.warning("rejecting unparseable row %d in %s", i, path)
    return np.array(rows, dtype=float).reshape(-1, len(cols))


def resample(channels: list[RawChannel], driver_id: str = "") -> DriveRecord:
    """Linearly interpolate all channels onto a common 32 Hz grid.

    The grid spans the intersection of the channel time ranges, starting at the
    latest channel start.  Channels sampled above 32 Hz get a moving-average
    pre-filter over one output period before interpolation.
    """
    if not channels:
        raise TelemetryError("no channels to resample")
    for ch in channels:
        if len(ch.timestamps) < 2:
            raise TelemetryError(f"channel {ch.name}: need at least 2 samples")
    t0 = max(ch.t_start for ch in channels)
    t1 = min(ch.t_end for ch in channels)
    if t1 < t0:
        raise TelemetryError("channels have no overlapping time support")
    n = int(np.floor((t1 - t0) * SAMPLE_RATE_HZ)) + 1
    grid = t0 + np.arange(n) / SAMPLE_RATE_HZ

    out: dict[str, np.ndarray] = {}
    for ch in channels:
        values = ch.values
        if ch.rate > SAMPLE_RATE_HZ * 1.05:
            width = max(2, int(round(ch.rate / SAMPLE_RATE_HZ)))
            kernel = np.ones(width) / width
            values = np.convolve(values, kernel, mode="same")
        out[ch.name] = np.interp(grid, ch.timestamps, values)
    return DriveRecord(driver_id=driver_id, channels=out, t_start=t0)


def split_windows(record: DriveRecord) -> np.ndarray:
    """Start indices of the 256-sample windows advancing by 128 samples (50% overlap).

    A window is its start index; ``window_rows`` gives its samples.
    """
    return np.arange(0, record.n_total - WINDOW_LEN + 1, WINDOW_STEP)


def window_rows(signal: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(len(windows), WINDOW_LEN) samples of ``signal``, one row per window start."""
    return signal[np.asarray(windows, dtype=np.intp)[:, None] + np.arange(WINDOW_LEN)]


def filter_by_mean_speed(record: DriveRecord, windows: np.ndarray,
                         threshold: float = SPEED_THRESHOLD_KMH) -> np.ndarray:
    """Starts of the windows whose mean vehicle speed is at or above ``threshold`` km/h."""
    windows = np.asarray(windows, dtype=np.intp)
    return windows[np.mean(window_rows(record.channels["VS"], windows), axis=1) >= threshold]
