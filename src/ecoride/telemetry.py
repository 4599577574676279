"""Telemetry ingestion: CSV loading, resampling to 32 Hz, overlapping windows."""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from . import DataError

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


@dataclass
class RawChannel:
    """One named channel as sampled in the source file, before resampling.

    The one check of raw samples: at least 2 of them, finite times and
    values, increasing times, and no negative ``VS``/``ERPM`` value.  Rows
    in messages count from 1.
    """

    name: str
    timestamps: np.ndarray
    values: np.ndarray
    source: str = ""  # the file the channel was read from, for error messages

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        where = f" in {self.source}" if self.source else ""
        if self.timestamps.shape != self.values.shape:
            raise DataError(f"channel {self.name}: timestamp/value length mismatch{where}")
        if len(self.timestamps) < 2:
            raise DataError(f"need at least 2 data rows, got {len(self.timestamps)}{where}")
        for label, arr in (("timestamp", self.timestamps), (f"{self.name} value", self.values)):
            bad = ~np.isfinite(arr)
            if bad.any():
                raise DataError(f"non-finite {label} at data row {int(np.argmax(bad)) + 1}{where}")
        bad = np.diff(self.timestamps) <= 0  # bad[i]: row i + 2 does not increase
        if bad.any():
            raise DataError(
                f"non-monotonic timestamps at data row {int(np.argmax(bad)) + 2}{where}")
        if self.name in ("VS", "ERPM"):
            bad = self.values < 0
            if bad.any():
                raise DataError(f"negative {self.name} value at data row "
                                f"{int(np.argmax(bad)) + 1}{where}")

    @property
    def rate(self) -> float:
        """Sampling rate in Hz from the median time step."""
        return 1.0 / float(np.median(np.diff(self.timestamps)))


@dataclass
class DriveRecord:
    """Uniformly sampled 32 Hz multi-channel telemetry for one driver/trip."""

    driver_id: str
    channels: dict[str, np.ndarray]
    t_start: float = 0.0
    source: str = ""  # the file the record was read from, for error messages

    def __post_init__(self):
        where = f" in {self.source}" if self.source else ""
        lengths = {name: len(v) for name, v in self.channels.items()}
        if len(set(lengths.values())) > 1:
            raise DataError(f"unequal channel lengths: {lengths}{where}")
        for name, values in self.channels.items():
            bad = ~np.isfinite(values)
            if bad.any():
                raise DataError(
                    f"channel {name}: non-finite value at sample {int(np.argmax(bad))}{where}")
        for name in ("VS", "ERPM"):
            if name in self.channels and np.any(self.channels[name] < 0):
                raise DataError(f"channel {name} has negative values{where}")

    @property
    def n_total(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))


def load_csv(path) -> list[RawChannel]:
    """Read a telemetry CSV into one RawChannel per ``CHANNELS`` column.

    The data rows are parsed in one ``np.loadtxt`` call; only a file that call
    cannot parse is read row by row, rejecting rows with unparseable values or
    a cell count other than the header's (logged with their row index).
    ``RawChannel`` then checks the accepted rows, naming this file.  A file
    that is not UTF-8 text raises DataError naming its first such line.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"telemetry file not found: {path}") from None
    with fh:
        try:
            table, cols = _read_table(fh, path)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    return [RawChannel(chan, table[:, cols[0]], table[:, c], source=str(path))
            for chan, c in zip(CHANNELS, cols[1:])]


def _read_table(fh, path) -> tuple[np.ndarray, list[int] | range]:
    """The data rows of an open CSV and the table columns of ``t`` and each channel."""
    # readline (not file iteration) keeps fh.tell() usable for the fallback
    reader = csv.reader(iter(fh.readline, ""))
    header = None
    for row in reader:
        if row and any(cell.strip() for cell in row):
            header = [cell.strip() for cell in row]
            break
    if header is None:
        raise DataError(f"empty telemetry file: {path}")
    for col in (TIME_COLUMN, *CHANNELS):
        if col not in header:
            raise DataError(f"missing required column '{col}' in {path}")
    cols = [header.index(col) for col in (TIME_COLUMN, *CHANNELS)]

    data_start = fh.tell()
    try:
        with warnings.catch_warnings():
            # "input contained no data": RawChannel checks the row count
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=",", dtype=float, comments=None, ndmin=2)
    except UnicodeDecodeError:
        raise  # a ValueError too, but the row-by-row fallback cannot decode it either
    except ValueError:
        table = None
    if table is None or table.shape[1] != len(header):
        fh.seek(data_start)
        return _parse_rows(fh, cols, len(header), path), range(len(cols))
    return table, cols


def _not_utf8(path) -> DataError:
    """DataError naming the first line of ``path`` (counted from 1) that is not
    UTF-8 text.  Read line by line in binary: a text decoder fails a whole
    chunk at a time, so the row it was at does not tell the line."""
    with open(path, "rb") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"non-UTF-8 byte 0x{line[exc.start]:02x} at line {i} "
                                 f"in {path}")
    return DataError(f"not UTF-8 text: {path}")


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
    pre-filter over one output period before interpolation; near a record's
    ends it averages the samples that exist.
    """
    if not channels:
        raise DataError("no channels to resample")
    t0 = max(float(ch.timestamps[0]) for ch in channels)
    t1 = min(float(ch.timestamps[-1]) for ch in channels)
    if t1 < t0:
        raise DataError("channels have no overlapping time support")
    n = int(np.floor((t1 - t0) * SAMPLE_RATE_HZ)) + 1
    grid = t0 + np.arange(n) / SAMPLE_RATE_HZ

    out: dict[str, np.ndarray] = {}
    for ch in channels:
        values, rate = ch.values, ch.rate
        if rate > SAMPLE_RATE_HZ * 1.05:
            kernel = np.ones(max(2, int(round(rate / SAMPLE_RATE_HZ))))
            lead = (len(kernel) - 1) // 2
            span = slice(lead, lead + len(values))  # "same" alignment at any length
            # the mean of the samples in reach, so an edge is not pulled towards 0
            values = (np.convolve(values, kernel)[span]
                      / np.convolve(np.ones(len(values)), kernel)[span])
        out[ch.name] = np.interp(grid, ch.timestamps, values)
    return DriveRecord(driver_id=driver_id, channels=out, t_start=t0,
                       source=channels[0].source)


def split_windows(record: DriveRecord) -> np.ndarray:
    """Start indices of the 256-sample windows advancing by 128 samples (50% overlap).

    A window is its start index; ``window_rows`` gives its samples.
    """
    return np.arange(0, record.n_total - WINDOW_LEN + 1, WINDOW_STEP)


def window_rows(signal: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(len(windows), WINDOW_LEN) samples of ``signal``, one row per window start."""
    return signal[np.asarray(windows, dtype=np.intp)[:, None] + np.arange(WINDOW_LEN)]


def filter_by_mean_speed(record: DriveRecord, windows: np.ndarray) -> np.ndarray:
    """Starts of the windows whose mean vehicle speed is at or above
    ``SPEED_THRESHOLD_KMH``."""
    windows = np.asarray(windows, dtype=np.intp)
    speed = np.mean(window_rows(record.channels["VS"], windows), axis=1)
    return windows[speed >= SPEED_THRESHOLD_KMH]
