"""Telemetry ingestion: CSV loading, resampling to 32 Hz, overlapping windows."""

from __future__ import annotations

import codecs
import csv
import io
import logging
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import DataError

log = logging.getLogger(__name__)

SAMPLE_RATE_HZ = 32.0
WINDOW_LEN = 256
WINDOW_STEP = 128
SPEED_THRESHOLD_KMH = 60.0

# The channels the analysis reads, with their units (documentation only;
# values are plain floats).  A file's other columns are neither parsed nor checked.
CHANNELS = {
    "SWA": "deg",
    "VS": "km/h",
    "ERPM": "rev/min",
    "XACC": "m/s^2",
    "YACC": "m/s^2",
    "FUEL": "l/100km",
}

TIME_COLUMN = "t"

# Longest record: one day.  A record holds about twenty float arrays of
# duration x 32 samples, so this bounds one driver to about 0.45 GB.
MAX_DURATION_S = 86_400.0

# Largest median step of a time column in seconds; a column in milliseconds
# has a median step of ~31 at 32 Hz and would ask for a 1000-fold grid.
MAX_MEDIAN_STEP_S = 1.0

# Lowest sample rate a file may be logged at.  Re-logged at 12.8 Hz, one of
# the 32 Hz fleet's styles kept under 95% of its labels (README, "Sample-rate
# floor"); resample would make the rest up by interpolation.
MIN_RATE_HZ = 16.0

# How far a time may sit from its 32 Hz grid time and still count as on it:
# the span of decimal times, say 0 to 119.96875 s logged from 11.276852 s,
# can come out one rounding error short of a whole number of periods.
GRID_TOLERANCE_S = 1e-6


# Plausibility bounds of the raw samples (inclusive); other channels are unbounded.
BOUNDS = {"VS": (0.0, 400.0), "ERPM": (0.0, 20000.0), "XACC": (-50.0, 50.0),
          "YACC": (-50.0, 50.0), "FUEL": (0.0, np.inf)}
_LOW, _HIGH = np.array([BOUNDS.get(c, (-np.inf, np.inf)) for c in (TIME_COLUMN, *CHANNELS)]).T

# Bytes that np.loadtxt reads otherwise than csv.reader and float(): the
# quote, and the ASCII separators, which loadtxt strips from a cell.
_NOT_BULK = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


@dataclass
class RawChannel:
    """One channel of a checked telemetry file, before resampling; all
    channels of a file share one ``timestamps`` array."""

    name: str
    timestamps: np.ndarray
    values: np.ndarray
    source: str = ""  # the file the channel was read from, for error messages


@dataclass
class DriveRecord:
    """Uniformly sampled 32 Hz multi-channel telemetry for one driver/trip."""

    driver_id: str
    channels: dict[str, np.ndarray]
    t_start: float = 0.0
    source: str = ""  # the file the record was read from, for error messages

    def __post_init__(self):
        lengths = {name: len(v) for name, v in self.channels.items()}
        if len(set(lengths.values())) > 1:
            where = f" in {self.source}" if self.source else ""
            raise DataError(f"unequal channel lengths: {lengths}{where}")

    @property
    def n_total(self) -> int:
        if not self.channels:
            return 0
        return len(next(iter(self.channels.values())))


def load_csv(path) -> list[RawChannel]:
    """Read and check a telemetry CSV: one RawChannel per ``CHANNELS`` column.

    Only ``t`` and the ``CHANNELS`` columns are parsed and checked; the
    other columns count towards a row's width and are not read.  The file is
    read once, skipping a leading UTF-8 byte-order mark, and checked as UTF-8.
    Its lines are those of ``_lines``.  ``_bulk_table`` parses the bytes after
    the header in one call; a file that call cannot take as it stands is read
    on row by row by ``_parse_rows``.  Either way the table is checked once by
    ``_check``.  Messages name this file and a line counted from 1, header and
    blank lines included.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
    except FileNotFoundError:
        raise DataError(f"telemetry file not found: {path}") from None
    try:  # not "utf-8-sig": its exc.start does not count the mark
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[:exc.start] + b"x").readlines())
        raise DataError(f"non-UTF-8 byte 0x{data[exc.start]:02x} at line {line} "
                        f"in {path}") from None
    reader = csv.reader(_lines(data))
    try:  # a cell over csv.field_size_limit(), a process-wide limit left as it is
        cols, width, h = _header(reader, path)
        table, line_of = _bulk_table(data, h, cols, width) or _parse_rows(reader, cols, width, path)
    except csv.Error as exc:
        raise DataError(f"{exc} at line {reader.line_num} in {path}") from None
    columns = np.ascontiguousarray(table[:, :1 + len(CHANNELS)].T)  # one contiguous row per column
    _check(columns, line_of, path)
    t = columns[0]
    return [RawChannel(name, t, columns[k], source=str(path))
            for k, name in enumerate(CHANNELS, start=1)]


def _lines(data: bytes) -> io.TextIOWrapper:
    """The text of UTF-8 ``data`` in lines that end at CRLF, CR or LF, as
    ``csv.reader`` reads a file opened with ``newline=""``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _header(reader, path) -> tuple[list[int], int, int]:
    """The indices of ``t`` and ``CHANNELS`` in the header, its width and its
    line.  The header is the first non-blank row of a ``csv.reader``."""
    header = next((row for row in reader if any(cell.strip() for cell in row)), [])
    header, h = [cell.strip() for cell in header], reader.line_num
    for col in (TIME_COLUMN, *CHANNELS):
        if col not in header:
            raise DataError(f"missing required column '{col}' in {path}")
        if (count := header.count(col)) > 1:
            raise DataError(f"column '{col}' appears {count} times in the header "
                            f"at line {h} in {path}")
    return [header.index(col) for col in (TIME_COLUMN, *CHANNELS)], len(header), h


def _bulk_table(data: bytes, h: int, cols: list[int],
                width: int) -> tuple[np.ndarray, Callable[[int], int]] | None:
    """The data rows after header line ``h``, parsed in one ``np.loadtxt`` call
    on the bytes: columns ``cols``, then 0.0 for the header's last column if
    unread, and the file line of a row.  None where the file is to be read row
    by row: a byte of ``_NOT_BULK``, no comma after the header, a lone CR line
    end within the data (loadtxt takes a CR only before LF or at the end), and
    any row that is not empty but blank, of other than the header's ``width``
    cells or with a read cell that does not parse."""
    if any(b in data for b in _NOT_BULK):
        return None
    start = sum(len(line.encode()) for line in islice(_lines(data), h))  # past the header
    commas = np.count_nonzero(np.frombuffer(data, np.uint8, offset=start) == ord(","))
    if not commas:
        return None  # no data row; on no row at all loadtxt would warn
    # with usecols, loadtxt takes a row with cells past the last one it parses:
    # as it parses the header's last column, no row is narrower than the
    # header, so a wider one shows in the count of commas.  An unread last
    # column is read as 0.0 whatever its text, so text there keeps this path.
    last = {} if width - 1 in cols else {width - 1: lambda cell: 0.0}
    fh = io.BytesIO(data)
    fh.seek(start)
    try:
        table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, usecols=[*cols, *last],
                           converters=last, encoding="utf-8")
    except ValueError:
        return None
    if commas != len(table) * (width - 1):
        return None
    # the rows are the non-empty lines; worked out only for a message
    return table, lambda row: [i for i, line in enumerate(_lines(data), 1)
                               if i > h and line.rstrip("\r\n")][row]


def _parse_rows(reader, cols: list[int], width: int,
                path) -> tuple[np.ndarray, Callable[[int], int]]:
    """Row-by-row parse of columns ``cols`` of the rows left in a ``csv.reader``:
    blank rows are skipped; rows of other than ``width`` cells and unparseable
    ones are logged with their line and dropped."""
    rows, numbers = [], []
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != width:
            log.warning("rejecting line %d in %s: %d cells, header has %d",
                        reader.line_num, path, len(row), width)
            continue
        try:
            rows.append([float(row[c]) for c in cols])
            numbers.append(reader.line_num)
        except ValueError:
            log.warning("rejecting unparseable line %d in %s", reader.line_num, path)
    return np.array(rows, dtype=float).reshape(-1, len(cols)), numbers.__getitem__


def _check(columns: np.ndarray, line_of: Callable[[int], int], path) -> None:
    """The one check of a file's samples, held as one row per column of
    ``t`` and ``CHANNELS``, in this order: at least 2 data rows; every cell
    finite and every channel within ``BOUNDS`` (naming the first bad cell, by
    line and then column); times strictly increasing; a median time step of
    at most ``MAX_MEDIAN_STEP_S``, then of at most ``1 / MIN_RATE_HZ`` (2%
    more passes, for times rounded to the millisecond); a time span of at
    most ``MAX_DURATION_S`` (naming the first line past it); a mean time step
    within the same floor, so gaps between fast samples cannot hide a slow log."""
    n = columns.shape[1]
    if n < 2:
        raise DataError(f"need at least 2 data rows, got {n} in {path}")
    bad = ~np.isfinite(columns) | (columns < _LOW[:, None]) | (columns > _HIGH[:, None])
    if bad.any():
        row, col = divmod(int(np.argmax(bad.T)), len(columns))
        value = columns[col, row]
        what = "timestamp" if col == 0 else f"{list(CHANNELS)[col - 1]} value"
        what = (f"{what} {value:g} outside [{_LOW[col]:g}, {_HIGH[col]:g}]"
                if np.isfinite(value) else f"non-finite {what}")
        raise DataError(f"{what} at line {line_of(row)} in {path}")
    t = columns[0]
    step = np.diff(t)
    bad = step <= 0  # bad[i]: row i + 1 does not increase
    if bad.any():
        raise DataError(f"non-monotonic timestamps at line "
                        f"{line_of(int(np.argmax(bad)) + 1)} in {path}")
    median = float(np.median(step))
    if median > MAX_MEDIAN_STEP_S:
        raise DataError(f"median time step {median} s exceeds {MAX_MEDIAN_STEP_S:g} s "
                        f"in {path}: is the time column in seconds?")
    if median > 1.02 / MIN_RATE_HZ:
        raise DataError(f"median time step {median} s exceeds {1 / MIN_RATE_HZ:g} s, "
                        f"the {MIN_RATE_HZ:g} Hz sample-rate floor, in {path}")
    if t[-1] - t[0] > MAX_DURATION_S:  # before resample allocates a grid of it
        row = int(np.argmax(t - t[0] > MAX_DURATION_S))
        raise DataError(f"time span {float(t[row] - t[0])} s exceeds {MAX_DURATION_S:g} s "
                        f"(one day) at line {line_of(row)} in {path}")
    mean = float(t[-1] - t[0]) / (n - 1)
    if mean > 1.02 / MIN_RATE_HZ:
        raise DataError(f"mean time step {mean} s exceeds {1 / MIN_RATE_HZ:g} s, "
                        f"the {MIN_RATE_HZ:g} Hz sample-rate floor, in {path}")


def resample(channels: list[RawChannel], driver_id: str = "") -> DriveRecord:
    """Linearly interpolate the channels of one file onto a common 32 Hz grid.

    The channels share one time column, as ``load_csv`` gives them: the grid
    spans it, and its median step gives the source rate.  Above 32 Hz every
    channel gets a moving-average pre-filter over one output period before
    interpolation; near a record's ends it averages the samples that exist.
    """
    t = channels[0].timestamps
    t0 = float(t[0])
    # a last sample up to GRID_TOLERANCE_S short of a grid time still ends the grid there
    n = int(np.floor((t[-1] - t0 + GRID_TOLERANCE_S) * SAMPLE_RATE_HZ)) + 1
    grid = t0 + np.arange(n) / SAMPLE_RATE_HZ
    # the same median as _check's: resample also takes channels not from load_csv
    rate = 1.0 / float(np.median(np.diff(t)))
    if smooth := rate > SAMPLE_RATE_HZ * 1.05:
        kernel = np.ones(max(2, int(round(rate / SAMPLE_RATE_HZ))))
        lead = (len(kernel) - 1) // 2
        span = slice(lead, lead + len(t))  # "same" alignment at any length
        # the mean of the samples in reach, so an edge is not pulled towards 0
        reach = np.convolve(np.ones(len(t)), kernel)[span]
    # samples already at their grid times are taken as they are: a time one
    # rounding error off its grid time would mix in a neighbour's value
    on_grid = not smooth and len(t) == n and np.all(np.abs(t - grid) <= GRID_TOLERANCE_S)
    out = {}
    for ch in channels:
        values = np.convolve(ch.values, kernel)[span] / reach if smooth else ch.values
        out[ch.name] = values if on_grid else np.interp(grid, t, values)
    return DriveRecord(driver_id=driver_id, channels=out, t_start=t0,
                       source=channels[0].source)


def split_windows(record: DriveRecord) -> np.ndarray:
    """The first samples of the 256-sample windows that fit in the record,
    advancing by 128 samples (50% overlap); ``window_rows`` gives their samples."""
    return np.arange(0, record.n_total - WINDOW_LEN + 1, WINDOW_STEP)


def window_rows(signal: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(len(starts), WINDOW_LEN) samples of ``signal``, one row per window of
    ``split_windows``, gathered as two rows each of its 128-sample reshape."""
    halves = signal[:len(signal) // WINDOW_STEP * WINDOW_STEP].reshape(-1, WINDOW_STEP)
    return halves[np.add.outer(starts // WINDOW_STEP, [0, 1])].reshape(-1, WINDOW_LEN)


def filter_by_mean_speed(record: DriveRecord, starts: np.ndarray) -> np.ndarray:
    """The windows whose mean vehicle speed is at or above ``SPEED_THRESHOLD_KMH``."""
    speed = window_rows(record.channels["VS"], starts).mean(axis=1)
    return starts[speed >= SPEED_THRESHOLD_KMH]
