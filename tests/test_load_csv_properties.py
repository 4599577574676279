"""Property tests of ``load_csv`` (bulk parse, row-by-row fallback, one check):
against a reference parser built from ``csv.reader`` + ``float()`` that skips
blank rows, rejects rows whose cell count differs from the header's and rows
with an unparseable cell in ``t`` or ``CHANNELS``, and checks the read cells
of the accepted rows one by one; with one fault planted in a clean table,
which must be named at its file line and channel; and the bulk parse against
the row-by-row one on files with stray bytes.  A line ends at CRLF, CR or LF,
as in a file opened with ``newline=""``."""

import csv
import logging
import math
import re
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ecoride import DataError, synthgen, telemetry

NAMES = list(telemetry.CHANNELS)
# the columns `ecoride synth` writes: the read ones and four unread ones
FILE_NAMES = list(synthgen.CHANNELS)
UNREAD = [name for name in FILE_NAMES if name not in NAMES]
HEADER = [telemetry.TIME_COLUMN, *FILE_NAMES]
# the README's bounds of every read channel, inclusive
BOUNDS = {"SWA": (-3600.0, 3600.0), "VS": (0.0, 400.0), "ERPM": (0.0, 20000.0),
          "XACC": (-50.0, 50.0), "YACC": (-50.0, 50.0), "FUEL": (0.0, 1e6)}
FORMATS = {"6f": "{:.6f}".format, "8g": "{:.8g}".format, "repr": repr}
# Cells of a last column of notes outside the schema: words, blanks, numbers.
NOTES = ("ok", "", "slow traffic", "n/a", "1e5", "-")
# Ways to change one data row: a junk, quoted or "1_0" cell (float() takes the
# last two), each of which spoils the row only in a read column; all cells
# empty, one cell too many or too few, each of which spoils it anywhere.
MANGLES = ("junk", "quoted", "underscore", "commas", "extra", "missing")
SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_parse(path):
    """(accepted rows as [t, *channels], their file lines, rejected-row
    warnings) the slow way: one ``csv.reader`` per line of the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = [(i, next(csv.reader([line]), [])) for i, line in enumerate(fh, start=1)]
    numbered = [(i, row) for i, row in numbered if any(c.strip() for c in row)]
    header = [c.strip() for c in numbered[0][1]]
    idx = [header.index(c) for c in [telemetry.TIME_COLUMN, *NAMES]]
    rows, lines, warned = [], [], []
    for i, row in numbered[1:]:
        if len(row) != len(header):
            warned.append(f"rejecting line {i} in {path}: {len(row)} cells, "
                          f"header has {len(header)}")
            continue
        try:
            rows.append([float(row[j]) for j in idx])
            lines.append(i)
        except ValueError:
            warned.append(f"rejecting unparseable line {i} in {path}")
    return rows, lines, warned


def outside(what, v, lo, hi):
    """The message for ``v`` outside [lo, hi]: at %g, in full where that reads as a bound."""
    text = f"{v:g}"
    if text in (f"{lo:g}", f"{hi:g}"):
        text = repr(v)
    return f"{what} {text} outside [{lo:g}, {hi:g}]"


def reference_check(rows, lines):
    """The message (without the file) of the first fault in the documented
    order, or None: the row count; every cell finite and within BOUNDS, line by
    line and left to right; times strictly increasing; a median step within
    the sample-rate floor (rows of 32 Hz times, rejected ones between them,
    stay within 1 s and one day); a mean step within the same floor."""
    if len(rows) < 2:
        return f"need at least 2 data rows, got {len(rows)}"
    for row, line in zip(rows, lines):
        for name, v in zip([telemetry.TIME_COLUMN, *NAMES], row):
            what = "timestamp" if name == telemetry.TIME_COLUMN else f"{name} value"
            if not math.isfinite(v):
                return f"non-finite {what} at line {line}"
            lo, hi = BOUNDS.get(name, (-math.inf, math.inf))
            if not lo <= v <= hi:
                return f"{outside(what, v, lo, hi)} at line {line}"
    for prev, row, line in zip(rows, rows[1:], lines[1:]):
        if not row[0] > prev[0]:
            return f"non-monotonic timestamps at line {line}"
    median = statistics.median(row[0] - prev[0] for prev, row in zip(rows, rows[1:]))
    if median > 1.02 / 16.0:
        return f"median time step {median} s exceeds 0.0625 s, the 16 Hz sample-rate floor,"
    mean = (rows[-1][0] - rows[0][0]) / (len(rows) - 1)
    if mean > 1.02 / 16.0:
        return f"mean time step {mean} s exceeds 0.0625 s, the 16 Hz sample-rate floor,"
    return None


def mangle(fields, kind, col):
    fields = list(fields)
    if kind == "junk":
        fields[col] = "junk"
    elif kind == "quoted":
        fields[col] = f'"{fields[col]}"'
    elif kind == "underscore":
        fields[col] = "1_0"
    elif kind == "commas":
        fields = [""] * len(fields)
    elif kind == "extra":
        fields.append("1.0")
    else:
        fields.pop()
    return fields


def plausible(name):
    """Finite values within the channel's bounds."""
    lo, hi = BOUNDS.get(name, (None, None))
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64)


def clean_rows(draw, n, fmt, names):
    return [[fmt(i / 32.0)] + [fmt(draw(plausible(name))) for name in names]
            for i in range(n)]


@st.composite
def csv_files(draw):
    """Text of a telemetry CSV: plausible values in random float formats but
    for an optional planted out-of-bounds cell, optional non-finite cell in an
    unread column, optional last column outside the schema (of numbers or of
    ``NOTES``), blank lines (before the header too), CRLF endings and mangled
    rows."""
    n = draw(st.integers(0, 40))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    note = draw(st.sampled_from([None, "numbers", "text"]))  # a column outside the schema
    header = HEADER + (["note"] if note else [])
    rows = clean_rows(draw, n, fmt, header[1:])
    if note == "text":
        for row in rows:
            row[-1] = draw(st.sampled_from(NOTES))
    if n and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(BOUNDS)))
        lo, hi = BOUNDS[name]
        beyond = draw(st.floats(1.0, 1e6))
        value = hi + beyond if draw(st.booleans()) else lo - beyond
        rows[draw(st.integers(0, n - 1))][header.index(name)] = fmt(value)
    if n and draw(st.booleans()):
        name = draw(st.sampled_from(UNREAD))
        rows[draw(st.integers(0, n - 1))][header.index(name)] = draw(
            st.sampled_from(["nan", "-inf", "1e308", "-1e9"]))
    for k in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 4), unique=True)):
        col = draw(st.integers(1, len(header) - 1))  # never the time column
        rows[k] = mangle(rows[k], draw(st.sampled_from(MANGLES)), col)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


def unread_cell_text(stray):
    """Text of a file of eight clean 32 Hz rows, with ``stray`` inside the
    third one's PGP cell."""
    rows = [[f"{i / 32}"] + ["0"] * len(FILE_NAMES) for i in range(8)]
    rows[2][HEADER.index("PGP")] = f"1{stray}5"
    return "".join(",".join(row) + "\n" for row in [HEADER, *rows])


@SETTINGS
@given(text=csv_files())
# line breaks of str.splitlines but of no csv.reader over a file opened with
# newline="", inside an unread cell: cell text, so every row is read
@example(text=unread_cell_text("\x0b"))
@example(text=unread_cell_text("\x0c"))
@example(text=unread_cell_text("\x85"))
@example(text=unread_cell_text("\u2028"))
# rejected rows that leave a median step over the sample-rate floor: of six
# 32 Hz rows, those on lines 3 to 5 have junk SWA, which leaves times 0,
# 0.125 and 0.15625 and a median step of 0.078125 s
@example(text=",".join(HEADER) + "\n" + "".join(
    f"{i / 32},{'junk' if 1 <= i <= 3 else 0}{',0' * 9}\n" for i in range(6)))
# rejected rows that leave a mean step over the floor under a median step
# within it: of eight 32 Hz rows, those on lines 5 to 8 have junk SWA, which
# leaves steps of 1/32, 1/32 and 5/32 s and a mean step of 0.0729 s
@example(text=",".join(HEADER) + "\n" + "".join(
    f"{i / 32},{'junk' if 3 <= i <= 6 else 0}{',0' * 9}\n" for i in range(8)))
def test_load_csv_matches_reference_parser(tmp_path, caplog, text):
    path = tmp_path / "drive.csv"
    path.write_bytes(text.encode("utf-8"))
    rows, lines, warned = reference_parse(path)
    expected = reference_check(rows, lines)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ecoride.telemetry"):
        if expected:
            with pytest.raises(DataError, match=f"^{re.escape(expected)} in "):
                telemetry.load_csv(path)
        else:
            table = np.array(rows)
            channels = telemetry.load_csv(path)
            assert [ch.name for ch in channels] == NAMES
            for k, ch in enumerate(channels, start=1):
                assert ch.timestamps is channels[0].timestamps
                assert np.array_equal(ch.timestamps, table[:, 0])
                assert np.array_equal(ch.values, table[:, k])
    assert [r.getMessage() for r in caplog.records] == warned


@st.composite
def planted_faults(draw):
    """(text, expected message or None, data rows): a clean table, optionally
    with blank lines before the header, and one planted fault (or none) at a
    random line and read column, optionally after a rejected row and a blank
    line."""
    n = draw(st.integers(2, 30))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    rows = clean_rows(draw, n, fmt, FILE_NAMES)
    k = draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(["none", "nan", "inf", "-inf", "bound", "time"]))
    if fault == "time":
        k = max(k, 1)
        rows[k][0] = fmt(float(rows[k - 1][0]) - draw(st.floats(0.0, 10.0)))
        expected = "non-monotonic timestamps"
    elif fault == "bound":
        name = draw(st.sampled_from(sorted(BOUNDS)))
        lo, hi = BOUNDS[name]
        beyond = draw(st.floats(1.0, 1e6))
        value = hi + beyond if draw(st.booleans()) else lo - beyond
        rows[k][HEADER.index(name)] = fmt(value)
        expected = outside(f"{name} value", float(fmt(value)), lo, hi)
    elif fault != "none":
        name = draw(st.sampled_from([telemetry.TIME_COLUMN, *NAMES]))
        rows[k][HEADER.index(name)] = fault
        expected = "non-finite " + ("timestamp" if name == telemetry.TIME_COLUMN
                                    else f"{name} value")
    lines = [""] * draw(st.integers(0, 2)) + [",".join(HEADER)]
    before = draw(st.integers(0, k))  # data rows before the extras
    lines += [",".join(r) for r in rows[:before]]
    if draw(st.booleans()):
        lines.append(",".join(rows[0] + ["1.0"]))  # 12 cells: rejected
    if draw(st.booleans()):
        lines.append("")
    lines += [",".join(r) for r in rows[before:]]
    if fault == "none":
        return "\n".join(lines) + "\n", None, rows
    line = len(lines) - n + k + 1  # rows[k] is the (n - k)-th line from the end
    return "\n".join(lines) + "\n", f"{expected} at line {line}", rows


@SETTINGS
@given(case=planted_faults())
def test_planted_fault_is_named_at_its_line(tmp_path, case):
    text, expected, rows = case
    path = tmp_path / "drive.csv"
    path.write_text(text, encoding="utf-8")
    if expected is None:
        channels = telemetry.load_csv(path)
        table = np.array(rows, dtype=float)
        assert np.array_equal(channels[0].timestamps, table[:, 0])
        for ch in channels:
            assert np.array_equal(ch.values, table[:, HEADER.index(ch.name)])
    else:
        with pytest.raises(DataError, match=f"^{re.escape(expected)} in .*drive\\.csv$"):
            telemetry.load_csv(path)


# Characters at which np.loadtxt and csv.reader with float() could part ways:
# a quote, line breaks, the ASCII separators, Unicode line separators,
# blanks, a NUL and a BOM.
STRAYS = ('"', "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
          "\u2028", "\u2029", "\t", " ", ",", "\x00", "\ufeff")


def outcome(path, caplog):
    """What ``load_csv`` makes of a file: its channels or its message, and the
    warnings it logs."""
    caplog.clear()
    try:
        got = [(ch.name, ch.timestamps.tolist(), ch.values.tolist())
               for ch in telemetry.load_csv(path)]
    except DataError as exc:
        got = str(exc)
    return got, [r.getMessage() for r in caplog.records]


@st.composite
def strayed_files(draw):
    """Text of a telemetry CSV that the bulk parse takes, clean or with one
    non-finite read cell to be named at its line, maybe with a last column of
    ``NOTES``, with one to three of ``STRAYS`` put in anywhere."""
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    rows = clean_rows(draw, draw(st.integers(2, 12)), fmt, FILE_NAMES)
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[HEADER.index(draw(st.sampled_from([telemetry.TIME_COLUMN, *NAMES])))] = "nan"
    note = draw(st.booleans())
    lines = [",".join(HEADER + ["note"] * note)]
    lines += [",".join(row + [draw(st.sampled_from(NOTES))] * note) for row in rows]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + eol
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(STRAYS)) + text[at:]
    return text


@SETTINGS
@given(text=strayed_files())
# a lone CR before a header's or a blank line's CRLF: a line of its own
@example(text=",".join(HEADER) + "\r\r\n" + ",".join(["0"] * 11) + "\r\nnan" + ",0" * 10)
@example(text="\r\r\n" + ",".join(HEADER) + "\n" + ",".join(["0"] * 11) + "\nnan" + ",0" * 10)
# a unit separator that np.loadtxt strips from a read cell and float() does
# not: the row on line 3 of 40 is rejected on both paths
@example(text=",".join(HEADER) + "\n" + "".join(
    f"{i / 32},0,0,0,0,0,0,{chr(0x1f) * (i == 1)}0,0,0,0\n" for i in range(40)))
def test_bulk_parse_agrees_with_row_by_row_parse(tmp_path, caplog, text):
    path = tmp_path / "drive.csv"
    path.write_bytes(text.encode("utf-8"))
    with caplog.at_level(logging.WARNING, logger="ecoride.telemetry"):
        got = outcome(path, caplog)
        with mock.patch.object(telemetry, "_bulk_table", return_value=None):
            assert got == outcome(path, caplog)
