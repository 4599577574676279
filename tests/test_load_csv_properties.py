"""Property tests of ``load_csv`` (bulk parse, row-by-row fallback, one check):
against a reference parser built from ``csv.reader`` + ``float()`` that skips
blank rows, rejects unparseable rows and rows whose cell count differs from
the header's, and checks the accepted rows cell by cell; and with one fault
planted in a clean table, which must be named at its file line and channel."""

import csv
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecoride import DataError, telemetry

NAMES = list(telemetry.CHANNELS)
# the README's plausibility bounds, inclusive; the other channels are unbounded
BOUNDS = {"VS": (0.0, 400.0), "ERPM": (0.0, 20000.0), "XACC": (-50.0, 50.0),
          "YACC": (-50.0, 50.0), "ZACC": (-50.0, 50.0), "FUEL": (0.0, math.inf)}
FORMATS = {"6f": "{:.6f}".format, "8g": "{:.8g}".format, "repr": repr}
# Ways to spoil one data row, each one np.loadtxt rejects: a junk, quoted or
# "1_0" cell (float() takes the last two), all cells empty, one cell too many
# or too few.
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


def reference_check(rows, lines):
    """The message (without the file) of the first fault in the documented
    order, or None: the row count; every cell finite and within BOUNDS, line by
    line and left to right; times strictly increasing."""
    if len(rows) < 2:
        return f"need at least 2 data rows, got {len(rows)}"
    for row, line in zip(rows, lines):
        for name, v in zip([telemetry.TIME_COLUMN, *NAMES], row):
            what = "timestamp" if name == telemetry.TIME_COLUMN else f"{name} value"
            if not math.isfinite(v):
                return f"non-finite {what} at line {line}"
            lo, hi = BOUNDS.get(name, (-math.inf, math.inf))
            if not lo <= v <= hi:
                return f"{what} {v:g} outside [{lo:g}, {hi:g}] at line {line}"
    for prev, row, line in zip(rows, rows[1:], lines[1:]):
        if not row[0] > prev[0]:
            return f"non-monotonic timestamps at line {line}"
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
    hi = hi if hi is None or math.isfinite(hi) else None
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, width=64)


def clean_rows(draw, n, fmt, names):
    return [[fmt(i / 32.0)] + [fmt(draw(plausible(name))) for name in names]
            for i in range(n)]


@st.composite
def csv_files(draw):
    """Text of a telemetry CSV: plausible values in random float formats but
    for an optional planted out-of-bounds cell, optional unused column, blank
    lines (before the header too), CRLF endings and mangled rows."""
    n = draw(st.integers(0, 40))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    note = draw(st.booleans())  # an extra column outside CHANNELS
    header = [telemetry.TIME_COLUMN, *NAMES] + (["note"] if note else [])
    rows = clean_rows(draw, n, fmt, header[1:])
    if n and draw(st.booleans()):
        name = draw(st.sampled_from(sorted(BOUNDS)))
        lo, hi = BOUNDS[name]
        beyond = draw(st.floats(1.0, 1e6))
        value = hi + beyond if math.isfinite(hi) and draw(st.booleans()) else lo - beyond
        rows[draw(st.integers(0, n - 1))][header.index(name)] = fmt(value)
    for k in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 4), unique=True)):
        col = draw(st.integers(1, len(header) - 1))  # never the time column
        rows[k] = mangle(rows[k], draw(st.sampled_from(MANGLES)), col)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@SETTINGS
@given(text=csv_files())
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
    random line and column, optionally after a rejected row and a blank line."""
    n = draw(st.integers(2, 30))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    rows = clean_rows(draw, n, fmt, NAMES)
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
        value = hi + beyond if math.isfinite(hi) and draw(st.booleans()) else lo - beyond
        rows[k][1 + NAMES.index(name)] = fmt(value)
        expected = f"{name} value {float(fmt(value)):g} outside [{lo:g}, {hi:g}]"
    elif fault != "none":
        col = draw(st.integers(0, len(NAMES)))
        rows[k][col] = fault
        expected = "non-finite " + ("timestamp" if col == 0 else f"{NAMES[col - 1]} value")
    lines = [""] * draw(st.integers(0, 2)) + [",".join([telemetry.TIME_COLUMN, *NAMES])]
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
        for k, ch in enumerate(channels, start=1):
            assert np.array_equal(ch.values, table[:, k])
    else:
        with pytest.raises(DataError, match=f"^{re.escape(expected)} in .*drive\\.csv$"):
            telemetry.load_csv(path)
