"""Property test: ``load_csv`` (bulk parse, row-by-row fallback) against a reference
parser built from ``csv.reader`` + ``float()`` that skips blank rows and rejects
unparseable rows and rows whose cell count differs from the header's."""

import csv
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecoride import telemetry
from ecoride.telemetry import TelemetryError

NAMES = list(telemetry.CHANNELS)
FORMATS = {"6f": "{:.6f}".format, "8g": "{:.8g}".format, "repr": repr}
# Ways to spoil one data row, each one np.loadtxt rejects: a junk, quoted or
# "1_0" cell (float() takes the last two), all cells empty, one cell too many
# or too few.
MANGLES = ("junk", "quoted", "underscore", "commas", "extra", "missing")


def reference_parse(path):
    """(timestamps, {channel: values}, rejected-row warnings) the slow way."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(r for r in reader if r and any(c.strip() for c in r))
        header = [c.strip() for c in header]
        idx = [header.index(c) for c in [telemetry.TIME_COLUMN, *NAMES]]
        rows, warned = [], []
        for i, row in enumerate(reader, start=2):
            if not row or not any(c.strip() for c in row):
                continue
            if len(row) != len(header):
                warned.append(f"rejecting row {i} in {path}: {len(row)} cells, "
                              f"header has {len(header)}")
                continue
            try:
                rows.append([float(row[j]) for j in idx])
            except ValueError:
                warned.append(f"rejecting unparseable row {i} in {path}")
    table = np.array(rows, dtype=float).reshape(-1, len(idx))
    return table[:, 0], {name: table[:, 1 + k] for k, name in enumerate(NAMES)}, warned


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


@st.composite
def csv_files(draw):
    """Text of a telemetry CSV: finite values in random float formats, optional
    unused column, blank lines, CRLF endings and mangled rows."""
    n = draw(st.integers(0, 40))
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    note = draw(st.booleans())  # an extra column outside CHANNELS
    values = st.floats(allow_nan=False, allow_infinity=False, width=64)
    header = [telemetry.TIME_COLUMN, *NAMES] + (["note"] if note else [])
    rows = [[fmt(i / 32.0)] + [fmt(draw(values)) for _ in header[1:]] for i in range(n)]
    for k in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 4), unique=True)):
        col = draw(st.integers(1, len(header) - 1))  # never the time column
        rows[k] = mangle(rows[k], draw(st.sampled_from(MANGLES)), col)
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files())
def test_load_csv_matches_reference_parser(tmp_path, caplog, text):
    path = tmp_path / "drive.csv"
    path.write_bytes(text.encode("utf-8"))
    ts, values, warned = reference_parse(path)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ecoride.telemetry"):
        if len(ts) < 2:
            with pytest.raises(TelemetryError, match="need at least 2 data rows"):
                telemetry.load_csv(path)
        else:
            channels = telemetry.load_csv(path)
            for ch in channels:
                assert np.array_equal(ch.timestamps, ts)
                assert np.array_equal(ch.values, values[ch.name])
    assert [r.getMessage() for r in caplog.records] == warned
