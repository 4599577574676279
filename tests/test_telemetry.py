"""Ingestion, resampling, windowing and speed filtering."""

import re

import numpy as np
import pytest

from ecoride import DataError, synthgen, telemetry
from ecoride.telemetry import (SAMPLE_RATE_HZ, WINDOW_LEN, WINDOW_STEP,
                               DriveRecord, RawChannel)

from conftest import make_record

NAMES = list(telemetry.CHANNELS)
# the columns of the files _write_csv writes: those of `ecoride synth`
HEADER = [telemetry.TIME_COLUMN, *synthgen.CHANNELS]
UNREAD = [name for name in synthgen.CHANNELS if name not in NAMES]


def _write_csv(path, n=600, rate=32.0, mangle=None):
    lines = [",".join(HEADER)]
    for i in range(n):
        t = i / rate
        row = [f"{t:.6f}"] + [f"{(i + j) % 41}" for j in range(len(HEADER) - 1)]
        lines.append(",".join(row))
    if mangle:
        lines = mangle(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _no_fallback(*args):
    raise AssertionError("row-by-row parse used on a file the bulk parse takes")


class TestLoadCsv:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "a.csv"
        _write_csv(p)
        channels = telemetry.load_csv(p)
        assert [c.name for c in channels] == NAMES
        assert all(c.timestamps is channels[0].timestamps for c in channels)
        swa = next(c for c in channels if c.name == "SWA")
        assert len(swa.values) == 600
        assert swa.values[0] == 0.0 and swa.values[1] == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            telemetry.load_csv(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=lambda ls: [ls[0].replace("SWA", "WRONG")] + ls[1:])
        with pytest.raises(DataError, match="SWA"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("column", [telemetry.TIME_COLUMN, "VS"])
    def test_duplicated_column(self, tmp_path, column):
        # a second copy placed first would be the one read; after a blank line,
        # the header is line 2
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=lambda ls: ["", f"{column},{ls[0]}", *(f"0,{x}" for x in ls[1:])])
        with pytest.raises(DataError, match=re.escape(
                f"column '{column}' appears 2 times in the header at line 2 in {p}")):
            telemetry.load_csv(p)

    def test_clean_file_takes_the_bulk_path(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(telemetry, "_parse_rows", _no_fallback)
        p = tmp_path / "a.csv"
        _write_csv(p)
        with caplog.at_level("DEBUG", logger="ecoride.telemetry"):
            channels = telemetry.load_csv(p)
        assert len(channels[0].values) == 600
        assert caplog.records == []

    def test_trailing_text_column_takes_the_bulk_path(self, tmp_path, monkeypatch):
        # an unread last column of words is read as 0.0, not parsed as numbers;
        # a fault planted in the last row is named at that row's line, 601
        def notes(lines):
            return [f"{lines[0]},notes", *(f"{x},{'slow traffic' if i % 3 else 'ok'}"
                                          for i, x in enumerate(lines[1:]))]

        def fault(lines):
            fields = lines[-1].split(",")
            fields[HEADER.index("XACC")] = "nan"
            return notes([*lines[:-1], ",".join(fields)])
        plain, noted, faulty = (tmp_path / f"{name}.csv" for name in ("plain", "noted", "faulty"))
        _write_csv(plain)
        _write_csv(noted, mangle=notes)
        _write_csv(faulty, mangle=fault)
        want = telemetry.load_csv(plain)
        monkeypatch.setattr(telemetry, "_parse_rows", _no_fallback)
        self._same_table(telemetry.load_csv(noted), want)
        with pytest.raises(DataError, match=r"^non-finite XACC value at line 601 in "):
            telemetry.load_csv(faulty)

    def test_non_ascii_column_takes_the_bulk_path(self, tmp_path, monkeypatch):
        # text outside ASCII in an unread first column, header and cells alike
        plain, p = tmp_path / "plain.csv", tmp_path / "a.csv"
        _write_csv(plain)
        _write_csv(p, mangle=lambda ls: [f"Temp (°C),{ls[0]}",
                                         *(f"{20 + i % 5}°,{x}" for i, x in enumerate(ls[1:]))])
        want = telemetry.load_csv(plain)
        monkeypatch.setattr(telemetry, "_parse_rows", _no_fallback)
        self._same_table(telemetry.load_csv(p), want)

    @pytest.mark.parametrize("line", [1, 21])  # the header, a quoted note on the row path
    def test_over_long_cell_is_a_data_error(self, tmp_path, line):
        # csv.reader's limit on a cell, 131,072 characters, is process-wide
        # and left as it is: the cell is a data error naming the file and line
        note = '"' + "x" * 140_000 + '"'
        p = tmp_path / "a.csv"
        _write_csv(p, n=40, mangle=lambda ls: [f"{x},{note if i == line else 'ok'}"
                                              for i, x in enumerate(ls, 1)])
        with pytest.raises(DataError, match=rf"^field larger than field limit \(131072\) "
                                            rf"at line {line} in {re.escape(str(p))}$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("junk", [False, True])  # bulk path, row-by-row path
    def test_utf8_byte_order_mark(self, tmp_path, caplog, junk):
        def mangle(lines):
            if junk:
                lines[5] = lines[5].replace(",", ",junk", 1)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        channels = telemetry.load_csv(p)
        assert len(channels[0].values) == 600 - junk
        assert channels[0].timestamps[0] == 0.0
        assert len(caplog.records) == junk  # only the row-by-row path logs

    def test_bad_byte_after_byte_order_mark(self, tmp_path):
        # the mark is stripped before decoding, so the byte offset still
        # counts the lines before it
        p = tmp_path / "a.csv"
        _write_csv(p, n=5)
        lines = p.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)
        p.write_bytes(b"\xef\xbb\xbf" + b"\n".join(lines))
        with pytest.raises(DataError, match=r"^non-UTF-8 byte 0xff at line 3 in .*a\.csv$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("sep,line", [(b"\r", 3), (b"\x1e", 1)], ids=["cr", "record_sep"])
    def test_bad_byte_line_counts_every_line_break(self, tmp_path, sep, line):
        # a CR-only file has the lines of an LF one; \x1e ends no line, as
        # csv.reader reads a file opened with newline="", so its file is one line
        p = tmp_path / "a.csv"
        _write_csv(p, n=5)
        lines = p.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)
        p.write_bytes(sep.join(lines))
        with pytest.raises(DataError, match=rf"^non-UTF-8 byte 0xff at line {line} in .*a\.csv$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_rejected(self, tmp_path, recwarn, n):
        p = tmp_path / "short.csv"
        _write_csv(p, n=n)
        with pytest.raises(DataError,
                           match=rf"need at least 2 data rows, got {n} in .*short\.csv"):
            telemetry.load_csv(p)
        assert len(recwarn) == 0

    def test_unparseable_rows_rejected(self, tmp_path):
        def mangle(lines):
            lines[5] = lines[5].replace(",", ",junk", 1)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        channels = telemetry.load_csv(p)
        assert len(channels[0].values) == 599

    def test_over_wide_row_rejected(self, tmp_path, caplog):
        def mangle(lines):
            lines[10] += ",999"
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        channels = telemetry.load_csv(p)
        assert len(channels[0].timestamps) == 599
        assert 9 / 32.0 not in channels[0].timestamps
        assert [r.getMessage() for r in caplog.records] == [
            f"rejecting line 11 in {p}: 12 cells, header has 11"]

    @pytest.mark.parametrize("case", ["short_and_long", "long_with_junk"])
    def test_row_width_is_checked(self, tmp_path, caplog, case):
        # a row one cell short and one a cell over balance out in a comma
        # count over the whole file: each row's own width is checked
        def mangle(lines):
            if case == "short_and_long":
                fields = lines[5].split(",")
                del fields[HEADER.index("ZACC")]
                lines[5] = ",".join(fields)
                lines[10] += ",999"
            else:
                lines[10] += ",junk"
            return lines
        rejected = {6: 10, 11: 12} if case == "short_and_long" else {11: 12}  # line: cells
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        times = telemetry.load_csv(p)[0].timestamps
        assert len(times) == 600 - len(rejected)
        assert not set(times) & {(line - 2) / 32.0 for line in rejected}
        assert [r.getMessage() for r in caplog.records] == [
            f"rejecting line {line} in {p}: {cells} cells, header has 11"
            for line, cells in rejected.items()]

    @staticmethod
    def _same_table(got, want):
        assert [ch.name for ch in got] == [ch.name for ch in want] == NAMES
        for g, w in zip(got, want):
            assert np.array_equal(g.timestamps, w.timestamps)
            assert np.array_equal(g.values, w.values)

    @pytest.mark.parametrize("cell", ["nan", "junk", "", "1e308", "-inf"])
    def test_unread_columns_carry_nothing(self, tmp_path, monkeypatch, caplog, cell):
        # PGP, GP, BP and ZACC are neither parsed nor checked: whatever they
        # hold, the bulk path gives the clean file's table
        clean, p = tmp_path / "clean.csv", tmp_path / "a.csv"
        _write_csv(clean)

        def mangle(lines):
            rows = [line.split(",") for line in lines]
            for fields in rows[1:]:
                for name in UNREAD:
                    fields[HEADER.index(name)] = cell
            return [",".join(fields) for fields in rows]
        _write_csv(p, mangle=mangle)
        want = telemetry.load_csv(clean)
        monkeypatch.setattr(telemetry, "_parse_rows", None)
        self._same_table(telemetry.load_csv(p), want)
        assert caplog.records == []

    def test_non_numeric_last_column_is_not_read(self, tmp_path, caplog):
        clean, p = tmp_path / "clean.csv", tmp_path / "a.csv"
        _write_csv(clean)
        _write_csv(p, mangle=lambda lines: [lines[0] + ",notes",
                                            *(f"{line},note {k}" for k, line in enumerate(lines[1:]))])
        self._same_table(telemetry.load_csv(p), telemetry.load_csv(clean))
        assert caplog.records == []

    @pytest.mark.parametrize("rejected", [False, True])  # bulk path, row-by-row path
    def test_lines_are_counted_past_rejected_and_blank_lines(self, tmp_path, caplog,
                                                             rejected):
        # blank lines before the header and in the data, and a rejected row,
        # still count: the message names the file line
        def mangle(lines):
            if rejected:
                lines[3] += ",999"
            fields = lines[10].split(",")
            fields[HEADER.index("XACC")] = "nan"
            lines[10] = ",".join(fields)
            return ["", ""] + lines[:6] + [""] + lines[6:]
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(DataError, match=r"^non-finite XACC value at line 14 in "):
            telemetry.load_csv(p)
        assert [r.getMessage() for r in caplog.records] == (
            [f"rejecting line 6 in {p}: 12 cells, header has 11"] if rejected else [])

    @pytest.mark.parametrize("faults,message", [
        ([(8, "XACC", "nan"), (6, "FUEL", "-1")], "FUEL value -1 outside [0, inf] at line 7"),
        ([(6, "YACC", "nan"), (7, "XACC", "60")], "non-finite YACC value at line 7"),
        ([(6, "YACC", "nan"), (9, "t", "0")], "non-finite YACC value at line 7"),
        ([(6, "YACC", "nan"), (6, "XACC", "60")], "XACC value 60 outside [-50, 50] at line 7"),
    ])
    def test_first_fault_in_check_order(self, tmp_path, faults, message):
        # cells line by line and left to right within a line, then the times
        def mangle(lines):
            header = lines[0].split(",")
            for k, name, cell in faults:
                fields = lines[k].split(",")
                fields[header.index(name)] = cell
                lines[k] = ",".join(fields)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(DataError, match=f"^{re.escape(message)} in "):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        def mangle(lines):
            fields = lines[7].split(",")
            fields[HEADER.index("XACC")] = cell
            lines[7] = ",".join(fields)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(DataError, match=r"^non-finite XACC value at line 8 in .*a\.csv$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("name,cell,bound", [
        ("VS", "400.5", "[0, 400]"),
        ("ERPM", "2e4", None), ("ERPM", "20001", "[0, 20000]"),
        ("XACC", "1e5", "[-50, 50]"), ("YACC", "-50.5", "[-50, 50]"),
        ("ZACC", "50", None), ("FUEL", "-0.5", "[0, inf]"), ("FUEL", "1e9", None),
        ("SWA", "-1e9", None), ("GP", "300", None),
    ])
    def test_plausibility_bounds(self, tmp_path, name, cell, bound):
        # the bounds are inclusive; SWA has none; ZACC and GP are not read
        def mangle(lines):
            fields = lines[9].split(",")
            fields[HEADER.index(name)] = cell
            lines[9] = ",".join(fields)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        if bound is None:
            channels = {ch.name: ch.values for ch in telemetry.load_csv(p)}
            if name in NAMES:
                assert channels[name][8] == float(cell)
            else:
                assert name not in channels
        else:
            with pytest.raises(DataError, match=rf"^{name} value {float(cell):g} outside "
                                                rf"{re.escape(bound)} at line 10 in .*a\.csv$"):
                telemetry.load_csv(p)

    def test_non_finite_timestamp_rejected(self, tmp_path):
        def mangle(lines):
            lines[7] = "nan" + lines[7][lines[7].index(","):]
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(DataError, match=r"^non-finite timestamp at line 8 in .*a\.csv$"):
            telemetry.load_csv(p)

    def test_non_monotonic_times(self, tmp_path):
        def mangle(lines):
            lines[10], lines[11] = lines[11], lines[10]
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(DataError, match=r"^non-monotonic timestamps at line 12 in "):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("rate, step", [(1.0, None), (0.5, "2.0"), (0.032, "31.25")])
    def test_median_time_step_is_at_most_one_second(self, tmp_path, rate, step):
        # 0.032: a 32 Hz drive logged in milliseconds.  None: a 1 Hz log keeps
        # within 1 s, and the sample-rate floor rejects it next
        p = tmp_path / "a.csv"
        _write_csv(p, rate=rate)
        if step is None:
            with pytest.raises(DataError, match=r"^median time step 1\.0 s exceeds 0\.0625 s, "
                                                r"the 16 Hz sample-rate floor, in .*a\.csv$"):
                telemetry.load_csv(p)
        else:
            with pytest.raises(DataError, match=rf"^median time step {re.escape(step)} s "
                                                r"exceeds 1 s in .*a\.csv: "):
                telemetry.load_csv(p)

    @pytest.mark.parametrize("rate, places", [(16.0, 6), (16.0, 3), (15.0, 6), (12.8, 6)])
    def test_median_time_step_is_at_most_the_sample_rate_floor(self, tmp_path, rate, places):
        # times from 11.2764 s: at 16 Hz rounded to the millisecond, 300 of the
        # 599 steps are 63 ms, so the median step is 0.063 s, which the floor's
        # 2% takes
        def mangle(lines):
            return [lines[0], *(f"{11.2764 + i / rate:.{places}f}" + line[line.index(","):]
                                for i, line in enumerate(lines[1:]))]
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        if rate >= telemetry.MIN_RATE_HZ:
            assert len(telemetry.load_csv(p)[0].timestamps) == 600
        else:
            with pytest.raises(DataError, match=r"^median time step 0\.0[67]\d* s exceeds 0\.0625 s, "
                                                r"the 16 Hz sample-rate floor, in .*a\.csv$"):
                telemetry.load_csv(p)

    def test_mean_time_step_is_at_most_the_sample_rate_floor(self, tmp_path):
        # steps alternating 1/16 s and 1 s: the median step is 1/16 s, yet the
        # log holds 1.89 samples a second, and resampling it would make up
        # most of its 32 Hz grid
        times = np.cumsum([0.0, *[0.0625, 1.0] * 150, 0.0625])

        def mangle(lines):
            return [lines[0], *(f"{t:.6f}" + line[line.index(","):]
                                for t, line in zip(times, lines[1:]))]
        p = tmp_path / "a.csv"
        _write_csv(p, n=302, mangle=mangle)
        with pytest.raises(DataError, match=r"^mean time step 0\.529\d* s exceeds 0\.0625 s, "
                                            r"the 16 Hz sample-rate floor, in .*a\.csv$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("last, span", [("86400", None), ("86400.5", "86400.5"),
                                            ("1e6", "1000000.0")])
    def test_time_span_is_at_most_one_day(self, tmp_path, last, span):
        # one wild last timestamp: the median step stays 1/32 s.  A span of
        # one day passes the span rule, and the mean step of 599 steps over
        # it fails the sample-rate floor next
        def mangle(lines):
            lines[-1] = last + lines[-1][lines[-1].index(","):]
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        if span is None:
            with pytest.raises(DataError, match=rf"^mean time step {re.escape(str(86400 / 599))} s "
                                                r"exceeds 0\.0625 s, the 16 Hz sample-rate floor, "
                                                r"in .*a\.csv$"):
                telemetry.load_csv(p)
        else:
            with pytest.raises(DataError, match=rf"^time span {re.escape(span)} s exceeds "
                                                r"86400 s \(one day\) at line 601 in .*a\.csv$"):
                telemetry.load_csv(p)


class TestRawChannel:
    """The channels ``load_csv`` hands out hold only checked samples."""

    @staticmethod
    def _plant(path, column, cell, n=100, row=40):
        def mangle(lines):
            fields = lines[1 + row].split(",")
            fields[HEADER.index(column)] = cell
            lines[1 + row] = ",".join(fields)
            return lines
        _write_csv(path, n=n, mangle=mangle)

    @pytest.mark.parametrize("field", ["timestamps", "values"])
    def test_non_finite_rejected(self, tmp_path, field):
        # sample 40 is on line 42, below the header
        p = tmp_path / "a.csv"
        self._plant(p, telemetry.TIME_COLUMN if field == "timestamps" else "VS", "nan")
        what = "timestamp" if field == "timestamps" else "VS value"
        with pytest.raises(DataError, match=rf"^non-finite {what} at line 42 in .*a\.csv$"):
            telemetry.load_csv(p)

    @pytest.mark.parametrize("name", ["VS", "ERPM"])
    def test_negative_speed_rejected(self, tmp_path, name):
        p = tmp_path / "a.csv"
        self._plant(p, name, "-3")
        with pytest.raises(DataError, match=rf"^{name} value -3 outside \[0, \d+\] "
                                            rf"at line 42 in .*a\.csv$"):
            telemetry.load_csv(p)
        self._plant(p, "SWA", "-3")
        assert telemetry.load_csv(p)[NAMES.index("SWA")].values[40] == -3.0

    def test_source_named_in_messages(self, tmp_path):
        p = tmp_path / "a.csv"
        _write_csv(p, n=3)
        assert all(c.source == str(p) for c in telemetry.load_csv(p))
        self._plant(p, telemetry.TIME_COLUMN, "0.03125", n=3, row=2)  # times 0, 1/32, 1/32
        with pytest.raises(DataError, match=r"^non-monotonic timestamps at line 4 in .*a\.csv$"):
            telemetry.load_csv(p)


class TestResample:
    def test_identity_on_uniform_grid(self):
        ts = np.arange(320) / SAMPLE_RATE_HZ
        vals = np.sin(ts)
        ch = RawChannel(name="VS", timestamps=ts, values=np.abs(vals))
        rec = telemetry.resample([ch], driver_id="x")
        assert rec.n_total == 320
        np.testing.assert_allclose(rec.channels["VS"], np.abs(vals), atol=1e-12)

    @pytest.mark.parametrize("hz", [32.0, 128.0])
    def test_rate_is_measured_from_the_time_column(self, tmp_path, hz):
        # XACC repeats 0, 0, 0, 4 at 128 Hz: the 4-sample moving average that
        # the measured rate calls for gives 1 between the edges, where plain
        # interpolation would pick the 0s
        n = 1024
        lines = [",".join([telemetry.TIME_COLUMN, *NAMES])]
        for i in range(n):
            row = ["0"] * len(NAMES)
            row[NAMES.index("XACC")] = "4" if i % 4 == 3 else "0"
            lines.append(",".join([repr(5.0 + i / hz), *row]))
        p = tmp_path / "a.csv"
        p.write_text("\n".join(lines) + "\n")
        rec = telemetry.resample(telemetry.load_csv(p))
        xacc = rec.channels["XACC"]
        assert rec.t_start == 5.0
        assert len(xacc) == int(np.floor((n - 1) / hz * SAMPLE_RATE_HZ)) + 1
        if hz == 32.0:
            np.testing.assert_array_equal(xacc, np.where(np.arange(n) % 4 == 3, 4.0, 0.0))
        else:
            np.testing.assert_allclose(xacc[1:-1], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 11.276852, 1.7e9])
    def test_time_offset_keeps_every_sample(self, offset):
        # 120 s at 32 Hz, the time column written at %.6f from ``offset``: at
        # 11.276852 s the parsed span is 3838.9999999999995 periods
        ts = np.array([float(f"{k / SAMPLE_RATE_HZ + offset:.6f}") for k in range(3840)])
        ch = RawChannel(name="VS", timestamps=ts, values=np.arange(3840.0))
        vs = telemetry.resample([ch]).channels["VS"]
        assert len(vs) == 3840
        np.testing.assert_allclose(vs, np.arange(3840.0), atol=1e-6)

    def test_source_carried_into_record(self):
        ts = np.arange(64) / SAMPLE_RATE_HZ
        ch = RawChannel(name="VS", timestamps=ts, values=np.ones(64), source="d/x.csv")
        assert telemetry.resample([ch], driver_id="x").source == "d/x.csv"

    def test_downsampling_prefilters(self):
        # 128 Hz alternating +/-1 signal must not alias to a constant +/-1
        rate = 128.0
        ts = np.arange(1280) / rate
        vals = np.where(np.arange(1280) % 2 == 0, 1.0, -1.0)
        ch = RawChannel(name="XACC", timestamps=ts, values=vals)
        rec = telemetry.resample([ch])
        assert np.max(np.abs(rec.channels["XACC"])) < 0.6

    @pytest.mark.parametrize("n", [2, 1000])
    def test_downsampling_keeps_a_constant_at_the_edges(self, n):
        # 80 km/h logged at 100 Hz: the moving average takes the mean of the
        # samples in reach, so neither end is pulled towards 0, and a channel
        # shorter than the averaging kernel still gives one value per sample
        ts = np.arange(n) / 100.0
        ch = RawChannel(name="VS", timestamps=ts, values=np.full(n, 80.0))
        vs = telemetry.resample([ch]).channels["VS"]
        assert len(vs) == int(np.floor(ts[-1] * telemetry.SAMPLE_RATE_HZ)) + 1
        assert np.all(vs == 80.0)


class TestWindows:
    @pytest.mark.parametrize("n,expected", [
        (255, 0), (256, 1), (257, 1), (384, 2), (512, 3), (1024, 7),
    ])
    def test_window_count(self, n, expected):
        rec = make_record(n=n)
        assert len(telemetry.split_windows(rec)) == expected

    def test_starts_and_overlap(self):
        rec = make_record(n=512)
        ws = telemetry.split_windows(rec)
        assert ws.tolist() == [0, 128, 256]
        assert telemetry.window_rows(rec.channels["SWA"], ws).shape == (3, WINDOW_LEN)
        assert ws[1] - ws[0] == WINDOW_STEP

    def test_channel_slice(self, record):
        rows = telemetry.window_rows(record.channels["SWA"], np.array([128]))
        np.testing.assert_array_equal(rows[0], record.channels["SWA"][128:384])


class TestSpeedFilter:
    def test_threshold_is_inclusive(self):
        slow = make_record(n=256, speed=59.9)
        fast = make_record(n=256, speed=60.0)
        assert len(telemetry.filter_by_mean_speed(slow, telemetry.split_windows(slow))) == 0
        assert len(telemetry.filter_by_mean_speed(fast, telemetry.split_windows(fast))) == 1

    def test_mixed_speeds(self):
        rec = make_record(n=512, speed=90.0)
        rec.channels["VS"][:256] = 20.0  # straddling window averages 55 km/h
        kept = telemetry.filter_by_mean_speed(rec, telemetry.split_windows(rec))
        assert kept.tolist() == [256]


class TestDriveRecord:
    def test_unequal_lengths(self):
        with pytest.raises(DataError, match="unequal"):
            DriveRecord(driver_id="x", channels={"VS": np.ones(10),
                                                 "SWA": np.ones(11)})

    def test_source_named_in_messages(self):
        with pytest.raises(DataError, match=r"^unequal channel lengths: .* in a\.csv$"):
            DriveRecord(driver_id="x", channels={"VS": np.ones(10), "SWA": np.ones(11)},
                        source="a.csv")
