"""Ingestion, resampling, windowing and speed filtering."""

import numpy as np
import pytest

from ecoride import telemetry
from ecoride.telemetry import (SAMPLE_RATE_HZ, WINDOW_LEN, WINDOW_STEP,
                               DriveRecord, RawChannel, TelemetryError)

from conftest import make_record


def _write_csv(path, n=600, rate=32.0, mangle=None):
    names = list(telemetry.CHANNELS)
    lines = [",".join([telemetry.TIME_COLUMN, *names])]
    for i in range(n):
        t = i / rate
        row = [f"{t:.6f}"] + [f"{(i + j) % 97}" for j in range(len(names))]
        lines.append(",".join(row))
    if mangle:
        lines = mangle(lines)
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_round_trip_values(self, tmp_path):
        p = tmp_path / "a.csv"
        _write_csv(p)
        channels = telemetry.load_csv(p)
        assert {c.name for c in channels} == set(telemetry.CHANNELS)
        swa = next(c for c in channels if c.name == "SWA")
        assert len(swa.values) == 600
        assert swa.values[0] == 0.0 and swa.values[1] == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="not found"):
            telemetry.load_csv(tmp_path / "nope.csv")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=lambda ls: [ls[0].replace("SWA", "WRONG")] + ls[1:])
        with pytest.raises(TelemetryError, match="SWA"):
            telemetry.load_csv(p)

    def test_clean_file_takes_the_bulk_path(self, tmp_path, monkeypatch, caplog):
        def no_fallback(*args):
            raise AssertionError("row-by-row parse used on a clean file")
        monkeypatch.setattr(telemetry, "_parse_rows", no_fallback)
        p = tmp_path / "a.csv"
        _write_csv(p)
        with caplog.at_level("DEBUG", logger="ecoride.telemetry"):
            channels = telemetry.load_csv(p)
        assert len(channels[0].values) == 600
        assert caplog.records == []

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_rows_rejected(self, tmp_path, recwarn, n):
        p = tmp_path / "short.csv"
        _write_csv(p, n=n)
        with pytest.raises(TelemetryError,
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
            f"rejecting row 11 in {p}: 12 cells, header has 11"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, cell):
        def mangle(lines):
            fields = lines[7].split(",")
            fields[1 + list(telemetry.CHANNELS).index("XACC")] = cell
            lines[7] = ",".join(fields)
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(TelemetryError, match=r"non-finite XACC value at data row 7 in .*a\.csv"):
            telemetry.load_csv(p)

    def test_non_finite_timestamp_rejected(self, tmp_path):
        def mangle(lines):
            lines[7] = "nan" + lines[7][lines[7].index(","):]
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(TelemetryError, match=r"non-finite timestamp at data row 7 in .*a\.csv"):
            telemetry.load_csv(p)

    def test_non_monotonic_times(self, tmp_path):
        def mangle(lines):
            lines[10], lines[11] = lines[11], lines[10]
            return lines
        p = tmp_path / "a.csv"
        _write_csv(p, mangle=mangle)
        with pytest.raises(TelemetryError, match="non-monotonic"):
            telemetry.load_csv(p)


class TestRawChannel:
    def test_rate_mismatch(self):
        ts = np.arange(100) / 10.0  # actually 10 Hz
        with pytest.raises(TelemetryError, match="inconsistent"):
            RawChannel(name="VS", rate=32.0, timestamps=ts, values=np.zeros(100))


    @pytest.mark.parametrize("field", ["timestamps", "values"])
    def test_non_finite_rejected(self, field):
        arrays = {"timestamps": np.arange(100) / 32.0, "values": np.zeros(100)}
        arrays[field][40] = np.nan
        what = "timestamp" if field == "timestamps" else "value"
        with pytest.raises(TelemetryError,
                           match=f"channel VS: non-finite {what} at sample 40"):
            RawChannel(name="VS", rate=32.0, **arrays)


class TestResample:
    def test_identity_on_uniform_grid(self):
        ts = np.arange(320) / SAMPLE_RATE_HZ
        vals = np.sin(ts)
        ch = RawChannel(name="VS", rate=32.0, timestamps=ts, values=np.abs(vals))
        rec = telemetry.resample([ch], driver_id="x")
        assert rec.n_total == 320
        np.testing.assert_allclose(rec.channels["VS"], np.abs(vals), atol=1e-12)

    def test_output_rate_and_overlap(self):
        # two channels with offset time supports -> intersection only
        t_a = np.arange(320) / SAMPLE_RATE_HZ
        t_b = 1.0 + np.arange(256) / SAMPLE_RATE_HZ
        a = RawChannel(name="VS", rate=32.0, timestamps=t_a, values=np.ones(320))
        b = RawChannel(name="XACC", rate=32.0, timestamps=t_b, values=np.ones(256))
        rec = telemetry.resample([a, b])
        assert rec.t_start == pytest.approx(1.0)
        t_end = min(t_a[-1], t_b[-1])
        assert rec.n_total == int(np.floor((t_end - 1.0) * SAMPLE_RATE_HZ)) + 1

    def test_no_overlap_errors(self):
        a = RawChannel(name="VS", rate=32.0,
                       timestamps=np.arange(64) / 32.0, values=np.ones(64))
        b = RawChannel(name="XACC", rate=32.0,
                       timestamps=10.0 + np.arange(64) / 32.0, values=np.ones(64))
        with pytest.raises(TelemetryError, match="overlapping"):
            telemetry.resample([a, b])

    def test_downsampling_prefilters(self):
        # 128 Hz alternating +/-1 signal must not alias to a constant +/-1
        rate = 128.0
        ts = np.arange(1280) / rate
        vals = np.where(np.arange(1280) % 2 == 0, 1.0, -1.0)
        ch = RawChannel(name="XACC", rate=rate, timestamps=ts, values=vals)
        rec = telemetry.resample([ch])
        assert np.max(np.abs(rec.channels["XACC"])) < 0.6


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
        with pytest.raises(TelemetryError, match="unequal"):
            DriveRecord(driver_id="x", channels={"VS": np.ones(10),
                                                 "SWA": np.ones(11)})

    def test_non_finite_rejected(self):
        xacc = np.zeros(4096)
        xacc[500] = np.inf
        with pytest.raises(TelemetryError, match="channel XACC: non-finite value at sample 500"):
            DriveRecord(driver_id="x", channels={"VS": np.ones(4096), "XACC": xacc})

    def test_negative_speed_rejected(self):
        with pytest.raises(TelemetryError, match="negative"):
            DriveRecord(driver_id="x", channels={"VS": -np.ones(10)})
