"""Synthetic telemetry generator: determinism, invariants, monotonicity."""

import csv
import hashlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecoride import DataError, cli, synthgen, telemetry
from ecoride.synthgen import StyleSpec

SYNTH_DIGESTS = Path(__file__).parent / "data" / "synth_seed42_60s.sha256"


class TestStyleSpec:
    def test_knob_bounds(self):
        with pytest.raises(DataError,
                           match=r"steering_aggressiveness must be in \[0, 1\], got 1.5"):
            StyleSpec(steering_aggressiveness=1.5)
        with pytest.raises(DataError, match=r"braking_spikiness must be in \[0, 1\], got -0.1"):
            StyleSpec(braking_spikiness=-0.1)

    def test_minimum_duration(self):
        with pytest.raises(DataError, match="duration must be finite and at least 16 s, got 5.0"):
            StyleSpec(duration=5.0)

    def test_nan_base_speed(self):  # would generate an all-NaN VS and ERPM
        with pytest.raises(DataError,
                           match=r"base_speed must be finite and in \[0, 400\] km/h, got nan"):
            StyleSpec(base_speed=float("nan"))

    def test_base_speed_out_of_range(self):  # 1e6 km/h writes a file load_csv rejects
        for speed in (-1.0, 1e6, float("inf")):
            with pytest.raises(DataError, match=rf"base_speed .* got {speed!r}"):
                StyleSpec(base_speed=speed)

    def test_infinite_erpm_bias(self):  # would generate a non-finite ERPM and FUEL
        with pytest.raises(DataError, match="erpm_bias must be finite, got inf"):
            StyleSpec(erpm_bias=float("inf"))

    def test_speed_bounds_are_valid(self):
        for speed in (0.0, telemetry.BOUNDS["VS"][1]):
            assert StyleSpec(base_speed=speed).base_speed == speed


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = synthgen.generate(StyleSpec(seed=3, duration=30.0))
        b = synthgen.generate(StyleSpec(seed=3, duration=30.0))
        for name in a.channels:
            np.testing.assert_array_equal(a.channels[name], b.channels[name])
        c = synthgen.generate(StyleSpec(seed=4, duration=30.0))
        assert not np.array_equal(a.channels["SWA"], c.channels["SWA"])

    def test_all_channels_present(self):
        rec = synthgen.generate(StyleSpec(duration=20.0))
        assert set(rec.channels) == set(telemetry.CHANNELS)
        assert rec.n_total == int(20.0 * telemetry.SAMPLE_RATE_HZ)

    def test_physical_invariants(self):
        for seed in range(5):
            rec = synthgen.generate(StyleSpec(seed=seed, duration=30.0,
                                              braking_spikiness=0.9))
            assert np.all(rec.channels["VS"] >= 0)
            assert np.all(rec.channels["ERPM"] >= 0)
            assert np.all(rec.channels["FUEL"] > 0)
            assert np.all((rec.channels["PGP"] >= 0)
                          & (rec.channels["PGP"] <= 100))

    def test_fuel_proxy_definition(self):
        rec = synthgen.generate(StyleSpec(seed=1, duration=20.0))
        expected = (synthgen.FUEL_C0
                    + synthgen.FUEL_C1 * rec.channels["ERPM"] * rec.channels["PGP"]
                    + synthgen.FUEL_C2 * np.maximum(rec.channels["XACC"], 0.0))
        np.testing.assert_allclose(rec.channels["FUEL"], expected, atol=1e-9)


def reference_speed(spec, xacc):
    """VS as ``generate`` integrated it before ``itertools.accumulate``: one
    numpy scalar Euler step per sample over the record's own XACC."""
    dt = 1.0 / telemetry.SAMPLE_RATE_HZ
    v_base = spec.base_speed / 3.6
    v = np.empty(len(xacc))
    v[0] = v_base
    for i in range(1, len(xacc)):
        v[i] = v[i - 1] + dt * (xacc[i - 1] - 0.8 * (v[i - 1] - v_base))
    return 3.6 * np.maximum(v, 0.0)


KNOB = st.floats(0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(spec=st.builds(StyleSpec, steering_aggressiveness=KNOB, gas_aggressiveness=KNOB,
                      braking_spikiness=KNOB, erpm_bias=st.floats(-2000.0, 2000.0),
                      base_speed=st.just(30.0) | st.floats(0.0, 130.0),
                      duration=st.floats(16.0, 40.0), seed=st.integers(0, 10**6)))
def test_speed_matches_the_scalar_loop_bit_for_bit(spec):
    rec = synthgen.generate(spec)
    assert np.array_equal(rec.channels["VS"], reference_speed(spec, rec.channels["XACC"]))


class TestMonotonicity:
    @staticmethod
    def averaged(knob, channel, stat, levels=(0.1, 0.9), seeds=20):
        out = []
        for level in levels:
            vals = []
            for seed in range(seeds):
                spec = StyleSpec(seed=seed, duration=30.0, **{knob: level})
                rec = synthgen.generate(spec)
                vals.append(stat(rec.channels[channel]))
            out.append(np.mean(vals))
        return out

    def test_yacc_rms_tracks_steering(self):
        lo, hi = self.averaged("steering_aggressiveness", "YACC",
                               lambda x: np.sqrt(np.mean(x**2)))
        assert hi > lo

    def test_fuel_tracks_gas(self):
        lo, hi = self.averaged("gas_aggressiveness", "FUEL", np.mean)
        assert hi > lo

    def test_braking_tracks_spikiness(self):
        lo, hi = self.averaged("braking_spikiness", "XACC",
                               lambda x: np.mean(np.maximum(-x, 0.0)))
        assert hi > lo


class TestStyleGrid:
    def test_nine_distinct_styles(self):
        grid = synthgen.style_grid(base_seed=0)
        assert len(grid) == 9
        assert len({label for label, _ in grid}) == 9
        assert len({spec.seed for _, spec in grid}) == 9

    def test_labels_encode_levels(self):
        grid = dict(synthgen.style_grid())
        assert grid["c0_f0"].steering_aggressiveness == synthgen.COMFORT_KNOBS[0]
        assert grid["c2_f1"].gas_aggressiveness == synthgen.FUEL_KNOBS[1][0]
        assert grid["c2_f1"].erpm_bias == synthgen.FUEL_KNOBS[1][1]


class TestCsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        rec = synthgen.generate(StyleSpec(seed=2, duration=20.0), driver_id="rt")
        path = tmp_path / "rt.csv"
        synthgen.write_csv(rec, path)
        channels = telemetry.load_csv(path)
        back = telemetry.resample(channels, driver_id="rt")
        # same grid, so values survive up to CSV float formatting
        n = min(back.n_total, rec.n_total)
        for name in rec.channels:
            np.testing.assert_allclose(back.channels[name][:n],
                                       rec.channels[name][:n], rtol=1e-6,
                                       atol=1e-5)


def test_synth_bytes_are_pinned(tmp_path, capsys):
    """``ecoride synth --seed 42 --duration 60`` writes the nine CSVs whose
    sha256 sums (``sha256sum`` format, by file name) are committed."""
    assert cli.main(["synth", "--out", str(tmp_path), "--seed", "42", "--duration", "60"]) == 0
    capsys.readouterr()
    found = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                    for p in sorted(tmp_path.glob("*.csv")))
    assert found == SYNTH_DIGESTS.read_text()


def reference_write_csv(record, path):
    """``synthgen.write_csv`` as it was before ``np.savetxt``: one
    ``csv.writer`` row of f-strings per sample, kept as the reference."""
    n = record.n_total
    times = record.t_start + np.arange(n) / telemetry.SAMPLE_RATE_HZ
    names = list(telemetry.CHANNELS)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([telemetry.TIME_COLUMN, *names])
        for i in range(n):
            writer.writerow([f"{times[i]:.6f}",
                             *[f"{record.channels[name][i]:.8g}" for name in names]])


# Magnitudes from 1e-9 to 1e6 of either sign, signed zeros, integer values.
SAMPLE_VALUES = st.one_of(
    st.builds(lambda m, neg: -m if neg else m, st.floats(1e-9, 1e6), st.booleans()),
    st.sampled_from([0.0, -0.0]),
    st.integers(-10**6, 10**6).map(float))


def record_of(channels_of, n, t_start):
    """A record of ``n`` rows; each channel clipped to its plausibility bounds,
    so that the file loads back."""
    channels = {name: np.clip(channels_of(name), *telemetry.BOUNDS.get(name, (-np.inf, np.inf)))
                for name in telemetry.CHANNELS}
    return telemetry.DriveRecord(driver_id="rt", channels=channels, t_start=t_start)


@st.composite
def short_records(draw):
    n = draw(st.integers(2, 24))
    return record_of(lambda name: np.array(draw(st.lists(SAMPLE_VALUES, min_size=n,
                                                         max_size=n))),
                     n, draw(st.floats(0.0, 1e5)))


@st.composite
def multi_block_records(draw):
    """Records of one to five blocks at the default ``WRITE_BLOCK``, ragged or
    whole; the cells are drawn from a small pool of sample values."""
    n = draw(st.integers(synthgen.WRITE_BLOCK, 5 * synthgen.WRITE_BLOCK))
    pool = draw(st.lists(SAMPLE_VALUES, min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return record_of(lambda name: rng.choice(pool, n), n, draw(st.floats(0.0, 1e5)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=short_records() | multi_block_records(), block=st.none() | st.integers(1, 30))
def test_write_csv_matches_reference_and_round_trips(tmp_path, record, block):
    path, ref = tmp_path / "rt.csv", tmp_path / "ref.csv"
    # small blocks make short records span blocks; None keeps the default
    with mock.patch.object(synthgen, "WRITE_BLOCK", block or synthgen.WRITE_BLOCK):
        synthgen.write_csv(record, path)
    reference_write_csv(record, ref)
    assert path.read_bytes() == ref.read_bytes()
    times = record.t_start + np.arange(record.n_total) / telemetry.SAMPLE_RATE_HZ
    for ch in telemetry.load_csv(path):
        assert ch.timestamps.tolist() == [float(f"{t:.6f}") for t in times]
        assert ch.values.tolist() == [float(f"{v:.8g}") for v in record.channels[ch.name]]
