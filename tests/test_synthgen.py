"""Synthetic telemetry generator: determinism, invariants, monotonicity."""

import numpy as np
import pytest

from ecoride import synthgen, telemetry
from ecoride.synthgen import StyleSpec, SynthError


class TestStyleSpec:
    def test_knob_bounds(self):
        with pytest.raises(SynthError):
            StyleSpec(steering_aggressiveness=1.5)
        with pytest.raises(SynthError):
            StyleSpec(braking_spikiness=-0.1)

    def test_minimum_duration(self):
        with pytest.raises(SynthError):
            StyleSpec(duration=5.0)


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
