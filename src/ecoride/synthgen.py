"""Seeded synthetic telemetry generator with known driving-style ground truth.

Stands in for a real instrumented-car dataset: each record is produced from a
StyleSpec whose aggressiveness knobs control the statistics that the pipeline
is supposed to recover, so generated corpora double as test oracles.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy import signal, stats

from . import DataError
from .telemetry import (BOUNDS, MAX_DURATION_S, SAMPLE_RATE_HZ, TIME_COLUMN, CHANNELS,
                        DriveRecord)

# Fuel proxy: FUEL = C0 + C1 * ERPM * PGP + C2 * max(XACC, 0).
# Constants picked so synthetic fuel spans roughly 2-5 l/100km; this is a
# documented proxy, not engine physics.
FUEL_C0 = 1.5
FUEL_C1 = 2.0e-5
FUEL_C2 = 2.0

SWA_SCALE_DEG = 25.0
STEER_RATIO = 16.0
WHEELBASE_M = 2.7
ERPM_PER_KMH = 30.0
ERPM_WANDER = 280.0
GAS_SPIKE = 0.12
GAS_WANDER = 0.05


@dataclass
class StyleSpec:
    """Knobs controlling one synthetic driver style."""

    steering_aggressiveness: float = 0.5
    gas_aggressiveness: float = 0.5
    braking_spikiness: float = 0.5
    erpm_bias: float = 0.0
    base_speed: float = 90.0
    duration: float = 60.0
    seed: int = 0

    def __post_init__(self):
        for name in ("steering_aggressiveness", "gas_aggressiveness",
                     "braking_spikiness"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {v}")
        max_speed = BOUNDS["VS"][1]
        if not (math.isfinite(self.base_speed) and 0.0 <= self.base_speed <= max_speed):
            raise DataError(f"base_speed must be finite and in [0, {max_speed:g}] km/h, "
                            f"got {self.base_speed!r}")
        if not math.isfinite(self.erpm_bias):
            raise DataError(f"erpm_bias must be finite, got {self.erpm_bias!r}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DataError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not (math.isfinite(self.duration) and self.duration >= 16.0):
            raise DataError(f"duration must be finite and at least 16 s, got {self.duration!r}")
        if self.duration > MAX_DURATION_S:  # before generate allocates ~20 arrays of it
            raise DataError(f"duration must be at most {MAX_DURATION_S:.0f} s, "
                            f"got {self.duration!r}")


@functools.cache
def _band_sos(lo: float, hi: float) -> np.ndarray:
    """Second-order sections of the 2nd-order Butterworth band-pass
    ``lo``-``hi`` Hz, designed once per band; read-only, as every drive
    shares it."""
    sos = signal.butter(2, [lo, hi], btype="bandpass", fs=SAMPLE_RATE_HZ, output="sos")
    sos.flags.writeable = False
    return sos


def _band_noise(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Unit-RMS band-limited noise from filtered white noise."""
    white = rng.standard_normal(n)
    y = signal.sosfilt(_band_sos(lo, hi).copy(), white)  # sosfilt needs a writable sos
    rms = np.sqrt(np.mean(y**2))
    return y / rms if rms > 0 else y


def generate(spec: StyleSpec, driver_id: str = "synthetic") -> DriveRecord:
    """Produce a 32 Hz DriveRecord for one style; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.duration * SAMPLE_RATE_HZ))
    dt = 1.0 / SAMPLE_RATE_HZ

    # steering and the lateral response it causes
    swa = SWA_SCALE_DEG * spec.steering_aggressiveness * _band_noise(rng, n, 0.05, 1.2)

    # gas pedal activity: the mean tracks gas_aggressiveness (fuel axis) while
    # the fast zero-mean stabbing component tracks steering_aggressiveness, so
    # jerky-style drivers show spiky gas usage at any consumption level
    # slow traffic-driven wander shared by the pedal and the gearbox: easing
    # off the gas in traffic goes together with shifting down (higher revs per
    # km/h), so the wander raises ERPM while it lowers pedal position
    # slow traffic wander with heavy-tailed (Laplace) marginals: long calm
    # stretches broken by occasional strong slow-downs; the monotone transform
    # keeps the band limitation while reshaping the amplitude distribution
    g = _band_noise(rng, n, 0.01, 0.1)
    wander = stats.laplace.ppf(stats.norm.cdf(g)) / np.sqrt(2.0)
    gas = np.clip(0.55 * spec.gas_aggressiveness
                  + GAS_WANDER * wander
                  + GAS_SPIKE * spec.steering_aggressiveness * _band_noise(rng, n, 0.3, 2.0),
                  0.0, 1.0)
    pgp = 100.0 * gas
    xacc_gas = 1.2 * gas

    # sparse braking pulses (half-sine, 0.5 s)
    brake = np.zeros(n)
    pulse_len = int(0.5 * SAMPLE_RATE_HZ)
    pulse = np.sin(np.pi * np.arange(pulse_len) / pulse_len)
    rate_per_sample = 0.25 * spec.braking_spikiness / SAMPLE_RATE_HZ
    starts = np.flatnonzero(rng.random(n - pulse_len) < rate_per_sample)
    amp = 0.5 + 2.0 * spec.braking_spikiness
    for s in starts:
        brake[s : s + pulse_len] = np.maximum(brake[s : s + pulse_len], amp * pulse)
    # continuous light braking drag so deceleration statistics track the
    # spikiness knob even in windows without a discrete pulse
    drag = 2.2 * spec.braking_spikiness * np.maximum(-_band_noise(rng, n, 0.1, 1.0), 0.0)
    # sparse overtaking bursts so aggressive styles also show positive
    # acceleration peaks
    surge = np.zeros(n)
    surge_len = pulse_len // 2
    surge_pulse = np.sin(np.pi * np.arange(surge_len) / surge_len)
    surge_rate = 0.03 * spec.steering_aggressiveness / SAMPLE_RATE_HZ
    surge_starts = np.flatnonzero(rng.random(n - surge_len) < surge_rate)
    surge_amp = 0.2 + 1.9 * spec.steering_aggressiveness
    for s in surge_starts:
        surge[s : s + surge_len] = np.maximum(surge[s : s + surge_len],
                                              surge_amp * surge_pulse)
    xacc = xacc_gas + surge - brake - drag + 0.1 * _band_noise(rng, n, 0.1, 2.0)

    # speed: leaky integration of longitudinal acceleration around the base,
    # one Euler step per sample over Python floats (a memoryview yields them
    # one at a time): the same IEEE double operations, in the same order, as a
    # numpy scalar loop, without a list of the whole drive
    v_base = spec.base_speed / 3.6
    v = np.fromiter(accumulate(memoryview(xacc[:-1]),
                               lambda vp, a: vp + dt * (a - 0.8 * (vp - v_base)),
                               initial=v_base), dtype=float, count=n)
    v = np.maximum(v, 0.0)
    vs = 3.6 * v

    # lateral acceleration from the bicycle-model relation a_y = v^2 tan(d)/L
    steer_rad = np.radians(swa) / STEER_RATIO
    yacc = v**2 * np.tan(steer_rad) / WHEELBASE_M
    zacc = 0.3 * _band_noise(rng, n, 0.5, 8.0)

    # engine speed: consumption styles shift the operating point (erpm_bias)
    # and the shared traffic wander moves it against the pedal
    erpm = np.maximum(ERPM_PER_KMH * vs + spec.erpm_bias
                      - ERPM_WANDER * wander
                      + 100.0 * _band_noise(rng, n, 0.01, 0.2), 600.0)
    gp = 3.0 * pgp + 2.0 * rng.standard_normal(n)
    bp = 10.0 * brake / max(amp, 1e-9)

    fuel = FUEL_C0 + FUEL_C1 * erpm * pgp + FUEL_C2 * np.maximum(xacc, 0.0)

    channels = {
        "SWA": swa, "VS": vs, "ERPM": erpm, "PGP": pgp, "GP": gp, "BP": bp,
        "XACC": xacc, "YACC": yacc, "ZACC": zacc, "FUEL": fuel,
    }
    return DriveRecord(driver_id=driver_id, channels=channels)


COMFORT_KNOBS = (0.1, 0.5, 0.9)          # steering + braking aggressiveness
FUEL_KNOBS = ((0.3, 0.0), (0.5, 1200.0), (0.7, 0.0))  # (gas, erpm bias)


def style_grid(base_seed: int = 0, duration: float = 60.0,
               base_speed: float = 90.0) -> list[tuple[str, StyleSpec]]:
    """9 styles: 3 comfort levels x 3 fuel levels, labeled ``c<i>_f<j>``."""
    out = []
    for ci, steer in enumerate(COMFORT_KNOBS):
        for fj, (gas, bias) in enumerate(FUEL_KNOBS):
            spec = StyleSpec(steering_aggressiveness=steer,
                             gas_aggressiveness=gas,
                             braking_spikiness=steer,
                             erpm_bias=bias,
                             base_speed=base_speed,
                             duration=duration,
                             seed=base_seed + 100 * ci + 10 * fj)
            out.append((f"c{ci}_f{fj}", spec))
    return out


# Rows per formatted string. 32 keeps the benchmark's peak RSS flat; on its
# urban_mix workload 128-row blocks raised it by 1-2 MB and 1,024-row blocks by
# about 8 MB, for no measurable gain in time.
WRITE_BLOCK = 32


def write_csv(record: DriveRecord, path) -> None:
    """Write a record in the same CSV schema the loader reads: the time at
    ``%.6f``, every channel at ``%.8g``, CRLF line ends.

    Rows go out ``WRITE_BLOCK`` at a time: a block is gathered into one
    row-major buffer and formatted by a single ``%`` with the row format
    repeated once per row, the same printf conversions of the same doubles
    that ``np.savetxt`` makes row by row.
    """
    names = list(CHANNELS)
    n = record.n_total
    columns = [record.t_start + np.arange(n) / SAMPLE_RATE_HZ,
               *(record.channels[name] for name in names)]
    row = ",".join(["%.6f"] + ["%.8g"] * len(names)) + "\r\n"
    block = np.empty((WRITE_BLOCK, len(columns)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([TIME_COLUMN, *names])
        for lo in range(0, n, WRITE_BLOCK):
            m = min(WRITE_BLOCK, n - lo)
            for j, column in enumerate(columns):
                block[:m, j] = column[lo:lo + m]
            fh.write(row * m % tuple(block[:m].ravel().tolist()))
