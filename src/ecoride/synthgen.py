"""Seeded synthetic telemetry generator with known driving-style ground truth.

Stands in for a real instrumented-car dataset: each record is produced from a
StyleSpec whose aggressiveness knobs control the statistics that the pipeline
is supposed to recover, so generated corpora double as test oracles.

scipy is imported at the first ``generate`` call: importing this module needs only numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import DataError
from .telemetry import BOUNDS, MAX_DURATION_S, SAMPLE_RATE_HZ, TIME_COLUMN, DriveRecord

# The channels of a synthetic drive, in the order ``write_csv`` writes them:
# the six of ``telemetry.CHANNELS`` and four that no analysis reads.
CHANNELS = ("SWA", "VS", "ERPM", "PGP", "GP", "BP", "XACC", "YACC", "ZACC", "FUEL")

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
    from scipy import signal  # here, not at load, so importing cli needs no scipy

    sos = signal.butter(2, [lo, hi], btype="bandpass", fs=SAMPLE_RATE_HZ, output="sos")
    sos.flags.writeable = False
    return sos


def _band_noise(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """Unit-RMS band-limited noise from filtered white noise."""
    from scipy import signal  # here, not at load, so importing cli needs no scipy

    white = rng.standard_normal(n)
    y = signal.sosfilt(_band_sos(lo, hi).copy(), white)  # sosfilt needs a writable sos
    rms = np.sqrt(np.mean(y**2))
    return y / rms if rms > 0 else y


def _pulses(rng: np.random.Generator, n: int, length: int, rate: float,
            amp: float) -> np.ndarray:
    """``n`` samples of half-sine pulses, ``length`` samples long and ``amp``
    high, each starting at a sample with probability ``rate``; where pulses
    overlap the higher one holds."""
    pulse = amp * np.sin(np.pi * np.arange(length) / length)
    train = np.zeros(n)
    for s in np.flatnonzero(rng.random(n - length) < rate):
        train[s : s + length] = np.maximum(train[s : s + length], pulse)
    return train


def _wander(g: np.ndarray) -> np.ndarray:
    """Standard-normal draws ``g`` mapped to Laplace ones of unit variance:
    ``stats.laplace.ppf(stats.norm.cdf(g)) / sqrt(2)``, written out as the
    expressions those calls evaluate behind their argument checks.  Where
    ``ndtr`` rounds to 0 or 1 the log gives -inf or inf, as the calls do."""
    from scipy import special  # here, not at load, so importing cli needs no scipy

    q = special.ndtr(g)
    with np.errstate(divide="ignore"):  # log(0) in the branch np.where drops, or at q = 0, 1
        return np.where(q > 0.5, -np.log(2 * (1 - q)), np.log(2 * q)) / np.sqrt(2.0)


def generate(spec: StyleSpec, driver_id: str = "synthetic") -> DriveRecord:
    """Produce a 32 Hz DriveRecord for one style; deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    n = int(round(spec.duration * SAMPLE_RATE_HZ))
    dt = 1.0 / SAMPLE_RATE_HZ

    # steering and the lateral response it causes
    swa = SWA_SCALE_DEG * spec.steering_aggressiveness * _band_noise(rng, n, 0.05, 1.2)

    # gas pedal activity: the mean tracks gas_aggressiveness (fuel axis), a
    # fast zero-mean stabbing component tracks steering_aggressiveness (jerky
    # styles show spiky gas at any consumption level), and a slow traffic
    # wander is shared with the gearbox: easing off the gas goes together with
    # shifting down, so it raises ERPM as it lowers the pedal.  The wander has
    # heavy-tailed (Laplace) marginals, long calm stretches broken by strong
    # slow-downs: band-limited normal noise through ``_wander``, a monotone
    # transform that keeps its band limitation.
    wander = _wander(_band_noise(rng, n, 0.01, 0.1))
    gas = np.clip(0.55 * spec.gas_aggressiveness
                  + GAS_WANDER * wander
                  + GAS_SPIKE * spec.steering_aggressiveness * _band_noise(rng, n, 0.3, 2.0),
                  0.0, 1.0)
    pgp = 100.0 * gas
    xacc_gas = 1.2 * gas

    # sparse braking pulses (half-sine, 0.5 s)
    pulse_len = int(0.5 * SAMPLE_RATE_HZ)
    amp = 0.5 + 2.0 * spec.braking_spikiness
    brake = _pulses(rng, n, pulse_len, 0.25 * spec.braking_spikiness / SAMPLE_RATE_HZ, amp)
    # continuous light braking drag so deceleration statistics track the
    # spikiness knob even in windows without a discrete pulse
    drag = 2.2 * spec.braking_spikiness * np.maximum(-_band_noise(rng, n, 0.1, 1.0), 0.0)
    # sparse overtaking bursts (half-sine, 0.25 s) so aggressive styles also
    # show positive acceleration peaks
    surge = _pulses(rng, n, pulse_len // 2, 0.03 * spec.steering_aggressiveness / SAMPLE_RATE_HZ,
                    0.2 + 1.9 * spec.steering_aggressiveness)
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

    channels = dict(zip(CHANNELS, (swa, vs, erpm, pgp, gp, bp, xacc, yacc, zacc, fuel)))
    return DriveRecord(driver_id=driver_id, channels=channels)


COMFORT_KNOBS = (0.1, 0.5, 0.9)          # steering + braking aggressiveness
FUEL_KNOBS = ((0.3, 0.0), (0.5, 1200.0), (0.7, 0.0))  # (gas, erpm bias)


def style_grid(base_seed: int = 0, duration: float = 60.0) -> list[tuple[str, StyleSpec]]:
    """9 styles: 3 comfort levels x 3 fuel levels, labeled ``c<i>_f<j>``."""
    out = []
    for ci, steer in enumerate(COMFORT_KNOBS):
        for fj, (gas, bias) in enumerate(FUEL_KNOBS):
            spec = StyleSpec(steering_aggressiveness=steer,
                             gas_aggressiveness=gas,
                             braking_spikiness=steer,
                             erpm_bias=bias,
                             duration=duration,
                             seed=base_seed + 100 * ci + 10 * fj)
            out.append((f"c{ci}_f{fj}", spec))
    return out


# Rows per formatted string. 32 keeps the benchmark's peak RSS flat; on its
# urban_mix workload 128-row blocks raised it by 1-2 MB and 1,024-row blocks by
# about 8 MB, for no measurable gain in time.
WRITE_BLOCK = 32


def write_csv(record: DriveRecord, path) -> None:
    """Write a record's ``CHANNELS`` in a CSV the loader reads: the time at
    ``%.6f``, every channel at ``%.8g``, CRLF line ends.

    The file is opened binary and rows go out ``WRITE_BLOCK`` at a time: a
    block is gathered into one row-major buffer and formatted by a single
    bytes ``%`` with the row format repeated once per row.  Bytes ``%`` makes
    the same printf conversions of the same doubles as str ``%`` and
    ``np.savetxt``, so every cell is the same text.
    """
    n = record.n_total
    columns = [record.t_start + np.arange(n) / SAMPLE_RATE_HZ,
               *(record.channels[name] for name in CHANNELS)]
    row = b",".join([b"%.6f"] + [b"%.8g"] * len(CHANNELS)) + b"\r\n"
    block = np.empty((WRITE_BLOCK, len(columns)))
    with open(path, "wb") as fh:
        fh.write(",".join([TIME_COLUMN, *CHANNELS]).encode() + b"\r\n")
        for lo in range(0, n, WRITE_BLOCK):
            m = min(WRITE_BLOCK, n - lo)
            for j, column in enumerate(columns):
                block[:m, j] = column[lo:lo + m]
            fh.write(row * m % tuple(block[:m].ravel().tolist()))
