"""Workload corpora: synthetic drive logs written as telemetry CSVs.

Every corpus is built through the ``ecoride.synthgen`` API (``style_grid``,
``generate``, ``write_csv``), never through the CLI, so set-up invokes no
command and adds no operation to a run.  The same seed always writes the same
bytes.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ecoride import synthgen
from ecoride.telemetry import SAMPLE_RATE_HZ, DriveRecord

WORKLOADS = ("fleet600", "fleet_scan", "urban_mix")

# The `train --seed` value of the ROADMAP corpus, used on every workload.
TRAIN_SEED = 5

URBAN_KMH = 30.0
# urban_mix drives repeat this cycle: 120 s at highway speed, then 240 s in
# town, so about two thirds of the windows fall under the 60 km/h filter.
HIGHWAY_STRETCH_S = 120.0
URBAN_STRETCH_S = 240.0
URBAN_MIX_DURATION_S = 720.0

# The failing report runs over this fixed, seed-independent directory: three
# urban_mix drivers plus one drive held at town speed throughout.
FAULT_SEED = 0
FAULT_DURATION_S = 180.0
FAULT_DRIVERS = ("c0_f0", "c1_f1", "c2_f2")
SLOW_DRIVER = "slow_town"


@dataclass(frozen=True)
class Corpus:
    """Where a workload's drive logs live once set-up has written them."""

    train_dir: Path   # the fleet `train` reads
    data_dir: Path    # the fleet the four analysis commands read
    fault_dir: Path | None = None  # the fleet of the failing report, if any
    # Whether fuel labels must agree with the generator's fuel styles.  The
    # Medium and High fuel styles differ by only 2.5% in mean fuel, and on
    # urban_mix seed 105 the fuel map swaps their labels (see CHANGES.md).
    fuel_gate: bool = True


def _write(record: DriveRecord, out: Path) -> None:
    synthgen.write_csv(record, out / f"{record.driver_id}.csv")


def _style_fleet(out: Path, base_seed: int, duration: float) -> None:
    """The 9-style grid, as ``ecoride synth`` writes it."""
    out.mkdir(parents=True)
    for label, spec in synthgen.style_grid(base_seed=base_seed, duration=duration):
        _write(synthgen.generate(spec, driver_id=label), out)


def _mixed_drive(spec: synthgen.StyleSpec, name: str) -> DriveRecord:
    """One style driven alternately on the highway and in town.

    Both stretches come from the generator with the same style knobs; only the
    base speed and the noise seed differ.
    """
    highway = synthgen.generate(spec, driver_id=name)
    town = synthgen.generate(replace(spec, base_speed=URBAN_KMH, seed=spec.seed + 5),
                             driver_id=name)
    n = highway.n_total
    cycle = int((HIGHWAY_STRETCH_S + URBAN_STRETCH_S) * SAMPLE_RATE_HZ)
    on_highway = np.arange(n) % cycle < int(HIGHWAY_STRETCH_S * SAMPLE_RATE_HZ)
    channels = {ch: np.where(on_highway, highway.channels[ch], town.channels[ch])
                for ch in highway.channels}
    return DriveRecord(driver_id=name, channels=channels)


def _urban_fleet(out: Path, base_seed: int, duration: float,
                 only: tuple[str, ...] | None = None) -> None:
    out.mkdir(parents=True)
    for label, spec in synthgen.style_grid(base_seed=base_seed, duration=duration):
        if only is None or label in only:
            _write(_mixed_drive(spec, label), out)


def build(workload: str, seed: int, root: Path) -> Corpus:
    """Write the corpora of ``workload`` for ``seed`` under a fresh ``root``.

    - fleet600: ``synth --seed <seed> --duration 600``, 9 highway drivers;
      train and analysis read the same directory.
    - fleet_scan: maps are trained on a 9-driver reference fleet of 150 s
      drives; the analysis reads the style grid at the next base seed with
      450 s drives, three times the reference drive time.
    - urban_mix: 9 drivers of 720 s alternating highway and town stretches,
      plus the fixed directory of the failing report.
    """
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    if workload == "fleet600":
        fleet = root / "fleet"
        _style_fleet(fleet, seed, 600.0)
        return Corpus(train_dir=fleet, data_dir=fleet)
    if workload == "fleet_scan":
        reference, scan = root / "reference", root / "scan"
        _style_fleet(reference, seed, 150.0)
        _style_fleet(scan, seed + 1, 450.0)
        return Corpus(train_dir=reference, data_dir=scan)
    if workload == "urban_mix":
        fleet, fault = root / "fleet", root / "fault"
        _urban_fleet(fleet, seed, URBAN_MIX_DURATION_S)
        _urban_fleet(fault, FAULT_SEED, FAULT_DURATION_S, only=FAULT_DRIVERS)
        slow = synthgen.StyleSpec(base_speed=URBAN_KMH, duration=FAULT_DURATION_S,
                                  seed=FAULT_SEED)
        _write(synthgen.generate(slow, driver_id=SLOW_DRIVER), fault)
        return Corpus(train_dir=fleet, data_dir=fleet, fault_dir=fault, fuel_gate=False)
    raise ValueError(f"unknown workload {workload!r}")
