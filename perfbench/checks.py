"""Output checks that recompute the expected results apart from the program.

From the raw CSVs, the benchmark's own numpy/scipy code recomputes the window
starts, the mean-speed filter, MSDV/VR (paper filter corners and formula),
mean fuel, peak counts, RMS/variance features, the Pearson table and the SOM
labels (from the model JSON).  These are compared with what the CLI wrote.
Property checks cover what has no closed form: QE falls, labels are a
permutation, models round-trip byte-identically, labels agree with the
generator's styles, tables sum to 100, KDE integrals are near 1, the advice
stream replays the stability rule and the improvement tables match the
per-label means.

Nothing here imports the ecoride modules that compute these results; only
``SomModel`` is used, for the round-trip property.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

FS_HZ = 32.0
WINDOW = 256
STEP = 128
SPEED_KMH = 60.0
PEAK_MS2 = 1.75
K_STABLE = 3
MS_CORNERS_HZ = (0.02, 0.3)       # motion-sickness band
LABELS = ("Low", "Medium", "High")
FEATURE_SIGNALS = ("SWA", "VS", "XACC", "XACC_neg", "XACC_pos", "YACC", "ERPM")
TARGETS = ("fuel", "n_x_pos", "n_x_neg", "n_y", "msdv_y", "vr")
SUMMARY_COLUMNS = ("fuel", "vr", "msdv_y", "n_x_pos", "n_x_neg", "n_y")
MIN_STYLE_AGREEMENT = 0.85        # the acceptance suite's floor
STYLE_NAME = re.compile(r"^c([012])_f([012])$")

# The paper's joint advice: the fuel line, then the comfort line.  The
# Low-discomfort line is spoken only after a braking peak in the window.
FUEL_ADVICE = {"High": "Keep gas pedal steady / switch to a higher gear",
               "Medium": "Release gas pedal / switch to a lower gear",
               "Low": "Keep driving style"}
COMFORT_ADVICE = {"High": "Operate steering wheel more smoothly",
                  "Medium": "Release gas pedal",
                  "Low": "Avoid braking peaks"}


class CheckError(Exception):
    """An output disagrees with the independent computation."""


@dataclass(frozen=True)
class Outputs:
    """The files one round of the five commands writes."""

    root: Path

    @property
    def models(self) -> Path:
        return self.root / "models"

    @property
    def classes(self) -> Path:
        return self.root / "classes.csv"

    @property
    def reports(self) -> Path:
        return self.root / "reports"

    @property
    def correlations(self) -> Path:
        return self.root / "correlations.csv"


@dataclass
class Drive:
    """Independently recomputed windows of one drive log."""

    driver: str
    windows_formed: int
    starts: np.ndarray                 # kept window starts
    metrics: dict[str, np.ndarray]     # per kept window
    rms: dict[str, np.ndarray]
    var: dict[str, np.ndarray]


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _motion_sickness(x: np.ndarray) -> np.ndarray:
    """Causal 2nd-order Butterworth high-pass then low-pass, transfer-function form."""
    lo, hi = MS_CORNERS_HZ
    for cutoff, kind in ((lo, "highpass"), (hi, "lowpass")):
        b, a = signal.butter(2, cutoff, btype=kind, fs=FS_HZ)
        x = signal.lfilter(b, a, x)
    return x


def _peaks(w: np.ndarray) -> np.ndarray:
    """Rising edges above the peak threshold per window row."""
    above = w > PEAK_MS2
    return above[:, 0].astype(int) + np.count_nonzero(above[:, 1:] & ~above[:, :-1], axis=1)


def analyse_drive(path: Path) -> Drive:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {name: table[:, i] for i, name in enumerate(header)}
    t = col["t"]
    n = len(t)
    # the corpora are written on the 32 Hz grid, so resampling is the identity
    _require(np.allclose(np.diff(t), 1.0 / FS_HZ, rtol=0, atol=1e-9),
             f"{path.name}: not sampled at {FS_HZ} Hz")
    n_windows = (n - WINDOW) // STEP + 1 if n >= WINDOW else 0
    starts = STEP * np.arange(n_windows)

    def win(x):
        return sliding_window_view(x, WINDOW)[::STEP][:n_windows]

    keep = win(col["VS"]).mean(axis=1) >= SPEED_KMH
    msdv_x = np.sqrt(np.mean(win(_motion_sickness(col["XACC"]))[keep] ** 2, axis=1))
    msdv_y = np.sqrt(np.mean(win(_motion_sickness(col["YACC"]))[keep] ** 2, axis=1))
    x, y = win(col["XACC"])[keep], win(col["YACC"])[keep]
    metrics = {
        "msdv_x": msdv_x, "msdv_y": msdv_y,
        "vr": np.sqrt(msdv_x ** 2 / 9.0 + 2.0 * msdv_y ** 2 / 9.0),
        "n_x_pos": _peaks(np.maximum(x, 0.0)),
        "n_x_neg": _peaks(np.maximum(-x, 0.0)),
        "n_y": _peaks(np.abs(y)),
        "fuel": win(col["FUEL"])[keep].mean(axis=1),
    }
    sig = {name: win(col[name])[keep] for name in ("SWA", "VS", "XACC", "YACC", "ERPM")}
    sig["XACC_neg"] = np.maximum(-sig["XACC"], 0.0)
    sig["XACC_pos"] = np.maximum(sig["XACC"], 0.0)
    return Drive(driver=path.stem, windows_formed=n_windows, starts=starts[keep],
                 metrics=metrics,
                 rms={k: np.sqrt(np.mean(v ** 2, axis=1)) for k, v in sig.items()},
                 var={k: np.var(v, axis=1) for k, v in sig.items()})


def analyse_fleet(data_dir: Path) -> list[Drive]:
    return [analyse_drive(p) for p in sorted(Path(data_dir).glob("*.csv"))]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(abs(got - want) <= rel * abs(want) + 1e-12,
             f"{what}: output {got!r}, recomputed {want!r}")


def _classify(model: dict, drive: Drive) -> list[str]:
    """BMU -> cluster -> label from the model JSON, nearest prototype first."""
    x = np.column_stack([drive.rms[n] for n in model["feature_names"]])
    z = (x - np.array(model["normalizer_mean"])) / np.array(model["normalizer_std"])
    w = np.array(model["prototypes"])
    d2 = np.sum((w[None, :, :] - z[:, None, :]) ** 2, axis=2)
    clusters = np.array(model["assignment"])[np.argmin(d2, axis=1)]
    return [model["labels"][c] for c in clusters]


def check_models(models_dir: Path, scratch: Path) -> dict[str, dict]:
    from ecoride.som import SomModel

    out = {}
    for tag in ("main", "aux"):
        path = models_dir / f"{tag}_som.json"
        model = json.loads(path.read_text(encoding="utf-8"))
        qe = model["qe_history"]
        _require(qe[-1] < qe[0], f"{tag} map: QE did not fall ({qe[0]} -> {qe[-1]})")
        _require(sorted(model["labels"]) == sorted(LABELS),
                 f"{tag} map: labels {model['labels']} are not Low/Medium/High")
        again = scratch / f"{tag}_roundtrip.json"
        SomModel.load(path).save(again)
        _require(again.read_bytes() == path.read_bytes(),
                 f"{tag} map: save -> load -> save changed the bytes")
        out[tag] = model
    return out


def check_classes(classes: Path, drives: list[Drive], models: dict) -> dict[str, list]:
    rows = _read_csv(classes)
    _require(rows[0] == ["driver_id", "window_start", "comfort", "fuel"],
             "classes.csv: unexpected header")
    got: dict[str, list] = {}
    for driver, start, c, f in rows[1:]:
        got.setdefault(driver, []).append((int(start), c, f))
    pairs = {}
    for d in drives:
        want = list(zip(d.starts.tolist(), _classify(models["main"], d),
                        _classify(models["aux"], d)))
        rows_d = got.pop(d.driver, [])
        _require([r[0] for r in rows_d] == [w[0] for w in want],
                 f"classes.csv: {d.driver} has {len(rows_d)} window starts, "
                 f"recomputed {len(want)} (or they differ)")
        _require(rows_d == want, f"classes.csv: {d.driver} labels differ from "
                                 "the nearest-prototype labels of the models")
        pairs[d.driver] = [(c, f) for _, c, f in rows_d]
    _require(not got, f"classes.csv: unknown drivers {sorted(got)}")
    return pairs


def check_style_agreement(pairs: dict[str, list], fuel_gate: bool = True
                          ) -> tuple[float, float]:
    """Share of windows whose comfort/fuel label matches the generator's style.

    Both shares must reach the floor, the fuel share only with ``fuel_gate``.
    """
    hits_c = hits_f = total = 0
    for driver, labels in pairs.items():
        m = STYLE_NAME.match(driver)
        if m is None:
            continue
        want_c, want_f = LABELS[int(m.group(1))], LABELS[int(m.group(2))]
        hits_c += sum(c == want_c for c, _ in labels)
        hits_f += sum(f == want_f for _, f in labels)
        total += len(labels)
    _require(total > 0, "no windows of generator styles to compare")
    agree = (hits_c / total, hits_f / total)
    _require(min(agree if fuel_gate else agree[:1]) >= MIN_STYLE_AGREEMENT,
             f"label agreement with generator styles {agree[0]:.3f}/{agree[1]:.3f} "
             f"below {MIN_STYLE_AGREEMENT}")
    return agree


def _percent_table(pairs: list) -> np.ndarray:
    table = np.zeros((3, 3))
    for c, f in pairs:
        table[LABELS.index(c), LABELS.index(f)] += 1
    return 100.0 * table / len(pairs)


def _check_table(path: Path, pairs: list) -> None:
    rows = _read_csv(path)
    _require(rows[0] == ["comfort\\fuel", *LABELS] and [r[0] for r in rows[1:]] == list(LABELS),
             f"{path.name}: unexpected layout")
    got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    _require(abs(got.sum() - 100.0) <= 0.05, f"{path.name}: sums to {got.sum()}")
    want = _percent_table(pairs)
    _require(np.all(np.abs(got - want) <= 0.005 + 1e-9),
             f"{path.name}: differs from the table recomputed from classes.csv")


def _expected_events(drive: Drive, pairs: list) -> list[str]:
    events = []
    last = candidate = None
    streak = 0
    for start, peaks, pair in zip(drive.starts, drive.metrics["n_x_neg"], pairs):
        streak = streak + 1 if pair == candidate else 1
        candidate = pair
        if streak >= K_STABLE and pair != last:
            last = pair
            comfort, fuel = pair
            lines = [FUEL_ADVICE[fuel]]
            if comfort != "Low":
                lines.append(COMFORT_ADVICE[comfort])
            elif peaks >= 1:
                lines.append(COMFORT_ADVICE["Low"])
            quoted = " ".join(f'"{line}"' for line in lines)
            events.append(f"{drive.driver} window_start={start} comfort={comfort[0]} "
                          f"fuel={fuel[0]} advice={quoted}")
    return events


def _expected_improvements(values: dict[str, np.ndarray], labels: list[str]) -> list:
    labels = np.array(labels)
    means = {lab: {m: float(v[labels == lab].mean()) for m, v in values.items()}
             for lab in LABELS}
    key = next(iter(values))
    order = sorted(LABELS, key=lambda lab: means[lab][key])
    return [(cur, tgt, [100.0 * (means[cur][m] - means[tgt][m]) / means[cur][m]
                        for m in values])
            for cur in order for tgt in order if means[tgt][key] < means[cur][key]]


def check_advise(reports: Path, drives: list[Drive], pairs: dict[str, list]) -> int:
    want_events = [e for d in drives for e in _expected_events(d, pairs[d.driver])]
    got_events = (reports / "advice_events.txt").read_text(encoding="utf-8").splitlines()
    _require(got_events == want_events,
             f"advice_events.txt: {len(got_events)} events, the k_stable={K_STABLE} "
             f"replay of classes.csv gives {len(want_events)} (or they differ)")
    every_pair = [p for d in drives for p in pairs[d.driver]]
    _check_table(reports / "intersection.csv", every_pair)

    cat = {m: np.concatenate([d.metrics[m] for d in drives])
           for m in ("vr", "msdv_y", "fuel")}
    for tag, metrics, which in (("main", ("vr", "msdv_y"), 0), ("aux", ("fuel",), 1)):
        want = _expected_improvements({m: cat[m] for m in metrics},
                                      [p[which] for p in every_pair])
        rows = _read_csv(reports / f"improvement_{tag}.csv")
        _require(rows[0] == ["current", "target", *[f"{m}_reduction_pct" for m in metrics]],
                 f"improvement_{tag}.csv: unexpected header")
        _require([tuple(r[:2]) for r in rows[1:]] == [w[:2] for w in want],
                 f"improvement_{tag}.csv: label pairs differ from the per-label means")
        for r, (_, _, pct) in zip(rows[1:], want):
            for got, exp in zip(r[2:], pct):
                _require(abs(float(got) - exp) <= 0.05 + 1e-6,
                         f"improvement_{tag}.csv: {r[0]}->{r[1]} {got}, recomputed {exp:.3f}")
    return len(want_events)


def _kde_integral(path: Path) -> float:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    fuel, vr = np.unique(table[:, 0]), np.unique(table[:, 1])
    _require(table.shape[0] == len(fuel) * len(vr), f"{path.name}: not a regular grid")
    dx = (fuel[-1] - fuel[0]) / (len(fuel) - 1)
    dy = (vr[-1] - vr[0]) / (len(vr) - 1)
    return float(table[:, 2].sum() * dx * dy)


def check_report(reports: Path, drives: list[Drive], pairs: dict[str, list]) -> None:
    rows = _read_csv(reports / "driver_summary.csv")
    _require(rows[0] == ["driver_id", "window_count", *SUMMARY_COLUMNS],
             "driver_summary.csv: unexpected header")
    kept = [d for d in drives if len(d.starts)]
    _require([r[0] for r in rows[1:]] == sorted(d.driver for d in kept),
             "driver_summary.csv: drivers differ from those with kept windows")
    by_driver = {d.driver: d for d in kept}
    for r in rows[1:]:
        d = by_driver[r[0]]
        _require(int(r[1]) == len(d.starts), f"driver_summary.csv: {d.driver} window count")
        for name, cell in zip(SUMMARY_COLUMNS, r[2:]):
            # the CSV keeps 6 significant digits
            _close(float(cell), float(np.mean(d.metrics[name])), 1e-5,
                   f"driver_summary.csv: {d.driver} {name}")
    for d in kept:
        _check_table(reports / f"heatmap_{d.driver}.csv", pairs[d.driver])
        integral = _kde_integral(reports / f"kde_{d.driver}.csv")
        _require(0.95 <= integral <= 1.05, f"kde_{d.driver}.csv: integral {integral:.4f}")


def check_correlations(path: Path, drives: list[Drive]) -> None:
    rows = _read_csv(path)
    columns = [f"{s} {kind}" for s in FEATURE_SIGNALS for kind in ("RMS", "Var")]
    _require(rows[0] == ["target", *columns], "correlations.csv: unexpected header")
    _require([r[0] for r in rows[1:]] == list(TARGETS), "correlations.csv: unexpected rows")
    feats = [np.concatenate([(d.rms if kind == "RMS" else d.var)[s] for d in drives])
             for s in FEATURE_SIGNALS for kind in ("RMS", "Var")]
    for r in rows[1:]:
        target = np.concatenate([d.metrics[r[0]] for d in drives]).astype(float)
        for cell, name, col in zip(r[1:], columns, feats):
            want = float(np.corrcoef(target, col)[0, 1])
            # the CSV keeps 4 decimals
            _require(abs(float(cell) - want) <= 5e-5 + 1e-9,
                     f"correlations.csv: {r[0]} vs {name} {cell}, recomputed {want:.6f}")


def check_round(out: Outputs, drives: list[Drive], scratch: Path,
                fuel_gate: bool = True) -> dict:
    """Check every output of one round; return a few recomputed figures."""
    models = check_models(out.models, scratch)
    pairs = check_classes(out.classes, drives, models)
    agree = check_style_agreement(pairs, fuel_gate)
    events = check_advise(out.reports, drives, pairs)
    check_report(out.reports, drives, pairs)
    check_correlations(out.correlations, drives)
    return {"windows_kept": sum(len(d.starts) for d in drives),
            "windows_formed": sum(d.windows_formed for d in drives),
            "style_agreement": agree, "advice_events": events}
