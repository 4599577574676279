"""Command-line entry point wiring the full pipeline.

Subcommands: synth, train, classify, advise, report, correlate.
Exit codes: 0 success, 1 usage error, 2 data error, 141 stdout closed early
(128 + SIGPIPE, as a shell shows for ``yes | head -1``).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

import numpy as np

from . import (DataError, advisor, analytics, comfort, features, pipeline, save_csv, synthgen,
               telemetry)
from .features import MAPS
from .som import LABELS, SomModel

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PIPE = 141

DATA_ERRORS = (DataError, OSError)

# glibc's mallopt(3) parameters (malloc.h) and the values main sets: 32 MiB,
# the largest mmap threshold on 64-bit, and a trim threshold twice that.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

# The window columns each analysis command has ``pipeline.analyze_record``
# compute: those it reads.  Every command reads the maps' RMS features;
# train, advise and report also the metrics their profiles, advice and
# summaries average, and correlate every column.
MAP_COLUMNS = tuple(dict.fromkeys(f"{name} RMS" for _, names, *_ in MAPS for name in names))
PROFILE_COLUMNS = (*MAP_COLUMNS, *comfort.METRICS)


class CliParser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_fleet(data_dir, columns) -> tuple[list[str], dict[str, np.ndarray]]:
    """The driver ids (file stems) and the ``pipeline.analyze_fleet`` window
    table, holding the window ``columns``, of the CSVs in ``data_dir``, read
    one file at a time in name order."""
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise DataError(f"no telemetry CSV files in {data_dir}")
    fleet = pipeline.analyze_fleet(
        (telemetry.resample(telemetry.load_csv(p), driver_id=p.stem) for p in paths), columns)
    return [p.stem for p in paths], fleet


def _load_models(model_dir) -> list[SomModel]:
    """The ``MAPS`` maps; each file, checked to exist before any is read,
    must hold its own map's features."""
    model_dir = Path(model_dir)
    expected = {model_dir / f"{tag}_som.json": names for tag, names, *_ in MAPS}
    for p in expected:
        if not p.is_file():
            raise DataError(f"model file not found: {p}")
    models = []
    for p, names in expected.items():
        model = SomModel.load(p)
        if model.feature_names != names:
            raise DataError(f"model file {p}: feature_names {list(model.feature_names)}, "
                            f"expected {list(names)}")
        models.append(model)
    return models


def _classify(args, columns):
    """(the ``MAPS`` models, driver ids, the fleet window table of
    ``_load_fleet``'s ``columns`` with its classification columns)."""
    models = _load_models(args.models)
    driver_ids, fleet = _load_fleet(args.data, columns)
    pipeline.classify_all(fleet, models)
    return models, driver_ids, fleet


def _print_profiles(tag: str, model: SomModel, profile: dict[str, np.ndarray]) -> None:
    metrics = advisor.PROFILE_METRICS
    print(f"{tag} cluster profiles:")
    print("  label   windows  " + "  ".join(f"{m:>8}" for m in metrics))
    for label in advisor.LABELS:
        cid = model.labels.index(label)
        row = "  ".join(f"{profile[m][cid]:8.4g}" for m in metrics)
        print(f"  {label:<7} {profile['windows'][cid]:7d}  {row}")


# ---------------------------------------------------------------------------
# Commands

def cmd_synth(args) -> int:
    out = Path(args.out)
    written = []
    for label, spec in synthgen.style_grid(base_seed=args.seed, duration=args.duration):
        path = out / f"{label}.csv"
        synthgen.write_csv(synthgen.generate(spec, driver_id=label), path)
        written.append(path)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_train(args) -> int:
    trained = pipeline.train_models(_load_fleet(args.data, PROFILE_COLUMNS)[1], args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for (model, _), (tag, *_) in zip(trained, MAPS):
        model.save(out / f"{tag}_som.json")
        qe = model.qe_history
        print(f"{tag} SOM quantization error: {qe[0]:.4f} -> {qe[-1]:.4f}")
    for (model, profile), (tag, *_) in zip(trained, MAPS):
        _print_profiles(tag, model, profile)
    print(f"models written to {out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _, driver_ids, fleet = _classify(args, MAP_COLUMNS)
    save_csv(args.out, ["driver_id", "window_start", "comfort", "fuel"],
             ([driver_ids[driver], start, LABELS[comfort], LABELS[fuel]]
              for driver, start, comfort, fuel in zip(fleet["driver"], fleet["window_start"],
                                                      fleet["comfort_label"],
                                                      fleet["fuel_label"])))
    print(f"classified {len(fleet['driver'])} windows -> {args.out}")
    return EXIT_OK


def cmd_advise(args) -> int:
    models, driver_ids, fleet = _classify(args, PROFILE_COLUMNS)
    if not len(fleet["driver"]):
        raise DataError(f"no window at or above {telemetry.SPEED_THRESHOLD_KMH:g} km/h "
                        f"in {args.data}: nothing to advise on")
    reports = []
    for model, (tag, _, report_metrics, _, _) in zip(models, MAPS):
        try:
            profile = advisor.profile_clusters(model.assignment, fleet[f"{tag}_bmu"], fleet)
            rows = advisor.improvement_report(model.labels, profile, metrics=report_metrics)
        except DataError as exc:
            raise DataError(f"{tag} map: {exc}") from None
        reports.append((tag, rows, report_metrics))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = advisor.stream_advise(fleet, driver_ids)
    with open(out / "advice_events.txt", "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)

    advisor.write_intersection_csv(
        advisor.intersect(fleet["comfort_label"], fleet["fuel_label"]),
        out / "intersection.csv")
    for tag, rows, report_metrics in reports:
        advisor.write_improvement_csv(rows, report_metrics, out / f"improvement_{tag}.csv")
    print(f"advice reports written to {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    _, driver_ids, fleet = _classify(args, PROFILE_COLUMNS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # each driver's rows are one run of the fleet table, in file-name order
    bounds = np.searchsorted(fleet["driver"], np.arange(len(driver_ids) + 1)).tolist()
    runs = {driver_id: slice(lo, hi)
            for driver_id, lo, hi in zip(driver_ids, bounds[:-1], bounds[1:]) if hi > lo}
    analytics.write_summary_csv(analytics.driver_summary(fleet, runs),
                                out / "driver_summary.csv")
    for driver_id, table in analytics.driver_heatmap(fleet, runs).items():
        advisor.write_intersection_csv(table, out / f"heatmap_{driver_id}.csv")

    floor = f"at or above {telemetry.SPEED_THRESHOLD_KMH:g} km/h"
    for driver_id in driver_ids:
        rows = runs.get(driver_id)
        if rows is None:
            print(f"{driver_id}: no window {floor}; heatmap and KDE skipped")
            continue
        if rows.stop - rows.start < 2:
            print(f"{driver_id}: 1 window {floor}; KDE skipped")
            continue
        try:
            surface = analytics.kde2d(np.column_stack([fleet["fuel"][rows], fleet["vr"][rows]]))
        except DataError as exc:
            print(f"{driver_id}: {exc}; KDE skipped")
            continue
        analytics.write_kde_csv(surface, out / f"kde_{driver_id}.csv",
                                out / f"kde_{driver_id}.json")
        print(f"{driver_id}: KDE integral = {surface.integral():.4f}")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_correlate(args) -> int:
    table = features.correlation_table(_load_fleet(args.data, pipeline.COLUMNS)[1])
    features.write_correlation_csv(table, args.out)
    print(f"correlation table ({table.shape[0]} x {table.shape[1]}) -> {args.out}")
    return EXIT_OK


COMMANDS = {"synth": cmd_synth, "train": cmd_train, "classify": cmd_classify,
            "advise": cmd_advise, "report": cmd_report, "correlate": cmd_correlate}


def _check_out(args) -> None:
    """Raise DataError for an ``--out`` the command could not write, or one
    that would put CSV files into ``--data``, where a later command would read
    them as telemetry.  Reads no telemetry and creates nothing."""
    out = Path(args.out)
    if args.command == "synth":
        if not out.is_dir():
            raise DataError(f"output directory not found: {out}")
        return
    data = Path(args.data).resolve()
    if args.command in ("classify", "correlate"):  # one CSV file
        if out.is_dir():
            raise DataError(f"--out {out} is a directory, not a CSV file path")
        if not out.parent.is_dir():
            raise DataError(f"--out {out}: directory {out.parent} not found")
        if out.suffix == ".csv" and out.parent.resolve() == data:
            raise DataError(f"--out {out} lies in the data directory {args.data}; "
                            "a CSV file there would be read as telemetry")
        return
    if out.exists() and not out.is_dir():
        raise DataError(f"--out {out} exists and is not a directory")
    if args.command != "train" and out.resolve() == data:  # train writes no CSV
        raise DataError(f"--out {out} resolves to the data directory {args.data}; "
                        "CSV files there would be read as telemetry")


def _keep_freed_memory() -> None:
    """On glibc, fix the mmap and trim thresholds high, so that the buffers
    of one telemetry file, freed, stay mapped for the next file's, and are not
    handed back to the OS and faulted in again (README, "Memory").  Setting
    them also stops glibc from raising the mmap threshold to each freed
    block's size.  Elsewhere nothing happens."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if libc and libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> CliParser:
    parser = CliParser(prog="ecoride",
                       description="Eco-driving ride-comfort analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic telemetry CSVs")
    p.add_argument("--seed", type=int, default=0, help="base seed for the style grid")
    p.add_argument("--out", required=True, help="output directory (must exist)")
    p.add_argument("--duration", type=float, default=600.0,
                   help="record duration in seconds")

    for name, help_text, models, out_help in (
            ("train", "train and persist both SOMs", False, "model output directory"),
            ("classify", "label windows with trained models", True, "output CSV path"),
            ("advise", "stream advice + write reports", True, "report output directory"),
            ("report", "driver summaries, KDE surfaces, heatmaps", True,
             "report output directory"),
            ("correlate", "emit the feature/target PCC table", False, "output CSV path")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True, help="telemetry CSV directory")
        if models:
            p.add_argument("--models", required=True, help="trained model directory")
        p.add_argument("--out", required=True, help=out_help)
        if name == "train":
            p.add_argument("--seed", type=int, default=0, help="random seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", 0) < 0:  # before any file is read or written
            raise DataError(f"seed must be an integer >= 0, got {args.seed}")
        _check_out(args)
        _keep_freed_memory()
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:  # before DATA_ERRORS, which holds OSError
        # as the Python docs' "Note on SIGPIPE": the flush at exit goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except DATA_ERRORS as exc:
        print(f"ecoride: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
