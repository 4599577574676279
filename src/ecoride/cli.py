"""Command-line entry point wiring the full pipeline.

Subcommands: synth, train, classify, advise, report, correlate.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import advisor, analytics, features, pipeline, synthgen, telemetry
from .advisor import AdvisorError
from .analytics import AnalyticsError
from .comfort import ComfortError
from .features import FeatureError
from .pipeline import PipelineError, RunConfig
from .som import LABELS, SomError, SomModel
from .synthgen import SynthError
from .telemetry import TelemetryError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DATA_ERRORS = (TelemetryError, ComfortError, FeatureError, SomError,
               AdvisorError, AnalyticsError, SynthError, PipelineError,
               OSError, json.JSONDecodeError)

MAIN_MODEL_FILE = "main_som.json"
AUX_MODEL_FILE = "aux_som.json"


class CliParser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise PipelineError(f"config file {path} must hold a JSON object")
    return cfg


def _run_config(args, cfg: dict) -> RunConfig:
    """Build a RunConfig from config-file values; explicit flags win."""
    unknown = sorted(set(cfg) - {f.name for f in dataclasses.fields(RunConfig)})
    if unknown:
        raise PipelineError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = dict(cfg)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return RunConfig(**kwargs)


def _load_records(data_dir) -> list[telemetry.DriveRecord]:
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise TelemetryError(f"data directory not found: {data_dir}")
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise TelemetryError(f"no telemetry CSV files in {data_dir}")
    return [telemetry.resample(telemetry.load_csv(p), driver_id=p.stem) for p in paths]


def _analyze_records(data_dir, config: RunConfig) -> list[pipeline.AnalyzedRecord]:
    return [pipeline.analyze_record(r, config) for r in _load_records(data_dir)]


def _load_models(model_dir) -> tuple[SomModel, SomModel]:
    model_dir = Path(model_dir)
    main_path = model_dir / MAIN_MODEL_FILE
    aux_path = model_dir / AUX_MODEL_FILE
    for p in (main_path, aux_path):
        if not p.is_file():
            raise SomError(f"model file not found: {p}")
    return SomModel.load(main_path), SomModel.load(aux_path)


def _classify(args, config: RunConfig):
    """(main model, aux model, analysed records with their classification columns)."""
    main_model, aux_model = _load_models(args.models)
    analyzed = _analyze_records(args.data, config)
    pipeline.classify_all(analyzed, main_model, aux_model)
    return main_model, aux_model, analyzed


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
    if not out.is_dir():
        raise SynthError(f"output directory not found: {out}")
    seed = args.seed if args.seed is not None else 0
    grid = synthgen.style_grid(base_seed=seed, duration=args.duration)
    written = []
    for i in range(args.drivers):
        label, spec = grid[i % len(grid)]
        if args.drivers > len(grid):
            label = f"{label}_r{i // len(grid)}"
            spec = synthgen.StyleSpec(**{**spec.__dict__,
                                         "seed": spec.seed + 1000 * (i // len(grid))})
        record = synthgen.generate(spec, driver_id=label)
        path = out / f"{label}.csv"
        synthgen.write_csv(record, path)
        written.append(path)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = pipeline.train_models(_load_records(args.data), config)
    result.main_model.save(out / MAIN_MODEL_FILE)
    result.aux_model.save(out / AUX_MODEL_FILE)
    for tag, model in (("main", result.main_model), ("aux", result.aux_model)):
        qe = model.qe_history
        print(f"{tag} SOM quantization error: {qe[0]:.4f} -> {qe[-1]:.4f}")
    _print_profiles("main", result.main_model, result.main_profile)
    _print_profiles("aux", result.aux_model, result.aux_profile)
    print(f"models written to {out}")
    return EXIT_OK


def cmd_classify(args, config: RunConfig) -> int:
    _, _, analyzed = _classify(args, config)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["driver_id", "window_start", "comfort", "fuel"])
        for a in analyzed:
            for start, comfort, fuel in zip(a.windows, a.columns["comfort_label"],
                                            a.columns["fuel_label"]):
                writer.writerow([a.record.driver_id, start, LABELS[comfort], LABELS[fuel]])
    n = sum(len(a.windows) for a in analyzed)
    print(f"classified {n} windows -> {args.out}")
    return EXIT_OK


def cmd_advise(args, config: RunConfig) -> int:
    main_model, aux_model, analyzed = _classify(args, config)
    fleet = pipeline.fleet_columns(analyzed)
    reports = []
    for tag, model, report_metrics in (("main", main_model, ("vr", "msdv_y")),
                                       ("aux", aux_model, ("fuel",))):
        profile = advisor.profile_clusters(model.partition, fleet[f"{tag}_bmu"], fleet)
        try:
            rows = advisor.improvement_report(model.labels, profile, metrics=report_metrics)
        except AdvisorError as exc:
            raise AdvisorError(f"{tag} map: {exc}") from None
        reports.append((tag, rows, report_metrics))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix = advisor.build_advice_matrix()
    with open(out / "advice_events.txt", "w", encoding="utf-8") as fh:
        for a in analyzed:
            state = advisor.AdviceState(k_stable=config.k_stable)
            for start, comfort, fuel, n_x_neg in zip(
                    a.windows, a.columns["comfort_label"], a.columns["fuel_label"],
                    a.columns["n_x_neg"]):
                event = advisor.stream_advise(state, (LABELS[comfort], LABELS[fuel]),
                                              start, n_x_neg, matrix)
                if event is not None:
                    fh.write(f"{a.record.driver_id} {event.format()}\n")

    advisor.write_intersection_csv(
        advisor.intersect(fleet["comfort_label"], fleet["fuel_label"]),
        out / "intersection.csv")
    for tag, rows, report_metrics in reports:
        advisor.write_improvement_csv(rows, report_metrics, out / f"improvement_{tag}.csv")
    print(f"advice reports written to {out}")
    return EXIT_OK


def cmd_report(args, config: RunConfig) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, _, analyzed = _classify(args, config)

    by_driver = {a.record.driver_id: a.columns for a in analyzed}
    analytics.write_summary_csv(analytics.driver_summary(by_driver),
                                out / "driver_summary.csv")
    for driver_id, table in analytics.driver_heatmap(by_driver).items():
        advisor.write_intersection_csv(table, out / f"heatmap_{driver_id}.csv")

    for a in analyzed:
        driver_id = a.record.driver_id
        if not len(a.windows):
            print(f"{driver_id}: no window at or above {config.speed_threshold:g} km/h; "
                  "heatmap and KDE skipped")
            continue
        if len(a.windows) < 2:
            print(f"{driver_id}: 1 window at or above {config.speed_threshold:g} km/h; "
                  "KDE skipped")
            continue
        flat = [name for name in ("fuel", "vr") if np.ptp(a.columns[name]) == 0.0]
        if flat:
            print(f"{driver_id}: {flat[0]} has zero spread; KDE skipped")
            continue
        surface = analytics.kde2d(np.column_stack([a.columns["fuel"], a.columns["vr"]]))
        analytics.write_kde_csv(surface, out / f"kde_{driver_id}.csv",
                                out / f"kde_{driver_id}.json")
        print(f"{driver_id}: KDE integral = {surface.integral():.4f}")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_correlate(args, config: RunConfig) -> int:
    analyzed = _analyze_records(args.data, config)
    rows, cols, table = features.correlation_table(pipeline.fleet_columns(analyzed))
    features.write_correlation_csv(rows, cols, table, args.out)
    print(f"correlation table ({len(rows)} x {len(cols)}) -> {args.out}")
    return EXIT_OK


COMMANDS = {"train": cmd_train, "classify": cmd_classify, "advise": cmd_advise,
            "report": cmd_report, "correlate": cmd_correlate}


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> CliParser:
    parser = CliParser(prog="ecoride",
                       description="Eco-driving ride-comfort analysis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=False, data=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="random seed")
        if data:
            p.add_argument("--data", required=True, help="telemetry CSV directory")
        if models:
            p.add_argument("--models", required=True, help="trained model directory")

    p = sub.add_parser("synth", help="generate synthetic telemetry CSVs")
    p.add_argument("--seed", type=int, help="base seed for the style grid")
    p.add_argument("--out", required=True, help="output directory (must exist)")
    p.add_argument("--drivers", type=int, default=9, help="number of records")
    p.add_argument("--duration", type=float, default=600.0,
                   help="record duration in seconds")

    p = sub.add_parser("train", help="train and persist both SOMs")
    common(p)
    p.add_argument("--out", required=True, help="model output directory")

    p = sub.add_parser("classify", help="label windows with trained models")
    common(p, models=True)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("advise", help="stream advice + write reports")
    common(p, models=True)
    p.add_argument("--out", required=True, help="report output directory")

    p = sub.add_parser("report", help="driver summaries, KDE surfaces, heatmaps")
    common(p, models=True)
    p.add_argument("--out", required=True, help="report output directory")

    p = sub.add_parser("correlate", help="emit the feature/target PCC table")
    common(p)
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    try:
        if args.command == "synth":
            if args.drivers < 1:
                raise SynthError("--drivers must be at least 1")
            return cmd_synth(args)
        cfg = _load_config(args.config) if args.config else {}
        return COMMANDS[args.command](args, _run_config(args, cfg))
    except DATA_ERRORS as exc:
        print(f"ecoride: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
