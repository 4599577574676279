"""Rounds, metrics, digests and the self-test of the fleet benchmark.

Imported by ``run.py`` once the thread caps are set and ``ecoride`` has been
imported from the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import corpora
import tracing
from calibration import Timing, timed

SETUPS = 3
COMMANDS = ("train", "classify", "advise", "report", "correlate")
ANALYSIS = COMMANDS[1:]
FAULT_MESSAGE = "no classified windows"

E2E_UNITS = {"setup_s": "s", "train_s": "s", "classify_s": "s", "advise_s": "s",
             "report_s": "s", "correlate_s": "s", "windows_per_s": "windows/s",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".rows_per_s", "rows/s"), (".windows_per_s", "windows/s"),
                         (".iterations_per_s", "iterations/s"), ("_s", "s"), (".s", "s"),
                         (".rows", "rows"), (".iterations", "iterations"),
                         (".bytes", "bytes"), ("_ratio", "ratio"),
                         (".windows_formed", "windows"), (".windows_kept", "windows")):
        if name.endswith(suffix):
            return unit
    return "count"


class Bench:
    def __init__(self, cli, work: Path, traced: bool = False):
        self.cli = cli
        self.work = work
        self.tracer = tracing.Tracer() if traced else None

    def invoke(self, argv: list[str], span: str | None = None) -> tuple[int, Timing, str]:
        """Run one CLI command in-process; record a span around it if ``span``."""
        out, err = io.StringIO(), io.StringIO()

        def step():
            traced = self.tracer.span(span) if span else contextlib.nullcontext()
            with traced, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(argv)

        rc, timing = timed(step)
        return rc, timing, err.getvalue()

    def round(self, corpus: corpora.Corpus, out: checks.Outputs, traced: bool = False
              ) -> tuple[dict[str, Timing], int, int, list[str]]:
        """One pass of the five commands, plus the failing report on urban_mix.

        With ``traced`` the five commands run with the tracer installed; the
        failing report never does, so its work enters no per-layer figure.
        Returns (timing per command, attempted, failed, problems).
        """
        data = ["--data", str(corpus.data_dir), "--models", str(out.models)]
        argvs = {
            "train": ["train", "--data", str(corpus.train_dir), "--out", str(out.models),
                      "--seed", str(corpora.TRAIN_SEED)],
            "classify": ["classify", *data, "--out", str(out.classes)],
            "advise": ["advise", *data, "--out", str(out.reports)],
            "report": ["report", *data, "--out", str(out.reports)],
            "correlate": ["correlate", "--data", str(corpus.data_dir),
                          "--out", str(out.correlations)],
        }
        times, failed, problems = {}, 0, []
        if traced:
            self.tracer.install()
        try:
            for command in COMMANDS:
                rc, times[command], err = self.invoke(argvs[command],
                                                      f"cli.{command}" if traced else None)
                if rc != 0:
                    failed += 1
                    problems.append(f"{command} exited {rc}: {err.strip()}")
        finally:
            if traced:
                self.tracer.uninstall()
        attempted = len(COMMANDS)
        if corpus.fault_dir is not None:
            attempted += 1
            out_err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(out_err):
                rc = self.cli.main(["report", "--data", str(corpus.fault_dir),
                                    "--models", str(out.models),
                                    "--out", str(self.work / "fault_reports")])
            if rc != 0:
                failed += 1
            if rc != 2 or FAULT_MESSAGE not in out_err.getvalue():
                print(f"note: the known-fault report exited {rc}: "
                      f"{out_err.getvalue().strip()}", file=sys.stderr)
        return times, attempted, failed, problems


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def outputs_of(bench: Bench) -> checks.Outputs:
    """Output locations of a round; the known-fault report writes elsewhere."""
    out = checks.Outputs(bench.work / "out")
    out.reports.mkdir(parents=True, exist_ok=True)
    return out


def run_workload(bench: Bench, args, import_time: Timing) -> dict:
    """Set up, run whole rounds for ``args.seconds``, check; return the result line."""
    tracer = bench.tracer
    setups = []
    for i in range(SETUPS):
        if tracer:
            tracer.run = f"{args.workload}/seed{args.seed}/setup{i}"
            tracer.install()
        try:
            corpus, timing = timed(
                lambda: corpora.build(args.workload, args.seed, bench.work / "corpus"))
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(timing)
    out = outputs_of(bench)

    attempted = failed = 0
    problems: list[str] = []
    rounds: list[tuple[bool, dict[str, Timing]]] = []
    reference = None
    t_start = perf_counter()
    while True:
        traced = bool(tracer) and len(rounds) % 2 == 1
        if traced:
            tracer.run = f"{args.workload}/seed{args.seed}/round{len(rounds)}"
        times, n, k, bad = bench.round(corpus, out, traced)
        rounds.append((traced, times))
        print(f"round {len(rounds)}{' (traced)' if traced else ''}, wall/reference s: "
              + " ".join(f"{c} {t.wall:.3f}/{t.ref:.3f}" for c, t in times.items()))
        attempted, failed, problems = attempted + n, failed + k, problems + bad
        found = digests(out.root)
        if reference is None:
            reference = found
            for path, digest in found.items():
                print(f"sha256 {digest} {args.workload}/{path}")
        elif found != reference:
            problems.append(f"round {len(rounds)} wrote other bytes than round 1")
        if perf_counter() - t_start >= args.seconds and (not tracer or len(rounds) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    drives = checks.analyse_fleet(corpus.data_dir)
    try:
        figures = checks.check_round(out, drives, bench.work, corpus.fuel_gate)
    except checks.CheckError as exc:
        problems.append(f"check failed: {exc}")
        figures = {"windows_kept": sum(len(d.starts) for d in drives)}
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{figures['windows_kept']} windows kept; checks: {figures}")

    def median_of(of_round, traced_rounds=False) -> float:
        return statistics.median(of_round(t) for traced, t in rounds
                                 if traced == traced_rounds)

    print("wall-time medians, s: " + " ".join(
        f"{c} {median_of(lambda t, c=c: t[c].wall):.3f}" for c in COMMANDS))
    if tracer:
        untraced = median_of(lambda t: sum(x.ref for x in t.values()))
        overhead = median_of(lambda t: sum(x.ref for x in t.values()), True) - untraced
        traced_count = sum(1 for traced, _ in rounds if traced)
        values = tracing.summarize(tracer.spans, traced_count, SETUPS)
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / untraced
        tracer.write(bench.work.parent / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        kept = figures["windows_kept"]
        values = {"setup_s": import_time.ref + statistics.median(s.ref for s in setups)}
        for command in COMMANDS:
            values[f"{command}_s"] = median_of(lambda t, c=command: t[c].ref)
        values["windows_per_s"] = median_of(
            lambda t: kept * len(ANALYSIS) / sum(t[c].ref for c in ANALYSIS))
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_digests(bench: Bench, seed: int) -> int:
    """One untimed, checked round per workload; print the sha256 of every output."""
    ok = True
    for workload in corpora.WORKLOADS:
        corpus = corpora.build(workload, seed, bench.work / "corpus")
        out = outputs_of(bench)
        _, _, _, problems = bench.round(corpus, out)
        try:
            checks.check_round(out, checks.analyse_fleet(corpus.data_dir), bench.work,
                               corpus.fuel_gate)
        except checks.CheckError as exc:
            problems.append(str(exc))
        for p in problems:
            print(f"problem: {workload}: {p}", file=sys.stderr)
        ok &= not problems
        for path, digest in digests(out.root).items():
            print(f"{digest}  {workload}/{path}")
        shutil.rmtree(out.root)
    return 0 if ok else 1


def _scale_first_vr(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[3] = f"{float(cells[3]) * 1.01:.6g}"    # driver_id,window_count,fuel,vr,...
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_middle_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_text("".join(lines), encoding="utf-8")


def run_self_test(bench: Bench) -> int:
    """Each planted fault must be rejected, and the unchanged outputs accepted."""
    corpus = corpora.build("fleet_scan", 1, bench.work / "corpus")
    out = outputs_of(bench)
    _, _, failed, problems = bench.round(corpus, out)
    if failed:
        print(f"self-test: the round failed: {problems}", file=sys.stderr)
        return 1
    drives = checks.analyse_fleet(corpus.data_dir)
    checks.check_round(out, drives, bench.work)
    print("self-test: unchanged outputs pass every check")
    mutations = (("VR of one driver scaled by 1%", "reports/driver_summary.csv", _scale_first_vr),
                 ("one advice event dropped", "reports/advice_events.txt", _drop_middle_line),
                 ("one classes.csv row deleted", "classes.csv", _drop_middle_line))
    ok = True
    for what, rel, mutate in mutations:
        copy = bench.work / "mutated"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out.root, copy)
        mutate(copy / rel)
        try:
            checks.check_round(checks.Outputs(copy), drives, bench.work)
        except checks.CheckError as exc:
            print(f"self-test: {what}: rejected ({exc})")
        else:
            print(f"self-test: {what}: NOT rejected", file=sys.stderr)
            ok = False
    return 0 if ok else 1
