"""CLI subcommands, exit codes and artifact layout."""

import contextlib
import csv
import ctypes
import hashlib
import importlib
import inspect
import io
import json
import logging
import os
import pkgutil
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ecoride
from ecoride import advisor, cli, comfort, features, pipeline, som, synthgen, telemetry
from ecoride.features import AUX_FEATURES, MAIN_FEATURES


REPORT_DIGESTS = Path(__file__).parent / "data" / "report_seed42_120s.sha256"
LABEL_DIGESTS = Path(__file__).parent / "data" / "train_seed42_120s_labels.sha256"
QUICKSTART_DIGESTS = Path(__file__).parent / "data" / "quickstart_seed42_120s.sha256"


def run(argv):
    return cli.main(argv)


def ecoride_command():
    """The command that starts ``ecoride`` in a fresh process: the executable
    ``ECORIDE_EXE`` names, such as the installed console script, if set, else
    ``python -m ecoride.cli``."""
    exe = os.environ.get("ECORIDE_EXE")
    if exe is not None and not (os.path.isfile(exe) and os.access(exe, os.X_OK)):
        raise RuntimeError(f"ECORIDE_EXE={exe} is not an executable file")
    return [sys.executable, "-m", "ecoride.cli"] if exe is None else [exe]


def run_cli(argv):
    """(exit code, stdout, stderr) of ``ecoride argv``: ``cli.main`` in this
    process, or with ``ECORIDE_EXE`` set, that executable in the current
    directory.  The ``console`` tests run through it, and compare exit codes
    with the documented numbers, not with ``cli``'s constants, which a wrong
    constant would move with them."""
    if "ECORIDE_EXE" in os.environ:
        done = subprocess.run([*ecoride_command(), *argv], capture_output=True, text=True,
                              timeout=300)
        return done.returncode, done.stdout, done.stderr
    out, err = io.StringIO(), io.StringIO()
    # a fresh process has no log handler: logging's last resort prints warnings bare
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logging.getLogger().addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        logging.getLogger().removeHandler(handler)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Synthesized corpus + trained models shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    models = root / "models"
    data.mkdir()
    assert run(["synth", "--out", str(data), "--seed", "42",
                "--duration", "120"]) == 0
    assert run(["train", "--data", str(data), "--out", str(models),
                "--seed", "5"]) == 0
    return root, data, models


@pytest.fixture(scope="session")
def bad_cell_data(workspace):
    """A data directory whose one CSV, the workspace's first, has an XACC
    cell past its bound on line 11: a command that reads it exits 2."""
    root, data, _ = workspace
    rows = [line.split(",") for line in (data / "c0_f0.csv").read_text().splitlines()]
    rows[10][rows[0].index("XACC")] = "1e5"
    (root / "bad").mkdir()
    (root / "bad" / "c0_f0.csv").write_text("".join(",".join(row) + "\n" for row in rows))
    return root / "bad"


def copy_with_column(src_dir, dst_dir, column, value, names=None):
    """Copy the CSVs of ``src_dir`` to ``dst_dir``, setting every cell of
    ``column`` to ``value`` in the files named in ``names`` (all if None)."""
    dst_dir.mkdir()
    for src in sorted(src_dir.glob("*.csv")):
        lines = src.read_text().splitlines()
        if names is None or src.name in names:
            col = lines[0].split(",").index(column)
            for i in range(1, len(lines)):
                fields = lines[i].split(",")
                fields[col] = value
                lines[i] = ",".join(fields)
        (dst_dir / src.name).write_text("\n".join(lines) + "\n")


# Cells no read column accepts: one of them in turn in each unread column.
GARBAGE = ("nan", "junk", "", "1e308")


def garble_unread(rows):
    """``rows`` (header first) with every cell of the columns that ``synth``
    writes and no command reads replaced by one of ``GARBAGE`` in turn."""
    cols = [rows[0].index(name) for name in synthgen.CHANNELS if name not in telemetry.CHANNELS]
    return [rows[0], *([GARBAGE[(i + j) % len(GARBAGE)] if j in cols else cell
                        for j, cell in enumerate(row)] for i, row in enumerate(rows[1:]))]


DATA_COMMANDS = ("train", "classify", "advise", "report", "correlate")
MODEL_COMMANDS = ("classify", "advise", "report")


def checkout_env():
    """This process's environment, with the ``ecoride`` under test first on
    ``PYTHONPATH``, for a fresh Python process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(ecoride.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


def analysis_argv(command, data, models, out):
    argv = [command, "--data", str(data), "--out", str(out)]
    if command in MODEL_COMMANDS:
        argv += ["--models", str(models)]
    return argv


class TestExitCodes:
    def test_run_cli_runs_main_or_the_named_executable(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ECORIDE_EXE", raising=False)
        code, out, err = run_cli(["--help"])
        assert (code, out.startswith("usage: ecoride "), err) == (0, True, "")
        missing = tmp_path / "missing"
        monkeypatch.setenv("ECORIDE_EXE", str(missing))  # never a fall back to cli.main
        with pytest.raises(RuntimeError, match=re.escape(f"ECORIDE_EXE={missing} is not")):
            run_cli(["--help"])

    def test_usage_errors(self, capsys):
        assert run([]) == cli.EXIT_USAGE
        assert run(["bogus"]) == cli.EXIT_USAGE
        assert run(["train", "--data", "x"]) == cli.EXIT_USAGE  # missing --out
        capsys.readouterr()

    def test_data_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert run(["train", "--data", str(missing),
                    "--out", str(tmp_path)]) == cli.EXIT_DATA
        assert run(["synth", "--out", str(missing)]) == cli.EXIT_DATA
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["correlate", "--data", str(empty),
                    "--out", str(tmp_path / "c.csv")]) == cli.EXIT_DATA
        capsys.readouterr()

    def test_data_error_is_the_only_exception_class(self):
        modules = [ecoride, *(importlib.import_module(f"ecoride.{m.name}")
                              for m in pkgutil.iter_modules(ecoride.__path__))]
        defined = [f"{m.__name__}.{name}" for m in modules
                   for name, obj in vars(m).items()
                   if inspect.isclass(obj) and issubclass(obj, Exception)
                   and obj.__module__ == m.__name__]
        assert defined == ["ecoride.DataError"]

    @pytest.mark.parametrize("command, flag", [
        *((command, "--config") for command in cli.COMMANDS),
        *((command, "--seed") for command in ("classify", "advise", "report", "correlate")),
        ("synth", "--drivers"),
    ])
    def test_removed_option_is_a_usage_error(self, tmp_path, capsys, command, flag):
        # the paper's method constants are not options; neither is a seed of
        # a command that draws no random number
        out = tmp_path / "out"
        argv = [command, flag, "5", "--out", str(out)]
        if command != "synth":
            argv += ["--data", str(tmp_path)]
        if command in ("classify", "advise", "report"):
            argv += ["--models", str(tmp_path)]
        assert run(argv) == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_train_seed_fails_before_reading_data(self, tmp_path, capsys):
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / "x.csv").write_text("no,time,column\n")  # reading it fails otherwise
        out = tmp_path / "models"
        assert run(["train", "--data", str(bad_data), "--out", str(out),
                    "--seed", "-1"]) == cli.EXIT_DATA
        assert capsys.readouterr().err == "ecoride: error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.console
    @pytest.mark.parametrize("fault,message", [
        pytest.param("nan_xacc", "non-finite XACC value at line 6 in ", id="nan_xacc"),
        pytest.param("xacc_bound", "XACC value 100000 outside [-50, 50] at line 6 in ",
                     id="xacc_bound"),
        pytest.param("inf_time", "non-finite timestamp at line 8 in ", id="inf_time"),
        pytest.param("swapped_rows", "non-monotonic timestamps at line 12 in ",
                     id="swapped_rows"),
        pytest.param("one_row", "need at least 2 data rows, got 1 in ", id="one_row"),
        pytest.param("missing_column", "missing required column 'XACC' in ",
                     id="missing_column"),
        pytest.param("negative_vs", "VS value -3 outside [0, 400] at line 10 in ",
                     id="negative_vs"),
        pytest.param("bad_utf8", "non-UTF-8 byte 0xff at line 6 in ", id="bad_utf8"),
        # logged in milliseconds: the median step, checked before the span
        pytest.param("ms_time", "median time step 31.25 s exceeds 1 s in ", id="ms_time"),
        # every 32nd row: a 1 Hz log, under the sample-rate floor
        pytest.param("coarse_log", "median time step 1.0 s exceeds 0.0625 s, "
                                   "the 16 Hz sample-rate floor, in ", id="coarse_log"),
        # data rows 0, 2 and 4 of every 34: steps of 1/16, 1/16 and 15/16 s keep
        # the median step at 1/16 s, and the mean step is about 0.35 s
        pytest.param("gappy_log", "mean time step 0.35244082840236685 s exceeds 0.0625 s, "
                                  "the 16 Hz sample-rate floor, in ", id="gappy_log"),
        pytest.param("day_span", "time span 1000000.0 s exceeds 86400 s (one day) "
                                 "at line 3841 in ", id="day_span"),
        # a second VS column of zeros, placed first, would be the one read
        pytest.param("dup_column", "column 'VS' appears 2 times in the header at line 1 in ",
                     id="dup_column"),
    ])
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_bad_csv_fails_naming_file_and_row(self, workspace, tmp_path, fault, message,
                                               command):
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        header = lines[0].split(",")
        if fault in ("nan_xacc", "xacc_bound"):
            fields = lines[5].split(",")
            fields[header.index("XACC")] = "nan" if fault == "nan_xacc" else "1e5"
            lines[5] = ",".join(fields)
        elif fault == "inf_time":
            fields = lines[7].split(",")
            fields[header.index("t")] = "inf"
            lines[7] = ",".join(fields)
        elif fault == "swapped_rows":
            lines[10], lines[11] = lines[11], lines[10]
        elif fault == "one_row":
            lines = lines[:2]
        elif fault == "negative_vs":
            fields = lines[9].split(",")
            fields[header.index("VS")] = "-3"
            lines[9] = ",".join(fields)
        elif fault == "bad_utf8":  # one 0xff byte on line 6, written as is
            lines[5] = lines[5].replace(",", ",\udcff", 1)
        elif fault == "ms_time":
            for i in range(1, len(lines)):
                t, rest = lines[i].split(",", 1)
                lines[i] = f"{float(t) * 1000:.3f},{rest}"
        elif fault == "coarse_log":
            lines = [lines[0], *lines[1::32]]
        elif fault == "gappy_log":
            lines = [lines[0], *(line for i, line in enumerate(lines[1:]) if i % 34 in (0, 2, 4))]
        elif fault == "day_span":  # one wild last timestamp
            lines[-1] = "1e6" + lines[-1][lines[-1].index(","):]
        elif fault == "dup_column":
            lines = ["VS," + lines[0], *("0," + line for line in lines[1:])]
        else:
            lines[0] = lines[0].replace("XACC", "XACC_OLD")
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / src.name).write_text("\n".join(lines) + "\n", encoding="utf-8",
                                         errors="surrogateescape")
        out = tmp_path / "out"
        code, _, err = run_cli(analysis_argv(command, bad_data, models, out))
        tail = ": is the time column in seconds?" if fault == "ms_time" else ""
        assert (code, err) == (2, f"ecoride: error: {message}{bad_data / src.name}{tail}\n")
        assert not out.exists()

    @pytest.mark.parametrize("column, cell, message", [
        *((name, "nan", "non-finite " + ("timestamp" if name == telemetry.TIME_COLUMN
                                         else f"{name} value"))
          for name in (telemetry.TIME_COLUMN, *telemetry.CHANNELS)),
        *((name, f"{lo - 1:g}", f"{name} value {lo - 1:g} outside [{lo:g}, {hi:g}]")
          for name, (lo, hi) in telemetry.BOUNDS.items()),
        *((name, f"{2 * hi:g}", f"{name} value {2 * hi:g} outside [{lo:g}, {hi:g}]")
          for name, (lo, hi) in telemetry.BOUNDS.items()),
        # past the bound, but its bound's text at %g: the value is given in full
        ("FUEL", "1000000.5", "FUEL value 1000000.5 outside [0, 1e+06]"),
        ("VS", "400.0000001", "VS value 400.0000001 outside [0, 400]"),
    ])
    def test_read_fault_among_unread_garbage_fails(self, workspace, tmp_path, capsys,
                                                   column, cell, message):
        # garbage in the unread columns neither hides a fault in a read one
        # nor is reported in its place
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        rows = garble_unread([line.split(",") for line in src.read_text().splitlines()])
        rows[20][rows[0].index(column)] = cell
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / src.name).write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "classes.csv"
        assert run(["classify", "--data", str(bad_data), "--models", str(models),
                    "--out", str(out)]) == cli.EXIT_DATA
        assert f"{message} at line 21 in {bad_data / src.name}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize("fault", ["missing", "empty"])
    def test_missing_data_fails_before_any_output(self, workspace, tmp_path, capsys,
                                                  fault, command):
        _, _, models = workspace
        data = tmp_path / "data"
        if fault == "empty":
            data.mkdir()
            (data / "notes.txt").write_text("not telemetry\n")
        out = tmp_path / "out"
        assert run(analysis_argv(command, data, models, out)) == cli.EXIT_DATA
        message = ("data directory not found: " if fault == "missing"
                   else "no telemetry CSV files in ")
        assert capsys.readouterr().err == f"ecoride: error: {message}{data}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("name", ["main_som.json", "aux_som.json"])
    def test_missing_model_file_fails_before_any_output(self, workspace, tmp_path,
                                                        capsys, name, command):
        _, data, models = workspace
        bad = tmp_path / "models"
        shutil.copytree(models, bad)
        (bad / name).unlink()
        out = tmp_path / "out"
        assert run(analysis_argv(command, data, bad, out)) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"ecoride: error: model file not found: {bad / name}\n"
        assert not out.exists()

    @pytest.mark.console
    @pytest.mark.parametrize("command, kind", [
        ("classify", "no_parent"), ("classify", "directory"),
        ("correlate", "no_parent"), ("correlate", "directory"),
        ("train", "file"), ("advise", "file"), ("report", "file"),
    ])
    def test_bad_out_fails_before_any_telemetry_is_read(self, workspace, bad_cell_data, tmp_path,
                                                        command, kind):
        # the --out message alone: the bad cell in bad_cell_data is never reached
        _, _, models = workspace
        if kind == "no_parent":
            out = tmp_path / "missing" / "out.csv"
            message = f"--out {out}: directory {out.parent} not found"
        elif kind == "directory":
            out = tmp_path / "out.csv"
            out.mkdir()
            message = f"--out {out} is a directory, not a CSV file path"
        else:
            out = tmp_path / "out"
            out.write_text("kept\n")
            message = f"--out {out} exists and is not a directory"
        code, _, err = run_cli(analysis_argv(command, bad_cell_data, models, out))
        assert (code, err) == (2, f"ecoride: error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if kind == "no_parent"
                                                              else [out.name])
        if kind == "file":
            assert out.read_text() == "kept\n"

    @pytest.mark.console
    @pytest.mark.parametrize("command, name", [
        ("classify", "classes.csv"), ("correlate", "correlations.csv"),
        ("advise", None), ("report", None),
    ])
    def test_csv_output_into_the_data_directory_fails(self, workspace, tmp_path, monkeypatch,
                                                      command, name):
        # those files would be read as telemetry by the next command on --data
        _, corpus, models = workspace
        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        monkeypatch.chdir(data)
        listing = sorted(p.name for p in data.iterdir())
        out = Path(name) if name else Path(".")
        code, _, err = run_cli(analysis_argv(command, str(data), models, out))
        message = (f"--out {name} lies in the data directory {data}; a CSV file "
                   "there would be read as telemetry" if name else
                   f"--out . resolves to the data directory {data}; CSV files "
                   "there would be read as telemetry")
        assert (code, err) == (2, f"ecoride: error: {message}\n")
        assert sorted(p.name for p in data.iterdir()) == listing

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_overflowing_window_fails_before_any_output(self, workspace, tmp_path,
                                                        capsys, command):
        # a finite cell whose square overflows, in every window holding it,
        # is past SWA's bound: the file fails at load, before any window
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        fields = lines[1000].split(",")
        fields[lines[0].split(",").index("SWA")] = "1e200"
        lines[1000] = ",".join(fields)
        big_data = tmp_path / "data"
        big_data.mkdir()
        (big_data / src.name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(analysis_argv(command, big_data, models, out)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert (f"SWA value 1e+200 outside [-3600, 3600] at line 1001 in {big_data / src.name}"
                in err)
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_overflowing_fuel_fails_before_any_output(self, workspace, tmp_path,
                                                      capsys, command):
        # FUEL at 1e308 over samples 1024 to 1279, whose window sums would
        # overflow, is past FUEL's bound: the file fails at load, also for
        # classify, which reads no fuel
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        col = lines[0].split(",").index("FUEL")
        for i in range(1025, 1281):
            fields = lines[i].split(",")
            fields[col] = "1e308"
            lines[i] = ",".join(fields)
        big_data = tmp_path / "data"
        big_data.mkdir()
        (big_data / src.name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(analysis_argv(command, big_data, models, out)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert (f"FUEL value 1e+308 outside [0, 1e+06] at line 1026 in {big_data / src.name}"
                in err)
        assert not out.exists()

    @pytest.mark.console
    def test_over_long_cell_fails_naming_file_and_line(self, workspace, tmp_path):
        # a quoted 140,000-character note on line 21 of a 40-row drive is over
        # csv.reader's cell limit: exit 2 and one message, not a traceback
        _, data, _ = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()[:41]
        note = '"' + "x" * 140_000 + '"'
        long_data = tmp_path / "data"
        long_data.mkdir()
        (long_data / src.name).write_text("".join(
            f"{line},{'notes' if i == 1 else note if i == 21 else 'ok'}\n"
            for i, line in enumerate(lines, 1)))
        out = tmp_path / "c.csv"
        done = subprocess.run([*ecoride_command(),
                               *analysis_argv("correlate", long_data, None, out)],
                              capture_output=True, text=True, env=checkout_env(), timeout=300)
        assert (done.returncode, done.stderr) == (2, (
            "ecoride: error: field larger than field limit (131072) "
            f"at line 21 in {long_data / src.name}\n"))
        assert not out.exists()

    # buffered, the write fails at main's flush; unbuffered, at a print
    @pytest.mark.console
    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_is_not_a_data_error(self, workspace, tmp_path, buffered):
        # stdout a pipe whose reader has gone, as in `ecoride classify ... | true`:
        # the exit status a shell shows for SIGPIPE, nothing on stderr, and the
        # output file of a normal run
        _, data, models = workspace
        env = checkout_env()
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        out, want = tmp_path / "classes.csv", tmp_path / "want.csv"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([*ecoride_command(),
                                   *analysis_argv("classify", data, models, out)],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=env, timeout=300)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr.decode()) == (141, "")
        assert run_cli(analysis_argv("classify", data, models, want))[0] == 0
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.console
    @pytest.mark.parametrize("case", ["unread_cells", "unit_separator"])
    def test_cells_classify_does_not_take_leave_it_running(self, workspace, reference_outputs,
                                                           tmp_path, case):
        # unread_cells: nan in every ZACC cell, junk in every GP cell and a last column
        # of words, all lines LF-ended, none read: the untouched run's bytes.  unit_separator:
        # a \x1f byte before line 11's XACC cell, which float() does not take (np.loadtxt
        # would strip it): that row is rejected and logged with its line
        _, data, models = workspace
        edited = tmp_path / "data"
        shutil.copytree(data, edited)
        rows = [line.split(",") for line in (data / "c0_f0.csv").read_text().splitlines()]
        if case == "unread_cells":
            z, g = rows[0].index("ZACC"), rows[0].index("GP")
            rows = [[*rows[0], "notes"], *([*("nan" if j == z else "junk" if j == g else cell
                                              for j, cell in enumerate(row)), "ok"]
                                           for row in rows[1:])]
        else:
            x = rows[0].index("XACC")
            rows[10][x] = "\x1f" + rows[10][x]
        (edited / "c0_f0.csv").write_text("".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "classes.csv"
        code, _, err = run_cli(analysis_argv("classify", edited, models, out))
        if case == "unread_cells":
            assert (code, err, out.read_bytes()) == (0, "", reference_outputs["classes.csv"])
        else:
            assert (code, err) == (0, f"rejecting unparseable line 11 in {edited / 'c0_f0.csv'}\n")


class TestIngestion:
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_one_drive_in_memory_at_a_time(self, workspace, tmp_path, capsys,
                                           monkeypatch, command):
        # peak memory is bounded by one drive, not by the fleet's drive time
        _, data, models = workspace
        built = []
        resample = telemetry.resample

        def tracked(channels, driver_id=""):
            alive = [ref().driver_id for ref in built if ref() is not None]
            assert not alive, f"{alive} still held while {driver_id} is built"
            record = resample(channels, driver_id=driver_id)
            built.append(weakref.ref(record))
            return record
        monkeypatch.setattr(telemetry, "resample", tracked)
        assert run(analysis_argv(command, data, models, tmp_path / "out")) == 0
        capsys.readouterr()
        assert len(built) == len(list(data.glob("*.csv")))

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_only_the_columns_a_command_reads_are_computed(self, workspace, tmp_path, capsys,
                                                           monkeypatch, command):
        # the maps read the RMS of 5 signals; classify runs no comfort metric
        # (its fuel is a plain window mean), and only correlate computes the
        # variances and the RMS of VS and XACC
        _, data, models = workspace
        computed = set()

        def spied(fn):
            def wrapper(*args):
                table = fn(*args)
                computed.update(table)
                return table
            return wrapper
        monkeypatch.setattr(features, "compute_features", spied(features.compute_features))
        monkeypatch.setattr(comfort, "window_metrics", spied(comfort.window_metrics))
        assert run(analysis_argv(command, data, models, tmp_path / "out")) == 0
        capsys.readouterr()
        maps = {f"{name} RMS" for name in ("SWA", "XACC_neg", "XACC_pos", "YACC", "ERPM")}
        want = {"classify": maps, "correlate": set(pipeline.COLUMNS)}.get(
            command, maps | {"msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel"})
        assert computed == want


class TestSynth:
    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be an integer >= 0, got -1"),
        ("--duration", "nan", "duration must be finite and at least 16 s, got nan"),
        ("--duration", "inf", "duration must be finite and at least 16 s, got inf"),
        ("--duration", "15", "duration must be finite and at least 16 s, got 15.0"),
        ("--duration", "86401", "duration must be at most 86400 s, got 86401.0"),
        ("--duration", "1e12", "duration must be at most 86400 s, got 1000000000000.0"),
    ])
    def test_bad_seed_or_duration(self, tmp_path, capsys, flag, value, message):
        assert run(["synth", "--out", str(tmp_path), flag, value]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"ecoride: error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            assert run(["synth", "--out", str(d), "--seed", "7",
                        "--duration", "60"]) == 0
        capsys.readouterr()
        for pa in sorted(a.glob("*.csv")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_writes_the_style_grid(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path), "--duration", "16"]) == 0
        capsys.readouterr()
        want = [f"{label}.csv" for label, _ in synthgen.style_grid()]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)


class TestTrain:
    def test_artifacts(self, workspace, capsys):
        _, _, models = workspace
        assert (models / "main_som.json").is_file()
        assert (models / "aux_som.json").is_file()
        capsys.readouterr()

    def test_deterministic_model_files(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        again = tmp_path / "models2"
        assert run(["train", "--data", str(data), "--out", str(again),
                    "--seed", "5"]) == 0
        capsys.readouterr()
        for name in ("main_som.json", "aux_som.json"):
            assert (models / name).read_bytes() == (again / name).read_bytes()

    def test_labels_are_pinned(self, workspace):
        """On the quick-start corpus each model file's ``[assignment, labels]``
        has the committed sha256 (of its ``json.dumps``, by file name).  Unlike
        the prototypes' last bits, these do not follow the CPU's exp code path;
        CI checks the same sums for the console script."""
        _, _, models = workspace
        found = ""
        for name in ("main_som.json", "aux_som.json"):
            model = json.loads((models / name).read_text())
            pair = json.dumps([model["assignment"], model["labels"]]).encode()
            found += f"{hashlib.sha256(pair).hexdigest()}  {name}\n"
        assert found == LABEL_DIGESTS.read_text()

    def test_profile_tables_match_a_recomputation(self, workspace, tmp_path, capsys):
        # BMU -> cluster -> member averages worked out here from the model
        # files and the fleet columns, in Low/Medium/High order at .4g
        _, data, _ = workspace
        out = tmp_path / "m"
        assert run(["train", "--data", str(data), "--out", str(out), "--seed", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()
        records = [telemetry.resample(telemetry.load_csv(p), driver_id=p.stem)
                   for p in sorted(data.glob("*.csv"))]
        fleet = pipeline.analyze_fleet(records)
        metrics = ("msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel")
        for tag, name in (("main", "main_som.json"), ("aux", "aux_som.json")):
            model = json.loads((out / name).read_text())
            x = np.column_stack([fleet[f"{n} RMS"] for n in model["feature_names"]])
            z = (x - np.array(model["normalizer_mean"])) / np.array(model["normalizer_std"])
            d2 = ((z[:, None, :] - np.array(model["prototypes"])[None, :, :]) ** 2).sum(axis=2)
            cluster = np.array(model["assignment"])[d2.argmin(axis=1)]
            expected = [f"{tag} cluster profiles:",
                        "  label   windows  " + "  ".join(f"{m:>8}" for m in metrics)]
            counts = []
            for label in ("Low", "Medium", "High"):
                members = cluster == model["labels"].index(label)
                counts.append(int(members.sum()))
                row = "  ".join(f"{fleet[m][members].mean():8.4g}" for m in metrics)
                expected.append(f"  {label:<7} {counts[-1]:7d}  {row}")
            start = printed.index(f"{tag} cluster profiles:")
            assert printed[start:start + 5] == expected
            assert sum(counts) == len(fleet["vr"])


class TestClassify:
    def test_output_csv(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        out = tmp_path / "cls.csv"
        assert run(["classify", "--data", str(data), "--models", str(models),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "driver_id,window_start,comfort,fuel"
        assert len(lines) > 9
        labels = {"Low", "Medium", "High"}
        for line in lines[1:]:
            _, _, comfort, fuel = line.split(",")
            assert comfort in labels and fuel in labels

    @pytest.mark.parametrize("field, spoil", [
        ("assignment", lambda m: m.pop("assignment")),
        ("prototypes", lambda m: m["prototypes"].pop()),
        ("prototypes", lambda m: m["prototypes"][0].pop()),
        ("normalizer_mean", lambda m: m["normalizer_mean"].pop()),
        ("normalizer_std", lambda m: m["normalizer_std"].append(1.0)),
        ("prototypes", lambda m: m["prototypes"][7].__setitem__(0, float("nan"))),
        ("normalizer_mean", lambda m: m["normalizer_mean"].__setitem__(0, float("inf"))),
        ("normalizer_std", lambda m: m["normalizer_std"].__setitem__(1, float("nan"))),
        ("normalizer_std", lambda m: m["normalizer_std"].__setitem__(0, 0.0)),
        ("assignment", lambda m: m["assignment"].pop()),
        ("assignment", lambda m: m["assignment"].__setitem__(4, 3)),
        ("assignment", lambda m: m["assignment"].__setitem__(4, -1)),
        ("labels", lambda m: m["labels"].__setitem__(0, "Bogus")),
        ("labels", lambda m: m.__setitem__("labels", ["Low", "Low", "High"])),
        ("cluster_count", lambda m: m.__setitem__("cluster_count", 4)),
        ("feature_names", lambda m: m["feature_names"].__setitem__(0, "BOGUS")),
        # values that a numeric cast would quietly truncate or parse
        ("assignment", lambda m: m["assignment"].__setitem__(0, 0.5)),
        ("assignment", lambda m: m.__setitem__("assignment",
                                               [a + 0.9 for a in m["assignment"]])),
        ("assignment", lambda m: m["assignment"].__setitem__(0, str(m["assignment"][0]))),
        ("assignment", lambda m: m["assignment"].__setitem__(0, True)),
        ("assignment", lambda m: m["assignment"].__setitem__(0, 10**30)),  # overflows int64
        ("prototypes", lambda m: m["prototypes"][3].__setitem__(1, "0.25")),
        ("prototypes", lambda m: m["prototypes"][0].__setitem__(0, False)),
        ("normalizer_mean", lambda m: m.__setitem__("normalizer_mean",
                                                    [str(v) for v in m["normalizer_mean"]])),
        ("normalizer_std", lambda m: m["normalizer_std"].__setitem__(0, True)),
        ("rows", lambda m: m.__setitem__("rows", True)),
        ("cols", lambda m: m.__setitem__("cols", True)),
    ])
    @pytest.mark.console
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_corrupt_model_file(self, workspace, tmp_path, field, spoil, command):
        _, data, models = workspace
        bad = tmp_path / "models"
        shutil.copytree(models, bad)
        path = bad / "main_som.json"
        model = json.loads(path.read_text())
        spoil(model)
        path.write_text(json.dumps(model))
        out = tmp_path / "out"
        code, _, err = run_cli(analysis_argv(command, data, bad, out))
        assert code == 2 and err.startswith(f"ecoride: error: model file {path}: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("spoil", [
        lambda m: m.__setitem__("prototypes", [[v * 1e200 for v in row]
                                               for row in m["prototypes"]]),
        lambda m: m["normalizer_mean"].__setitem__(0, 1e200),
        lambda m: m["normalizer_std"].__setitem__(0, 1e-320),
    ], ids=["prototypes", "normalizer_mean", "normalizer_std"])
    @pytest.mark.console
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_overflowing_model_file(self, workspace, tmp_path, spoil, command):
        # every value passes the model-file checks, but every distance of the
        # search overflows: argmin would hand neuron 0 every window
        _, data, models = workspace
        bad = tmp_path / "models"
        shutil.copytree(models, bad)
        path = bad / "main_som.json"
        model = json.loads(path.read_text())
        spoil(model)
        path.write_text(json.dumps(model))
        out = tmp_path / "out"
        code, _, err = run_cli(analysis_argv(command, data, bad, out))
        assert (code, err) == (2, "ecoride: error: main map: no finite distance to any "
                                  "prototype at sample row 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("name", ["main_som.json", "aux_som.json"])
    def test_non_utf8_model_file(self, workspace, tmp_path, capsys, name, command):
        _, data, models = workspace
        bad = tmp_path / "models"
        shutil.copytree(models, bad)
        path = bad / name
        path.write_bytes(path.read_bytes() + b"\xff")
        out = tmp_path / "out"
        assert run(analysis_argv(command, data, bad, out)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"ecoride: error: model file {path}: " in err and "0xff" in err
        assert not out.exists()

    @pytest.mark.console
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("swap", ["aux_as_main", "main_as_aux", "both"])
    def test_swapped_model_files(self, workspace, bad_cell_data, tmp_path, swap, command):
        # a map file in the other map's place would fill the other label column;
        # the model files are checked before bad_cell_data's bad cell is reached
        _, _, models = workspace
        main, aux = "main_som.json", "aux_som.json"
        bad = tmp_path / "models"
        bad.mkdir()
        copies = {"aux_as_main": {main: aux, aux: aux}, "main_as_aux": {main: main, aux: main},
                  "both": {main: aux, aux: main}}[swap]
        for name, source in copies.items():
            shutil.copy(models / source, bad / name)
        named, held = (aux, main) if swap == "main_as_aux" else (main, aux)
        features = {main: MAIN_FEATURES, aux: AUX_FEATURES}
        out = tmp_path / "out"
        code, _, err = run_cli(analysis_argv(command, bad_cell_data, bad, out))
        assert (code, err) == (2, f"ecoride: error: model file {bad / named}: feature_names "
                                  f"{list(features[held])}, expected {list(features[named])}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_one_bmu_search_per_map(self, workspace, tmp_path, capsys, monkeypatch,
                                    command):
        _, data, models = workspace
        searched = []
        bmus = som.bmus

        def counted(grid, samples):
            searched.append(len(samples))
            return bmus(grid, samples)
        monkeypatch.setattr(som, "bmus", counted)
        assert run(analysis_argv(command, data, models, tmp_path / "out")) == 0
        capsys.readouterr()
        assert len(searched) == 2 and searched[0] == searched[1] > 9


class TestAdvise:
    def test_reports(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        out = tmp_path / "reports"
        assert run(["advise", "--data", str(data), "--models", str(models),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "advice_events.txt").is_file()
        assert (out / "intersection.csv").is_file()
        for name in ("improvement_main.csv", "improvement_aux.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("current,target")
            assert len(lines) == 4  # 3 better-cluster pairs
        events = (out / "advice_events.txt").read_text().splitlines()
        assert events and all("advice=" in line for line in events)

    def test_each_driver_streams_its_own_advice(self, workspace, tmp_path, capsys,
                                                monkeypatch):
        # every window labelled (Low, Low): each driver's third window (start
        # 256) triggers advice; a run that crossed from one driver into the
        # next would leave every driver after the first silent
        _, data, models = workspace
        classify = advisor.classify_window

        def constant(columns, models):
            labels = classify(columns, models)
            low = np.zeros_like(labels["comfort_label"])
            return {**labels, "comfort_label": low, "fuel_label": low}
        monkeypatch.setattr(advisor, "classify_window", constant)
        out = tmp_path / "reports"
        assert run(["advise", "--data", str(data), "--models", str(models),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        first = {}
        for line in (out / "advice_events.txt").read_text().splitlines():
            driver, event = line.split(" ", 1)
            first.setdefault(driver, event)
        assert sorted(first) == sorted(p.stem for p in data.glob("*.csv"))
        assert all(e.startswith("window_start=256 comfort=L fuel=L ") for e in first.values())

    def test_zero_cluster_average_fails_before_any_output(self, workspace, tmp_path,
                                                          capsys):
        # lateral acceleration logged as 0: msdv_y averages 0 in every cluster
        _, data, models = workspace
        flat = tmp_path / "data"
        copy_with_column(data, flat, "YACC", "0")
        out = tmp_path / "reports"
        assert run(["advise", "--data", str(flat), "--models", str(models),
                    "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.search(r"main map: msdv_y averages 0 in the (Low|Medium|High) cluster", err)
        assert not out.exists()

    @pytest.mark.console
    def test_one_driver_names_the_map_with_an_empty_cluster(self, workspace, tmp_path):
        # one drive fills too few neurons of the fleet's maps for every cluster
        _, data, models = workspace
        one = tmp_path / "data"
        one.mkdir()
        shutil.copy(data / "c0_f0.csv", one)
        out = tmp_path / "reports"
        code, _, err = run_cli(analysis_argv("advise", one, models, out))
        assert code == 2
        assert re.fullmatch(r"ecoride: error: (main|aux) map: cluster \d has no member windows\n",
                            err)
        assert not out.exists()

    @pytest.mark.console
    def test_no_fast_window_names_the_speed_filter(self, workspace, tmp_path):
        # a town drive never reaches 60 km/h: the filter, not a cluster, is named
        _, _, models = workspace
        slow = tmp_path / "data"
        slow.mkdir()
        spec = synthgen.StyleSpec(base_speed=30.0, duration=120.0)
        synthgen.write_csv(synthgen.generate(spec, driver_id="slow"), slow / "slow.csv")
        out = tmp_path / "reports"
        code, _, err = run_cli(analysis_argv("advise", slow, models, out))
        assert (code, err) == (2, f"ecoride: error: no window at or above 60 km/h in {slow}: "
                                  "nothing to advise on\n")
        assert not out.exists()


class TestQuickStart:
    def test_bytes_are_pinned(self, workspace, tmp_path, capsys):
        """On the quick-start corpus ``classify``'s and ``advise``'s files and
        ``train``'s stdout less its last line (the output path), named
        ``train.stdout``, have the committed sha256 sums (``sha256sum``
        format, by file name); CI checks the same sums for the console script."""
        _, data, models = workspace
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "models"),
                    "--seed", "5"]) == 0
        train = "".join(capsys.readouterr().out.splitlines(keepends=True)[:-1])
        reports = tmp_path / "reports"
        assert run(["classify", "--data", str(data), "--models", str(models),
                    "--out", str(tmp_path / "classes.csv")]) == 0
        assert run(["advise", "--data", str(data), "--models", str(models),
                    "--out", str(reports)]) == 0
        capsys.readouterr()
        files = [tmp_path / "classes.csv", *(reports / name for name in (
            "advice_events.txt", "intersection.csv", "improvement_main.csv",
            "improvement_aux.csv"))]
        found = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                        for p in files)
        found += f"{hashlib.sha256(train.encode()).hexdigest()}  train.stdout\n"
        assert found == QUICKSTART_DIGESTS.read_text()


def python_c(code, *args):
    """``python -c code args`` in a fresh process (``checkout_env``): its exit
    code, stdout and stderr."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=checkout_env(), timeout=300)
    return done.returncode, done.stdout, done.stderr


# cli.main in a process where any import of scipy fails
WITHOUT_SCIPY = ("import sys; sys.modules['scipy'] = None; "
                 "from ecoride import cli; sys.exit(cli.main(sys.argv[1:]))")


class TestWithoutScipy:
    """Only filtering and generating import scipy: a command that does
    neither, and every argument or path error, runs with numpy alone."""

    def test_importing_the_cli_loads_no_scipy(self):
        assert python_c("import sys, ecoride.cli, ecoride.comfort, ecoride.synthgen; "
                        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
                        ) == (0, "[]\n", "")

    @pytest.mark.parametrize("case, code", [
        ("help", cli.EXIT_OK), ("usage", cli.EXIT_USAGE), ("no_models", cli.EXIT_DATA),
        ("short_synth", cli.EXIT_DATA), ("classify", cli.EXIT_OK),
    ])
    def test_runs_as_in_process_without_scipy(self, workspace, tmp_path, capsys, monkeypatch,
                                              case, code):
        _, data, models = workspace
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
        out = tmp_path / "classes.csv"
        argv = {"help": ["--help"],
                "usage": ["classify", "--data", str(data)],
                "no_models": analysis_argv("classify", data, tmp_path / "none", out),
                "short_synth": ["synth", "--out", str(tmp_path), "--duration", "5"],
                "classify": analysis_argv("classify", data, models, out)}[case]
        got = python_c(WITHOUT_SCIPY, *argv)
        written = out.read_bytes() if out.exists() else None
        want = run(argv), *capsys.readouterr()
        assert got == want
        assert want[0] == code
        assert written == (out.read_bytes() if case == "classify" else None)


def glibc_version():
    """``os.confstr("CS_GNU_LIBC_VERSION")``, or None where it fails."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


only_on_glibc = pytest.mark.skipif(not (glibc_version() or "").startswith("glibc"),
                                   reason="the thresholds are set on glibc only")


# classify twice through cli.main in a fresh process, whose heap holds no
# test run's history; prints the minor page faults of the second run
FAULTS_OF_A_SECOND_CLASSIFY = """
import contextlib, io, resource, sys
from ecoride import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    """On glibc ``cli.main`` fixes the mmap and trim thresholds high, so a
    second pass over the fleet reuses the pages the first one freed."""

    @only_on_glibc
    def test_a_second_classify_takes_few_page_faults(self, workspace, tmp_path):
        _, data, models = workspace
        argv = analysis_argv("classify", data, models, tmp_path / "classes.csv")
        code, out, err = python_c(FAULTS_OF_A_SECOND_CLASSIFY, *argv)
        assert (code, err) == (0, "")
        assert int(out) < 200  # about 1,600 with glibc's default thresholds

    @only_on_glibc
    def test_both_mallopt_calls_succeed_on_glibc(self, workspace, tmp_path, monkeypatch):
        _, data, models = workspace
        libc, calls = ctypes.CDLL(None), []

        def mallopt(param, value):  # the real one, recording what it returns
            calls.append((param, value, libc.mallopt(param, value)))
            return calls[-1][-1]

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert run_cli(analysis_argv("classify", data, models, tmp_path / "classes.csv"))[0] == 0
        assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20, 1),
                         (cli.M_TRIM_THRESHOLD, 64 << 20, 1)]

    def test_off_glibc_a_command_runs_as_before_without_mallopt(self, workspace, tmp_path,
                                                                 monkeypatch):
        _, data, models = workspace
        want = run_cli(analysis_argv("classify", data, models, tmp_path / "want.csv"))

        def no_such_name(name):
            raise ValueError("unrecognized configuration name")

        def no_mallopt(name):
            raise AssertionError("the C library was opened off glibc")

        monkeypatch.setattr(cli.os, "confstr", no_such_name)
        monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
        got = run_cli(analysis_argv("classify", data, models, tmp_path / "got.csv"))
        assert got == (want[0], want[1].replace("want.csv", "got.csv"), want[2])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


OUTPUT_FILES = ("classes.csv", "advice_events.txt", "intersection.csv",
                "improvement_main.csv", "improvement_aux.csv", "correlations.csv",
                "driver_summary.csv")
REPORT_STDOUT = "report stdout"


class Outputs(dict):
    """A run's outputs by name; the repr names them only, so that a failing
    hypothesis example, whose arguments it prints, stays short."""

    def __repr__(self):
        return f"Outputs({sorted(self)})"


def cli_outputs(data, models, out):
    """The bytes of each of ``OUTPUT_FILES`` and every ``heatmap_*``/``kde_*``
    file from ``classify``, ``advise``, ``report`` and ``correlate`` on
    ``data``, and under ``REPORT_STDOUT`` the lines ``report`` prints before
    the last one, which names ``out``."""
    out.mkdir()
    assert run_cli(analysis_argv("classify", data, models, out / "classes.csv"))[0] == 0
    assert run_cli(analysis_argv("advise", data, models, out))[0] == 0
    code, printed, _ = run_cli(analysis_argv("report", data, models, out))
    assert code == 0
    assert run_cli(analysis_argv("correlate", data, models, out / "correlations.csv"))[0] == 0
    outputs = Outputs((p.name, p.read_bytes())
                      for pattern in ("heatmap_*", "kde_*") for p in out.glob(pattern))
    outputs.update((name, (out / name).read_bytes()) for name in OUTPUT_FILES)
    lines = printed.splitlines(keepends=True)
    assert lines[-1] == f"reports written to {out}\n"
    outputs[REPORT_STDOUT] = "".join(lines[:-1]).encode()
    return outputs


def per_driver_files(outputs):
    """The names of the ``heatmap_*`` and ``kde_*`` files among ``outputs``."""
    return {name for name in outputs if name.startswith(("heatmap_", "kde_"))}


def assert_per_driver_files_renamed(got, want, rename):
    """``got`` holds each per-driver file of ``want``, byte for byte, under
    the name ``rename`` gives it, and no other."""
    renamed = {name: rename(name) for name in per_driver_files(want)}
    assert per_driver_files(got) == set(renamed.values())
    for name, new_name in renamed.items():
        assert got[new_name] == want[name], name


def rewrite_csvs(src_dir, dst_dir, edit_rows, rename=None):
    """Copy the CSVs of ``src_dir`` to ``dst_dir`` as ``edit_rows`` returns
    their rows (lists of cells, header first); ``rename`` maps a file name to
    its new name."""
    dst_dir.mkdir()
    for src in sorted(src_dir.glob("*.csv")):
        rows = edit_rows([line.split(",") for line in src.read_text().splitlines()])
        text = "".join(",".join(row) + "\r\n" for row in rows)
        (dst_dir / (rename or {}).get(src.name, src.name)).write_text(text, newline="")


@pytest.fixture(scope="session")
def reference_outputs(workspace):
    root, data, models = workspace
    return cli_outputs(data, models, root / "reference_outputs")


class TestMetamorphic:
    """Relations between runs on edited copies of the workspace corpus
    (Chen, Cheung & Yiu 1998, "Metamorphic testing")."""

    EXACT = ("classes.csv", "advice_events.txt", "intersection.csv", "driver_summary.csv",
             REPORT_STDOUT)

    @classmethod
    def assert_exact(cls, got, want):
        """``got`` equals ``want`` in ``EXACT`` and the per-driver files, byte
        for byte."""
        assert per_driver_files(got) == per_driver_files(want)
        for name in (*cls.EXACT, *per_driver_files(want)):
            assert got[name] == want[name], name

    @staticmethod
    def outputs_of(workspace, tmp_path_factory, edit_rows, rename=None):
        _, data, models = workspace
        root = tmp_path_factory.mktemp("edited")
        rewrite_csvs(data, root / "data", edit_rows, rename)
        return cli_outputs(root / "data", models, root / "out")

    @settings(max_examples=3, deadline=None)
    @given(offset=st.integers(0, 2 * 10**15).map(lambda us: us / 1e6))
    @example(offset=0.123456)
    @example(offset=11.276852)  # its span parses as 3838.9999999999995 periods
    @example(offset=1000.0)
    @example(offset=1.7e9)  # a Unix epoch time
    def test_time_offset_changes_nothing(self, workspace, reference_outputs,
                                         tmp_path_factory, offset):
        def shift(rows):
            return [rows[0], *([f"{float(row[0]) + offset:.6f}", *row[1:]] for row in rows[1:])]
        # under some offsets (11.276852) shifted times parse one rounding error
        # off their grid times t0 + k/32; resample takes them as they are
        self.assert_exact(self.outputs_of(workspace, tmp_path_factory, shift),
                          reference_outputs)

    @settings(max_examples=4, deadline=None)
    @given(order=st.permutations(range(1 + len(synthgen.CHANNELS))))
    def test_column_order_changes_nothing(self, workspace, reference_outputs,
                                          tmp_path_factory, order):
        self.assert_exact(self.outputs_of(workspace, tmp_path_factory,
                                          lambda rows: [[row[i] for i in order] for row in rows]),
                          reference_outputs)

    @settings(max_examples=4, deadline=None)
    @given(stem=st.text("abcdefghijklmnopqrstuvwxyz0123456789_", max_size=8).map("z".__add__))
    def test_reordered_driver_changes_only_its_id(self, workspace, reference_outputs,
                                                  tmp_path_factory, stem):
        # c0_f0 reads first; as z... it reads last, after every other driver
        got = self.outputs_of(workspace, tmp_path_factory, lambda rows: rows,
                              rename={"c0_f0.csv": f"{stem}.csv"})
        for name in ("intersection.csv", "improvement_main.csv", "improvement_aux.csv"):
            assert got[name] == reference_outputs[name], name
        assert_per_driver_files_renamed(got, reference_outputs,
                                        lambda name: name.replace("_c0_f0.", f"_{stem}."))

        def moved_last(text, prefix):
            lines = text.decode().splitlines(keepends=True)
            own = [line for line in lines if line.startswith(prefix)]
            assert own
            return [line for line in lines if not line.startswith(prefix)] \
                + [stem + line[len(prefix) - 1:] for line in own]
        for name, prefix in (("classes.csv", "c0_f0,"), ("advice_events.txt", "c0_f0 "),
                             (REPORT_STDOUT, "c0_f0:"), ("driver_summary.csv", "c0_f0,")):
            assert got[name].decode().splitlines(keepends=True) \
                == moved_last(reference_outputs[name], prefix), name

    def test_unread_columns_change_nothing(self, workspace, reference_outputs,
                                           tmp_path_factory):
        # PGP, GP, BP and ZACC hold nan, junk, empty cells and 1e308 in turn
        got = self.outputs_of(workspace, tmp_path_factory, garble_unread)
        assert got == reference_outputs

    def test_lf_line_ends_and_trailing_blank_lines_change_nothing(
            self, workspace, reference_outputs, tmp_path):
        _, data, models = workspace
        edited = tmp_path / "data"
        edited.mkdir()
        for src in data.glob("*.csv"):
            (edited / src.name).write_bytes(src.read_bytes().replace(b"\r\n", b"\n") + b"\n\n")
        assert cli_outputs(edited, models, tmp_path / "out") == reference_outputs

    def test_left_right_mirror_changes_nothing(self, workspace, reference_outputs,
                                               tmp_path_factory):
        # SWA and YACC negated cell by cell: every figure that reads them
        # takes a square, an absolute value or a square of a filtered value
        def negate(cell):
            return cell[1:] if cell.startswith("-") else "-" + cell

        def mirror(rows):
            cols = {rows[0].index("SWA"), rows[0].index("YACC")}
            return [rows[0], *([negate(cell) if i in cols else cell
                                for i, cell in enumerate(row)] for row in rows[1:])]
        got = self.outputs_of(workspace, tmp_path_factory, mirror)
        assert got == reference_outputs

    def test_prefix_on_every_file_changes_only_ids(self, workspace, reference_outputs,
                                                   tmp_path_factory):
        _, data, _ = workspace
        got = self.outputs_of(workspace, tmp_path_factory, lambda rows: rows,
                              rename={p.name: "z_" + p.name for p in data.glob("*.csv")})
        for name in ("intersection.csv", "improvement_main.csv", "improvement_aux.csv",
                     "correlations.csv"):
            assert got[name] == reference_outputs[name], name
        assert_per_driver_files_renamed(got, reference_outputs,
                                        lambda name: name.replace("_", "_z_", 1))
        for name in ("classes.csv", "advice_events.txt", REPORT_STDOUT, "driver_summary.csv"):
            header = name.endswith(".csv")
            lines = got[name].decode().splitlines(keepends=True)
            assert all(line.startswith("z_") for line in lines[header:])
            assert [line.removeprefix("z_") for line in lines] \
                == reference_outputs[name].decode().splitlines(keepends=True), name

    def test_quoted_driver_id_reads_back(self, workspace, reference_outputs,
                                         tmp_path_factory):
        # a stem holding a comma and a double quote is a quoted cell of the
        # tables; "," sorts before "_", so the file keeps its place
        stem = 'c0,"x"'
        got = self.outputs_of(workspace, tmp_path_factory, lambda rows: rows,
                              rename={"c0_f0.csv": f"{stem}.csv"})
        for name in ("classes.csv", "driver_summary.csv"):
            text = got[name].decode()
            assert '\r\n"c0,""x""",' in text
            want = [[stem if row[0] == "c0_f0" else row[0], *row[1:]]
                    for row in csv.reader(io.StringIO(reference_outputs[name].decode()))]
            assert list(csv.reader(io.StringIO(text))) == want, name

    @pytest.mark.console
    def test_every_output_lists_drivers_in_file_name_order(self, workspace, tmp_path_factory):
        # "c0-1.csv" reads before "c0.csv" ("-" sorts before "."), while the
        # stem "c0" sorts before "c0-1": every output follows the file names
        got = self.outputs_of(workspace, tmp_path_factory, lambda rows: rows,
                              rename={"c0_f0.csv": "c0.csv", "c0_f1.csv": "c0-1.csv"})

        def first_seen(name, sep):
            lines = got[name].decode().splitlines()[name.endswith(".csv"):]
            return list(dict.fromkeys(line.split(sep, 1)[0] for line in lines))
        order = first_seen("classes.csv", ",")
        assert order[:3] == ["c0-1", "c0", "c0_f2"]
        assert first_seen("advice_events.txt", " ") == order
        assert first_seen(REPORT_STDOUT, ":") == order
        assert first_seen("driver_summary.csv", ",") == order

    @pytest.mark.parametrize("rate, kept", [(64.0, 261), (100.0, 252)])
    def test_relogged_rate_keeps_the_labels(self, workspace, reference_outputs, tmp_path,
                                            rate, kept):
        # the same drives logged at a higher rate, by linear interpolation of the
        # parsed channels.  resample's pre-filter and interpolation change the
        # 32 Hz samples a little, so a window at a cluster border may change
        # label: the floor is 98% agreement.  A grid that ends up to one period
        # earlier (0.03 s at 100 Hz) loses at most each drive's last window.
        _, data, models = workspace
        edited = tmp_path / "data"
        edited.mkdir()
        for src in data.glob("*.csv"):
            channels = telemetry.load_csv(src)
            t = channels[0].timestamps
            grid = t[0] + np.arange(int((t[-1] - t[0]) * rate) + 1) / rate
            table = np.column_stack([grid, *(np.interp(grid, t, c.values) for c in channels)])
            np.savetxt(edited / src.name, table, fmt=["%.6f"] + ["%.8g"] * len(channels),
                       delimiter=",", header=",".join(["t", *telemetry.CHANNELS]),
                       comments="")
        out = tmp_path / "classes.csv"
        assert run(["classify", "--data", str(edited), "--models", str(models),
                    "--out", str(out)]) == 0

        def rows(text):
            return {tuple(line.split(",")[:2]): line.split(",")[2:]
                    for line in text.splitlines()[1:]}
        got, want = rows(out.read_text()), rows(reference_outputs["classes.csv"].decode())
        assert len(got) == kept and set(got) <= set(want)
        got_n, want_n = (Counter(driver for driver, _ in keys) for keys in (got, want))
        assert got_n.keys() == want_n.keys()
        assert all(want_n[driver] - got_n[driver] <= 1 for driver in want_n)
        for axis in (0, 1):  # comfort, fuel
            agree = np.mean([got[key][axis] == want[key][axis] for key in got])
            assert agree >= 0.98, (axis, agree)


class TestReport:
    def test_artifacts(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        out = tmp_path / "reports"
        assert run(["report", "--data", str(data), "--models", str(models),
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "driver_summary.csv").is_file()
        assert len(list(out.glob("heatmap_*.csv"))) == 9
        assert len(list(out.glob("kde_*.csv"))) == 9
        assert len(list(out.glob("kde_*.json"))) == 9
        assert "KDE integral" in printed
        for p in out.glob("kde_*.json"):
            meta = json.loads(p.read_text())
            assert 0.95 <= meta["integral"] <= 1.05

    def test_bytes_are_pinned(self, workspace, tmp_path, capsys):
        """On the quick-start corpus ``report`` writes the summary, heatmap and
        KDE CSVs whose sha256 sums (``sha256sum`` format, by file name) are
        committed."""
        _, data, models = workspace
        out = tmp_path / "reports"
        assert run(["report", "--data", str(data), "--models", str(models),
                    "--out", str(out)]) == 0
        capsys.readouterr()
        found = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                        for p in sorted(out.glob("*.csv")))
        assert found == REPORT_DIGESTS.read_text()

    def test_driver_without_kept_windows_is_skipped(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        fleet = tmp_path / "fleet"
        shutil.copytree(data, fleet)
        slow = synthgen.generate(synthgen.StyleSpec(base_speed=30.0, duration=60.0,
                                                    seed=3), driver_id="slow")
        synthgen.write_csv(slow, fleet / "slow.csv")
        out = tmp_path / "reports"
        assert run(["report", "--data", str(fleet), "--models", str(models),
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "slow: no window at or above 60 km/h; heatmap and KDE skipped" in printed
        assert len(list(out.glob("heatmap_*.csv"))) == 9
        assert len(list(out.glob("kde_*.csv"))) == 9
        assert not (out / "heatmap_slow.csv").exists()
        summary = (out / "driver_summary.csv").read_text().splitlines()
        assert len(summary) == 10 and not any(s.startswith("slow,") for s in summary)


    def test_driver_with_one_kept_window_keeps_heatmap(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        fleet = tmp_path / "fleet"
        shutil.copytree(data, fleet)
        single = synthgen.generate(synthgen.StyleSpec(base_speed=30.0, duration=60.0,
                                                      seed=3), driver_id="single")
        single.channels["VS"][:200] = 90.0  # only the first window averages >= 60 km/h
        synthgen.write_csv(single, fleet / "single.csv")
        out = tmp_path / "reports"
        assert run(["report", "--data", str(fleet), "--models", str(models),
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "single: 1 window at or above 60 km/h; KDE skipped" in printed
        assert (out / "heatmap_single.csv").is_file()
        assert not (out / "kde_single.csv").exists()
        assert len(list(out.glob("kde_*.json"))) == 9


    def test_driver_with_flat_fuel_keeps_heatmap(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        name = sorted(data.glob("*.csv"))[0].name
        fleet = tmp_path / "fleet"
        copy_with_column(data, fleet, "FUEL", "3.7", names={name})
        out = tmp_path / "reports"
        assert run(["report", "--data", str(fleet), "--models", str(models),
                    "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        driver = name[:-len(".csv")]
        assert f"{driver}: fuel has zero spread; KDE skipped" in printed
        assert (out / f"heatmap_{driver}.csv").is_file()
        assert not (out / f"kde_{driver}.csv").exists()
        assert len(list(out.glob("heatmap_*.csv"))) == 9
        assert len(list(out.glob("kde_*.json"))) == 8


class TestCorrelate:
    def test_table(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "corr.csv"
        assert run(["correlate", "--data", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("target,SWA RMS,SWA Var")
        assert len(lines) == 7  # 6 targets + header

    @pytest.mark.parametrize("case, message", [
        # the three calm drivers never pass the peak threshold: an exact integer 0
        ("calm_drivers", "n_x_pos is the same in all 87 windows"),
        # the same mean in every window; centring it leaves about 1e-15
        ("constant_fuel", "fuel is the same in all 261 windows"),
    ])
    def test_constant_column_fails_naming_it(self, workspace, tmp_path, capsys,
                                             case, message):
        _, data, _ = workspace
        edited = tmp_path / "data"
        if case == "calm_drivers":
            edited.mkdir()
            for src in data.glob("c0_f*.csv"):
                shutil.copy(src, edited)
        else:
            copy_with_column(data, edited, "FUEL", "3.3")
        out = tmp_path / "corr.csv"
        assert run(["correlate", "--data", str(edited), "--out", str(out)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"ecoride: error: {message}: its correlations are undefined\n")
        assert not out.exists()
