"""CLI subcommands, exit codes and artifact layout."""

import json
import re
import shutil

import numpy as np
import pytest

from ecoride import cli, pipeline, synthgen, telemetry


def run(argv):
    return cli.main(argv)


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


class TestExitCodes:
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

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("not json")
        assert run(["train", "--data", str(tmp_path), "--out", str(tmp_path),
                    "--config", str(bad)]) == cli.EXIT_DATA
        capsys.readouterr()

    @staticmethod
    def run_with_config(command, cfg, models, tmp_path):
        """Run ``command`` with config ``cfg`` on a CSV that cannot be loaded
        (reading it would fail with another error); return its output path."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / "x.csv").write_text("no,time,column\n")
        out = tmp_path / "out"
        argv = [command, "--data", str(bad_data), "--out", str(out),
                "--config", str(cfg_path)]
        if command in ("classify", "advise", "report"):
            argv += ["--models", str(models)]
        assert run(argv) == cli.EXIT_DATA
        return out

    @pytest.mark.parametrize("command", ["train", "classify", "advise", "report",
                                         "correlate"])
    def test_unknown_config_key_fails_before_reading_data(self, workspace, tmp_path,
                                                          capsys, command):
        _, _, models = workspace
        out = self.run_with_config(command, {"clusters": 4, "k_stable": 2}, models, tmp_path)
        assert "unknown config key(s): clusters" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "classify", "advise", "report",
                                         "correlate"])
    @pytest.mark.parametrize("key, value, message", [
        ("grid_main", 5, "grid_main must be two positive integers, got 5"),
        ("grid_main", [0, 5], "grid_main must be two positive integers, got [0, 5]"),
        ("grid_aux", [5, 5, 5], "grid_aux must be two positive integers, got [5, 5, 5]"),
        ("grid_aux", [5.0, 5], "grid_aux must be two positive integers, got [5.0, 5]"),
        ("seed", "x", "seed must be an integer >= 0, got 'x'"),
        ("seed", -1, "seed must be an integer >= 0, got -1"),
        ("k_stable", "3", "k_stable must be an integer >= 1, got '3'"),
        ("k_stable", 0, "k_stable must be an integer >= 1, got 0"),
        ("kmeans_restarts", 0, "kmeans_restarts must be an integer >= 1, got 0"),
        ("kmeans_restarts", True, "kmeans_restarts must be an integer >= 1, got True"),
        ("train_split", "x", "train_split must be a number in (0, 1), got 'x'"),
        ("train_split", 1.0, "train_split must be a number in (0, 1), got 1.0"),
        ("speed_threshold", float("nan"), "speed_threshold must be a number in (0, inf), got nan"),
        ("peak_threshold", 0, "peak_threshold must be a number in (0, inf), got 0"),
    ])
    def test_bad_config_value_fails_before_reading_data(self, workspace, tmp_path, capsys,
                                                        command, key, value, message):
        _, _, models = workspace
        out = self.run_with_config(command, {key: value}, models, tmp_path)
        assert f"ecoride: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_telemetry(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        fields = lines[5].split(",")
        fields[lines[0].split(",").index("XACC")] = "nan"
        lines[5] = ",".join(fields)
        nan_data = tmp_path / "data"
        nan_data.mkdir()
        (nan_data / src.name).write_text("\n".join(lines) + "\n")
        assert run(["classify", "--data", str(nan_data), "--models", str(models),
                    "--out", str(tmp_path / "c.csv")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "non-finite XACC value at data row 5" in err and src.name in err

    @pytest.mark.parametrize("fault,message", [
        pytest.param("nan_xacc", "non-finite XACC value at data row 5 in ", id="nan_xacc"),
        pytest.param("inf_time", "non-finite timestamp at data row 7 in ", id="inf_time"),
        pytest.param("swapped_rows", "non-monotonic timestamps at data row 11 in ",
                     id="swapped_rows"),
        pytest.param("one_row", "need at least 2 data rows, got 1 in ", id="one_row"),
        pytest.param("missing_column", "missing required column 'XACC' in ",
                     id="missing_column"),
        pytest.param("negative_vs", "negative VS value at data row 9 in ", id="negative_vs"),
    ])
    def test_bad_csv_fails_naming_file_and_row(self, workspace, tmp_path, capsys,
                                               fault, message):
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        header = lines[0].split(",")
        if fault == "nan_xacc":
            fields = lines[5].split(",")
            fields[header.index("XACC")] = "nan"
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
        else:
            lines[0] = lines[0].replace("XACC", "XACC_OLD")
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / src.name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "c.csv"
        assert run(["classify", "--data", str(bad_data), "--models", str(models),
                    "--out", str(out)]) == cli.EXIT_DATA
        assert message + str(bad_data / src.name) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "classify", "advise", "report",
                                         "correlate"])
    def test_overflowing_window_fails_before_any_output(self, workspace, tmp_path,
                                                        capsys, command):
        # a finite cell whose square overflows: every window holding it would
        # get an infinite XACC RMS and MSDV
        _, data, models = workspace
        src = sorted(data.glob("*.csv"))[0]
        lines = src.read_text().splitlines()
        fields = lines[1000].split(",")
        fields[lines[0].split(",").index("XACC")] = "1e200"
        lines[1000] = ",".join(fields)
        big_data = tmp_path / "data"
        big_data.mkdir()
        (big_data / src.name).write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = [command, "--data", str(big_data), "--out", str(out)]
        if command in ("classify", "advise", "report"):
            argv += ["--models", str(models)]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "non-finite XACC RMS in the window starting at sample 768" in err
        assert str(big_data / src.name) in err
        assert not out.exists() or not any(out.iterdir())


class TestSynth:
    def test_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 999}))
        assert run(["synth", "--out", str(tmp_path), "--drivers", "1",
                    "--duration", "16", "--config", str(cfg)]) == cli.EXIT_USAGE
        assert "--config" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        for d in (a, b):
            assert run(["synth", "--out", str(d), "--seed", "7",
                        "--duration", "60"]) == 0
        capsys.readouterr()
        for pa in sorted(a.glob("*.csv")):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_driver_count(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        assert run(["synth", "--out", str(out), "--drivers", "11",
                    "--duration", "60"]) == 0
        capsys.readouterr()
        assert len(list(out.glob("*.csv"))) == 11


class TestTrain:
    def test_artifacts(self, workspace, capsys):
        _, _, models = workspace
        assert (models / cli.MAIN_MODEL_FILE).is_file()
        assert (models / cli.AUX_MODEL_FILE).is_file()
        capsys.readouterr()

    def test_deterministic_model_files(self, workspace, tmp_path, capsys):
        _, data, models = workspace
        again = tmp_path / "models2"
        assert run(["train", "--data", str(data), "--out", str(again),
                    "--seed", "5"]) == 0
        capsys.readouterr()
        for name in (cli.MAIN_MODEL_FILE, cli.AUX_MODEL_FILE):
            assert (models / name).read_bytes() == (again / name).read_bytes()

    def test_config_file_with_flag_override(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99, "kmeans_restarts": 4}))
        out = tmp_path / "m"
        assert run(["train", "--data", str(data), "--out", str(out),
                    "--config", str(cfg), "--seed", "5"]) == 0
        capsys.readouterr()
        model = json.loads((out / cli.MAIN_MODEL_FILE).read_text())
        assert model["train_seed"] == 6  # --seed flag beat the config value


    def test_profile_tables_match_a_recomputation(self, workspace, tmp_path, capsys):
        # BMU -> cluster -> member averages worked out here from the model
        # files and the fleet columns, in Low/Medium/High order at .4g
        _, data, _ = workspace
        out = tmp_path / "m"
        assert run(["train", "--data", str(data), "--out", str(out), "--seed", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()
        records = [telemetry.resample(telemetry.load_csv(p), driver_id=p.stem)
                   for p in sorted(data.glob("*.csv"))]
        fleet = pipeline.fleet_columns([pipeline.analyze_record(r) for r in records])
        metrics = ("msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel")
        for tag, name in (("main", cli.MAIN_MODEL_FILE), ("aux", cli.AUX_MODEL_FILE)):
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
    ])
    def test_corrupt_model_file(self, workspace, tmp_path, capsys, field, spoil):
        _, data, models = workspace
        bad = tmp_path / "models"
        shutil.copytree(models, bad)
        path = bad / cli.MAIN_MODEL_FILE
        model = json.loads(path.read_text())
        spoil(model)
        path.write_text(json.dumps(model))
        out = tmp_path / "cls.csv"
        assert run(["classify", "--data", str(data), "--models", str(bad),
                    "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"model file {path}" in err and field in err
        assert not out.exists()


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
