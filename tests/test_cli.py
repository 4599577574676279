"""CLI subcommands, exit codes and artifact layout."""

import json
import shutil

import pytest

from ecoride import cli, synthgen


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

    @pytest.mark.parametrize("command", ["train", "classify", "advise", "report",
                                         "correlate"])
    def test_unknown_config_key_fails_before_reading_data(self, workspace, tmp_path,
                                                          capsys, command):
        _, data, models = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clusters": 4, "k_stable": 2}))
        # a CSV that cannot be loaded: reading it would fail with another error
        bad_data = tmp_path / "data"
        bad_data.mkdir()
        (bad_data / "x.csv").write_text("no,time,column\n")
        out = tmp_path / "out"
        argv = [command, "--data", str(bad_data), "--out", str(out),
                "--config", str(cfg)]
        if command in ("classify", "advise", "report"):
            argv += ["--models", str(models)]
        assert run(argv) == cli.EXIT_DATA
        assert "unknown config key(s): clusters" in capsys.readouterr().err
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


class TestSynth:
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


class TestCorrelate:
    def test_table(self, workspace, tmp_path, capsys):
        _, data, _ = workspace
        out = tmp_path / "corr.csv"
        assert run(["correlate", "--data", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("target,SWA RMS,SWA Var")
        assert len(lines) == 7  # 6 targets + header
