"""Orchestration layer: analysis, training, classification."""

import importlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from ecoride import DataError, cli, features, pipeline, synthgen, telemetry
from ecoride.features import MAIN_FEATURES

from conftest import make_record

README = Path(__file__).resolve().parents[1] / "README.md"

# (module, name, value): the paper's fixed method, as the README table lists it
PAPER_CONSTANTS = [
    ("telemetry", "SAMPLE_RATE_HZ", 32.0),
    ("telemetry", "WINDOW_LEN", 256),
    ("telemetry", "WINDOW_STEP", 128),
    ("telemetry", "SPEED_THRESHOLD_KMH", 60.0),
    ("comfort", "FILTER_CORNERS", (0.02, 0.3)),
    ("comfort", "PEAK_THRESHOLD", 1.75),
    ("pipeline", "GRID_SHAPE", (15, 15)),
    ("pipeline", "TRAIN_SPLIT", 0.75),
    ("som", "LABELS", ("Low", "Medium", "High")),
    ("advisor", "K_STABLE", 3),
]


@pytest.mark.parametrize("module, name, value", PAPER_CONSTANTS,
                         ids=[name for _, name, _ in PAPER_CONSTANTS])
def test_paper_constant_and_its_readme_row(module, name, value):
    obj = importlib.import_module(f"ecoride.{module}")
    for attr in name.split("."):
        obj = getattr(obj, attr)
    assert obj == value
    rows = [line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `")]
    assert any(f"`{name}`" in row and f"`ecoride.{module}`" in row for row in rows)


class TestAnalyzeRecord:
    def test_aligned_outputs(self, small_corpus):
        table = pipeline.analyze_record(small_corpus[0])
        n = len(table["window_start"])
        assert n > 0
        assert table["vr"].shape == (n,)
        assert all(v.shape == (n,) for v in table.values())

    def test_column_contract(self, small_corpus):
        metrics = {"msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel"}
        tables = [pipeline.analyze_record(r) for r in small_corpus[:3]]
        for r, table in zip(small_corpus, tables):
            assert set(table) == {"window_start"} | metrics | set(features.FEATURE_COLUMNS)
            assert len(table) == 1 + len(metrics) + len(features.FEATURE_COLUMNS)
            assert all(len(v) == len(table["window_start"]) for v in table.values())
            kept = telemetry.filter_by_mean_speed(r, telemetry.split_windows(r))
            np.testing.assert_array_equal(table["window_start"], kept)
        fleet = pipeline.analyze_fleet(small_corpus[:3])
        assert list(fleet) == ["driver", *tables[0]]
        assert all(len(v) == len(fleet["driver"]) for v in fleet.values())
        np.testing.assert_array_equal(
            fleet["driver"], np.concatenate([np.full(len(t["vr"]), i)
                                             for i, t in enumerate(tables)]))
        for name in tables[0]:
            np.testing.assert_array_equal(
                fleet[name], np.concatenate([t[name] for t in tables]))

    def test_speed_filter_applied(self, small_corpus):
        fast = pipeline.analyze_record(small_corpus[0])
        slow = synthgen.generate(
            synthgen.StyleSpec(base_speed=30.0, duration=60.0, seed=3), driver_id="slow")
        assert len(pipeline.analyze_record(slow)["window_start"]) == 0 < len(fast["window_start"])
        # a record without kept windows keeps its driver index, with no rows
        fleet = pipeline.analyze_fleet([slow, small_corpus[0]])
        assert all(len(v) == len(fast["vr"]) for v in fleet.values())
        assert set(fleet["driver"]) == {1}


class TestAnalyzeFleet:
    def test_holds_one_record_of_a_generator_at_a_time(self):
        built = []

        def build(i):
            record = make_record(driver_id=f"d{i}", seed=i)
            built.append(weakref.ref(record))
            return record

        def records():
            for i in range(4):
                assert all(ref() is None for ref in built), f"record {i - 1} still held"
                yield build(i)
        fleet = pipeline.analyze_fleet(records())
        np.testing.assert_array_equal(np.unique(fleet["driver"]), np.arange(4))

    @pytest.mark.parametrize("command, columns", [
        ("train", cli.PROFILE_COLUMNS), ("classify", cli.MAP_COLUMNS),
        ("advise", cli.PROFILE_COLUMNS), ("report", cli.PROFILE_COLUMNS),
        ("correlate", pipeline.COLUMNS)])
    def test_a_command_gets_its_columns_of_the_full_table(self, small_corpus, fleet,
                                                         command, columns):
        got = pipeline.analyze_fleet(small_corpus, columns)
        assert set(got) == {"driver", "window_start", *columns}
        assert list(got) == [name for name in fleet if name in got]
        for name, values in got.items():
            assert values.dtype == fleet[name].dtype, name
            assert values.tobytes() == fleet[name].tobytes(), name


@pytest.fixture(scope="module")
def fleet(small_corpus):
    return pipeline.analyze_fleet(small_corpus)


@pytest.fixture(scope="module")
def result(fleet):
    return pipeline.train_models(fleet, seed=5)


class TestTrainModels:
    def test_models_have_expected_shapes(self, result):
        (main_model, _), (aux_model, _) = result
        assert main_model.grid.weights.shape == (225, 5)
        assert aux_model.grid.weights.shape == (225, 2)
        assert sorted(main_model.labels) == ["High", "Low", "Medium"]
        assert sorted(aux_model.labels) == ["High", "Low", "Medium"]

    def test_qe_improves(self, result):
        for model, _ in result:
            assert model.qe_history[-1] < model.qe_history[0]

    def test_profiles_cover_all_windows(self, small_corpus, fleet, result):
        total = sum(len(pipeline.analyze_record(r)["window_start"]) for r in small_corpus)
        assert all(len(v) == total for v in fleet.values())
        (_, main_profile), (_, aux_profile) = result
        assert main_profile["windows"].sum() == total
        assert aux_profile["windows"].sum() == total

    def test_deterministic(self, small_corpus, result):
        (main_model, _), (aux_model, _) = result
        (main_again, _), (aux_again, _) = pipeline.train_models(
            pipeline.analyze_fleet(small_corpus), seed=5)
        np.testing.assert_array_equal(main_model.grid.weights, main_again.grid.weights)
        np.testing.assert_array_equal(aux_model.assignment, aux_again.assignment)

    def test_classify_all_labels(self, small_corpus, result):
        fleet = pipeline.analyze_fleet(small_corpus[:2])
        models = [model for model, _ in result]
        pipeline.classify_all(fleet, models)
        assert {"main_bmu", "aux_bmu", "comfort_label", "fuel_label"} <= set(fleet)
        assert all(len(v) == len(fleet["driver"]) for v in fleet.values())
        model = models[0]
        vectors = features.feature_matrix(fleet, MAIN_FEATURES)
        np.testing.assert_array_equal(fleet["main_bmu"], model.bmu_indices(vectors))
        np.testing.assert_array_equal(fleet["comfort_label"],
                                      model.labels_at(fleet["main_bmu"]))
        assert set(fleet["comfort_label"]) <= {0, 1, 2}
        assert set(fleet["fuel_label"]) <= {0, 1, 2}

    def test_too_few_windows(self):
        rec = telemetry.DriveRecord(
            driver_id="tiny",
            channels={name: np.full(300, 90.0)
                      for name in ("SWA", "VS", "ERPM", "XACC", "YACC", "FUEL")})
        with pytest.raises(DataError, match="windows"):
            pipeline.train_models(pipeline.analyze_fleet([rec]))
