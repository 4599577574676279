"""Orchestration layer: analysis, training, classification."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from ecoride import DataError, features, pipeline, synthgen, telemetry
from ecoride.features import MAIN_FEATURES

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
    ("advisor", "AdviceState.k_stable", 3),
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
        analyzed = pipeline.analyze_record(small_corpus[0])
        n = len(analyzed.windows)
        assert n > 0
        assert analyzed.columns["vr"].shape == (n,)
        assert all(v.shape == (n,) for v in analyzed.columns.values())

    def test_column_contract(self, small_corpus):
        metrics = {"msdv_x", "msdv_y", "vr", "n_x_pos", "n_x_neg", "n_y", "fuel"}
        analyzed = [pipeline.analyze_record(r) for r in small_corpus[:3]]
        for a in analyzed:
            assert set(a.columns) == metrics | set(features.FEATURE_COLUMNS)
            assert len(a.columns) == len(metrics) + len(features.FEATURE_COLUMNS)
            assert all(len(v) == len(a.windows) for v in a.columns.values())
        fleet = pipeline.fleet_columns(analyzed)
        assert list(fleet) == list(analyzed[0].columns)
        for name, values in fleet.items():
            np.testing.assert_array_equal(
                values, np.concatenate([a.columns[name] for a in analyzed]))

    def test_speed_filter_applied(self, small_corpus):
        fast = pipeline.analyze_record(small_corpus[0])
        slow = pipeline.analyze_record(synthgen.generate(
            synthgen.StyleSpec(base_speed=30.0, duration=60.0, seed=3), driver_id="slow"))
        assert len(slow.windows) == 0 < len(fast.windows)
        assert all(len(v) == 0 for v in slow.columns.values())


@pytest.fixture(scope="module")
def result(small_corpus):
    return pipeline.train_models(small_corpus, seed=5)


class TestTrainModels:
    def test_models_have_expected_shapes(self, result):
        assert result.main_model.grid.weights.shape == (225, 5)
        assert result.aux_model.grid.weights.shape == (225, 2)
        assert sorted(result.main_model.labels) == ["High", "Low", "Medium"]
        assert sorted(result.aux_model.labels) == ["High", "Low", "Medium"]

    def test_qe_improves(self, result):
        for model in (result.main_model, result.aux_model):
            assert model.qe_history[-1] < model.qe_history[0]

    def test_profiles_cover_all_windows(self, result):
        total = sum(len(a.windows) for a in result.analyzed)
        assert result.main_profile["windows"].sum() == total
        assert result.aux_profile["windows"].sum() == total

    def test_deterministic(self, small_corpus, result):
        again = pipeline.train_models(small_corpus, seed=5)
        np.testing.assert_array_equal(result.main_model.grid.weights,
                                      again.main_model.grid.weights)
        np.testing.assert_array_equal(result.aux_model.partition.assignment,
                                      again.aux_model.partition.assignment)

    def test_classify_all_labels(self, small_corpus, result):
        analyzed = [pipeline.analyze_record(r) for r in small_corpus[:2]]
        pipeline.classify_all(analyzed, result.main_model, result.aux_model)
        for a in analyzed:
            names = ("main_bmu", "aux_bmu", "comfort_label", "fuel_label")
            assert all(len(a.columns[name]) == len(a.windows) for name in names)
            model = result.main_model
            vectors = features.feature_matrix(a.columns, MAIN_FEATURES)
            np.testing.assert_array_equal(a.columns["main_bmu"], model.bmu_indices(vectors))
            np.testing.assert_array_equal(a.columns["comfort_label"],
                                          model.labels_at(a.columns["main_bmu"]))
        fleet = pipeline.fleet_columns(analyzed)
        assert set(fleet["comfort_label"]) <= {0, 1, 2}
        assert set(fleet["fuel_label"]) <= {0, 1, 2}

    def test_too_few_windows(self):
        rec = telemetry.DriveRecord(
            driver_id="tiny",
            channels={name: np.full(300, 90.0)
                      for name in ("SWA", "VS", "ERPM", "XACC", "YACC", "FUEL")})
        with pytest.raises(DataError, match="windows"):
            pipeline.train_models([rec])
