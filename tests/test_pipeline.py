"""Orchestration layer: analysis, training, classification."""

import numpy as np
import pytest

from ecoride import features, pipeline, telemetry
from ecoride.features import MAIN_FEATURES
from ecoride.pipeline import PipelineError, RunConfig


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.grid_main == (15, 15)
        assert cfg.train_split == 0.75

    def test_validation(self):
        with pytest.raises(PipelineError):
            RunConfig(train_split=1.0)
        with pytest.raises(PipelineError):
            RunConfig(peak_threshold=0.0)


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
        fast = pipeline.analyze_record(small_corpus[0], RunConfig())
        strict = pipeline.analyze_record(
            small_corpus[0], RunConfig(speed_threshold=500.0))
        assert len(strict.windows) == 0 < len(fast.windows)


@pytest.fixture(scope="module")
def result(small_corpus):
    return pipeline.train_models(small_corpus, RunConfig(seed=5))


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
        again = pipeline.train_models(small_corpus, RunConfig(seed=5))
        np.testing.assert_array_equal(result.main_model.grid.weights,
                                      again.main_model.grid.weights)
        np.testing.assert_array_equal(result.aux_model.partition.assignment,
                                      again.aux_model.partition.assignment)

    def test_classify_all_labels(self, small_corpus, result):
        analyzed = [pipeline.analyze_record(r, RunConfig(seed=5))
                    for r in small_corpus[:2]]
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
        with pytest.raises(PipelineError, match="windows"):
            pipeline.train_models([rec])
