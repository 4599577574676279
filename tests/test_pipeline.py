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
        np.testing.assert_array_equal(analyzed.metrics.window_start, analyzed.windows)
        assert analyzed.metrics.vr.shape == (n,)
        assert all(v.shape == (n,) for v in analyzed.features.rms.values())

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
        assert sum(p.member_count for p in result.main_profiles) == total
        assert sum(p.member_count for p in result.aux_profiles) == total

    def test_deterministic(self, small_corpus, result):
        again = pipeline.train_models(small_corpus, RunConfig(seed=5))
        np.testing.assert_array_equal(result.main_model.grid.weights,
                                      again.main_model.grid.weights)
        np.testing.assert_array_equal(result.aux_model.partition.assignment,
                                      again.aux_model.partition.assignment)

    def test_classify_all_labels(self, small_corpus, result):
        analyzed = [pipeline.analyze_record(r, RunConfig(seed=5))
                    for r in small_corpus[:2]]
        classified = pipeline.classify_all(analyzed, result.main_model,
                                           result.aux_model)
        for a, c in zip(analyzed, classified):
            assert len(c.pairs) == len(c.main_bmus) == len(c.aux_bmus) == len(a.windows)
            model = result.main_model
            vectors = features.feature_matrix(a.features, MAIN_FEATURES)
            assert all(label == comfort for label, (comfort, _) in
                       zip(model.labels_at(model.bmu_indices(vectors)), c.pairs))
        pairs = [p for c in classified for p in c.pairs]
        assert all(c in ("Low", "Medium", "High")
                   and f in ("Low", "Medium", "High") for c, f in pairs)

    def test_too_few_windows(self):
        rec = telemetry.DriveRecord(
            driver_id="tiny",
            channels={name: np.full(300, 90.0)
                      for name in ("SWA", "VS", "ERPM", "XACC", "YACC", "FUEL")})
        with pytest.raises(PipelineError, match="windows"):
            pipeline.train_models([rec])
