"""Cluster profiling/labeling, improvement reports, advice matrix and the
streaming advice state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import DataError, advisor
from ecoride.advisor import AdviceState


def metrics_table(vr, fuel=3.0):
    """Metric columns with the given per-window VR values."""
    n = len(vr)
    zeros = np.zeros(n, dtype=int)
    return {"msdv_x": np.full(n, 0.3), "msdv_y": np.full(n, 0.6),
            "vr": np.asarray(vr, dtype=float), "n_x_pos": zeros, "n_x_neg": zeros,
            "n_y": zeros, "fuel": np.broadcast_to(np.asarray(fuel, dtype=float), (n,))}


def three_cluster_setup(vrs=(0.2, 0.5, 1.0), n_per=4):
    """Assignment of 3 neurons, one cluster each; metrics grouped by vr."""
    part = np.array([0, 1, 2])
    bmus = np.repeat(np.arange(3), n_per)
    vr = [v + 0.01 * i for v in vrs for i in range(n_per)]
    return part, bmus, metrics_table(vr, fuel=2.0 + bmus)


class TestProfileClusters:
    def test_averages_and_window_counts(self):
        part, bmus, metrics = three_cluster_setup()
        profile = advisor.profile_clusters(part, bmus, metrics)
        assert set(profile) == {"windows", *advisor.PROFILE_METRICS}
        assert all(len(column) == 3 for column in profile.values())
        vals = metrics["vr"][bmus == 0]
        assert profile["windows"][0] == 4
        assert profile["vr"][0] == pytest.approx(np.mean(vals))

    def test_empty_cluster_errors(self):
        part = np.array([0, 1, 2])
        with pytest.raises(DataError, match="no member"):
            advisor.profile_clusters(part, [0, 0, 1, 1], metrics_table([0.5] * 4))

    def test_count_mismatch(self):
        part = np.array([0])
        with pytest.raises(DataError, match="differ"):
            advisor.profile_clusters(part, [0, 0], metrics_table([0.5]))


class TestLabelClusters:
    def test_ascending_order(self):
        part, bmus, metrics = three_cluster_setup(vrs=(1.0, 0.2, 0.5))
        profile = advisor.profile_clusters(part, bmus, metrics)
        labels = advisor.label_clusters(profile["vr"])
        assert labels == ["High", "Low", "Medium"]  # by cluster id

    def test_fuel_ordering(self):
        part, bmus, metrics = three_cluster_setup()
        profile = advisor.profile_clusters(part, bmus, metrics)
        labels = advisor.label_clusters(profile["fuel"])
        assert [labels[cid] for cid in np.argsort(profile["fuel"])] \
            == ["Low", "Medium", "High"]

    def test_ties_give_the_lower_cluster_id_the_lower_label(self):
        assert advisor.label_clusters([0.5, 0.5, 0.2]) == ["Medium", "High", "Low"]
        assert advisor.label_clusters([0.7, 0.7, 0.7]) == ["Low", "Medium", "High"]

    def test_wrong_cluster_count(self):
        with pytest.raises(DataError, match="labeling requires exactly 3 clusters"):
            advisor.label_clusters([])


def profile_table(values, metric_names=("vr",)):
    """Per-cluster table of three clusters with the given averages on every metric."""
    return {"windows": np.full(3, 10), **{m: np.array(values, dtype=float)
                                          for m in metric_names}}


class TestImprovementReport:
    def test_pairwise_reductions(self):
        rows = advisor.improvement_report(list(advisor.LABELS),
                                          profile_table((1.0, 2.0, 4.0)))
        got = {(r.current, r.target): r.reductions["vr"] for r in rows}
        assert got[("Medium", "Low")] == pytest.approx(50.0)
        assert got[("High", "Low")] == pytest.approx(75.0)
        assert got[("High", "Medium")] == pytest.approx(50.0)
        assert len(rows) == 3

    def test_tied_averages_keep_cluster_id_order(self):
        # clusters 0 and 1 tie: no row between them, cluster 0's rows come first
        rows = advisor.improvement_report(["Medium", "High", "Low"],
                                          profile_table((2.0, 2.0, 1.0)))
        assert [(r.current, r.target) for r in rows] \
            == [("Medium", "Low"), ("High", "Low")]
        assert [r.reductions["vr"] for r in rows] == [50.0, 50.0]

    def test_zero_current_average_named(self):
        # lateral acceleration logged as 0: msdv_y averages 0 in every cluster
        profile = profile_table((1.0, 2.0, 4.0), metric_names=("vr", "msdv_y"))
        profile["msdv_y"][:] = 0.0
        with pytest.raises(DataError, match="msdv_y averages 0 in the Medium cluster"):
            advisor.improvement_report(list(advisor.LABELS), profile,
                                       metrics=("vr", "msdv_y"))

    def test_csv_output(self, tmp_path):
        rows = advisor.improvement_report(list(advisor.LABELS),
                                          profile_table((1.0, 2.0, 4.0)))
        path = tmp_path / "imp.csv"
        advisor.write_improvement_csv(rows, ("vr",), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "current,target,vr_reduction_pct"
        assert "Medium,Low,50.0" in lines


class TestAdviceMatrix:
    def test_all_nine_cells(self):
        matrix = advisor.build_advice_matrix()
        for comfort in advisor.LABELS:
            for fuel in advisor.LABELS:
                lines = matrix.advice(comfort, fuel, braking_peak=False)
                assert lines[0] == advisor.FUEL_ADVICE[fuel]
                if comfort == "Low":
                    assert len(lines) == 1
                else:
                    assert lines[1] == advisor.COMFORT_ADVICE[comfort]

    def test_braking_conditional_low_only(self):
        matrix = advisor.build_advice_matrix()
        with_peak = matrix.advice("Low", "Low", braking_peak=True)
        assert with_peak == ["Keep driving style", "Avoid braking peaks"]
        # non-Low comfort rows are unchanged by the flag
        for comfort in ("Medium", "High"):
            assert matrix.advice(comfort, "High", True) \
                == matrix.advice(comfort, "High", False)


class TestIntersect:
    def test_percentages(self):
        # three (Low, Low) windows and one (High, Medium)
        table = advisor.intersect(np.array([0, 0, 0, 2]), np.array([0, 0, 0, 1]))
        assert table[0, 0] == pytest.approx(75.0)
        assert table[2, 1] == pytest.approx(25.0)
        assert table.sum() == pytest.approx(100.0)

    def test_empty_errors(self):
        with pytest.raises(DataError, match="no classified windows"):
            advisor.intersect([], [])
        with pytest.raises(DataError, match="no classified windows"):
            advisor.intersect(np.array([], dtype=int), np.array([], dtype=int))

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=80))
    def test_matches_per_pair_count(self, pairs):
        comfort = np.array([c for c, _ in pairs], dtype=int)
        fuel = np.array([f for _, f in pairs], dtype=int)
        if not pairs:
            with pytest.raises(DataError, match="no classified windows"):
                advisor.intersect(comfort, fuel)
            return
        table = advisor.intersect(comfort, fuel)
        assert table.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                assert table[i, j] == 100.0 * pairs.count((i, j)) / len(pairs)


def run_length_reference(pairs, k_stable):
    """(window index, pair) of each event: a run of at least ``k_stable`` equal
    pairs emits at ``run_start + k_stable - 1`` unless its pair was the last
    one emitted."""
    events, last, start = [], None, 0
    for i in range(1, len(pairs) + 1):
        if i < len(pairs) and pairs[i] == pairs[start]:
            continue
        if i - start >= k_stable and pairs[start] != last:
            last = pairs[start]
            events.append((start + k_stable - 1, last))
        start = i
    return events


@st.composite
def label_sequences(draw):
    """(pairs, k_stable): 0-60 windows drawn from a pool of 2-4 label pairs."""
    label_pair = st.tuples(st.sampled_from(advisor.LABELS), st.sampled_from(advisor.LABELS))
    pool = draw(st.lists(label_pair, min_size=2, max_size=4, unique=True))
    pairs = draw(st.lists(st.sampled_from(pool), max_size=60))
    return pairs, draw(st.integers(1, 5))


class TestStreamAdvise:
    def run(self, pairs, k_stable=3, n_x_neg=0):
        state = AdviceState(k_stable=k_stable)
        matrix = advisor.build_advice_matrix()
        events = []
        for i, pair in enumerate(pairs):
            ev = advisor.stream_advise(state, pair, i, n_x_neg, matrix)
            if ev is not None:
                events.append(ev)
        return events

    def test_emits_after_k_stable(self):
        events = self.run([("High", "Low")] * 5)
        assert len(events) == 1
        assert events[0].window_start == 2  # third consecutive window

    def test_no_reemission_of_same_pair(self):
        events = self.run([("High", "Low")] * 10)
        assert len(events) == 1

    def test_flapping_suppressed(self):
        pairs = [("High", "Low"), ("Low", "Low")] * 10
        assert self.run(pairs) == []

    def test_switch_after_stability(self):
        pairs = [("High", "Low")] * 3 + [("Low", "High")] * 3
        events = self.run(pairs)
        assert [(e.comfort, e.fuel) for e in events] \
            == [("High", "Low"), ("Low", "High")]
        assert events[1].window_start == 5

    def test_k_stable_one_emits_immediately(self):
        events = self.run([("Medium", "Medium")], k_stable=1)
        assert len(events) == 1 and events[0].window_start == 0

    def test_conditional_uses_triggering_window(self):
        events = self.run([("Low", "Low")] * 3, n_x_neg=1)
        assert events[0].lines == ["Keep driving style", "Avoid braking peaks"]

    def test_event_format(self):
        ev = self.run([("High", "Medium")] * 3)[0]
        s = ev.format()
        assert s.startswith("window_start=2 comfort=H fuel=M advice=")
        assert '"Release gas pedal / switch to a lower gear"' in s

    @settings(max_examples=200, deadline=None)
    @given(case=label_sequences())
    def test_matches_run_length_reference(self, case):
        pairs, k_stable = case
        events = self.run(pairs, k_stable=k_stable)
        got = [(e.window_start, (e.comfort, e.fuel)) for e in events]
        assert got == run_length_reference(pairs, k_stable)
        for (_, a), (_, b) in zip(got, got[1:]):
            assert a != b
        for i, pair in got:
            assert i >= k_stable - 1
            assert pairs[i - k_stable + 1:i + 1] == [pair] * k_stable
