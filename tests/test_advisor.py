"""Cluster profiling/labeling, improvement reports, advice matrix and the
streaming advice state machine."""

import numpy as np
import pytest

from ecoride import advisor
from ecoride.advisor import AdviceState, AdvisorError
from ecoride.comfort import WindowMetrics
from ecoride.som import ClusterPartition


def metrics_table(vr, fuel=3.0, driver="d0"):
    """One record's metrics with the given per-window VR values."""
    n = len(vr)
    zeros = np.zeros(n, dtype=int)
    return WindowMetrics(driver_id=driver, window_start=128 * np.arange(n),
                         msdv_x=np.full(n, 0.3), msdv_y=np.full(n, 0.6),
                         vr=np.asarray(vr, dtype=float), n_x_pos=zeros,
                         n_x_neg=zeros, n_y=zeros,
                         fuel=np.broadcast_to(np.asarray(fuel, dtype=float), (n,)))


def three_cluster_setup(vrs=(0.2, 0.5, 1.0), n_per=4):
    """Partition over 3 neurons, one cluster each; metrics grouped by vr."""
    part = ClusterPartition(cluster_count=3, assignment=np.array([0, 1, 2]))
    bmus = np.repeat(np.arange(3), n_per)
    vr = [v + 0.01 * i for v in vrs for i in range(n_per)]
    return part, bmus, [metrics_table(vr, fuel=2.0 + bmus)]


class TestProfileClusters:
    def test_averages_and_variances(self):
        part, bmus, metrics = three_cluster_setup()
        profiles = advisor.profile_clusters(part, bmus, metrics)
        assert len(profiles) == 3
        p0 = profiles[0]
        vals = metrics[0].vr[bmus == 0]
        assert p0.member_count == 4
        assert p0.averages["vr"] == pytest.approx(np.mean(vals))
        assert p0.variances["vr"] == pytest.approx(np.var(vals))

    def test_empty_cluster_errors(self):
        part = ClusterPartition(cluster_count=3, assignment=np.array([0, 1, 2]))
        with pytest.raises(AdvisorError, match="no member"):
            advisor.profile_clusters(part, [0, 0, 1, 1], [metrics_table([0.5] * 4)])

    def test_count_mismatch(self):
        part = ClusterPartition(cluster_count=1, assignment=np.array([0]))
        with pytest.raises(AdvisorError, match="differ"):
            advisor.profile_clusters(part, [0, 0], [metrics_table([0.5])])


class TestLabelClusters:
    def test_ascending_order(self):
        part, bmus, metrics = three_cluster_setup(vrs=(1.0, 0.2, 0.5))
        profiles = advisor.profile_clusters(part, bmus, metrics)
        labels = advisor.label_clusters(profiles, ordering_metric="vr")
        by_id = {p.cluster_id: p.label for p in profiles}
        assert by_id == {0: "High", 1: "Low", 2: "Medium"}
        assert labels == ["High", "Low", "Medium"]  # by cluster id

    def test_fuel_ordering(self):
        part, bmus, metrics = three_cluster_setup()
        profiles = advisor.profile_clusters(part, bmus, metrics)
        advisor.label_clusters(profiles, ordering_metric="fuel")
        assert [p.label for p in sorted(profiles, key=lambda p: p.averages["fuel"])] \
            == ["Low", "Medium", "High"]

    def test_wrong_cluster_count(self):
        with pytest.raises(AdvisorError):
            advisor.label_clusters([])


def labeled_profiles(values, metric_names=("vr",)):
    """Three labeled profiles with given averages on the first metric."""
    profiles = []
    for cid, (label, v) in enumerate(zip(advisor.LABELS, values)):
        avgs = {m: v for m in metric_names}
        profiles.append(advisor.ClusterProfile(
            cluster_id=cid, member_count=10, averages=avgs,
            variances={m: 0.0 for m in metric_names}, label=label))
    return profiles


class TestImprovementReport:
    def test_pairwise_reductions(self):
        rows = advisor.improvement_report(labeled_profiles((1.0, 2.0, 4.0)))
        got = {(r.current, r.target): r.reductions["vr"] for r in rows}
        assert got[("Medium", "Low")] == pytest.approx(50.0)
        assert got[("High", "Low")] == pytest.approx(75.0)
        assert got[("High", "Medium")] == pytest.approx(50.0)
        assert len(rows) == 3

    def test_requires_labels(self):
        profiles = labeled_profiles((1.0, 2.0, 3.0))
        profiles[0].label = None
        with pytest.raises(AdvisorError, match="label"):
            advisor.improvement_report(profiles)

    def test_csv_output(self, tmp_path):
        rows = advisor.improvement_report(labeled_profiles((1.0, 2.0, 4.0)))
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
        pairs = [("Low", "Low")] * 3 + [("High", "Medium")] * 1
        table = advisor.intersect(pairs)
        assert table[0, 0] == pytest.approx(75.0)
        assert table[2, 1] == pytest.approx(25.0)
        assert table.sum() == pytest.approx(100.0)

    def test_empty_errors(self):
        with pytest.raises(AdvisorError):
            advisor.intersect([])


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
