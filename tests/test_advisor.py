"""Cluster profiling/labeling, improvement reports, advice matrix and the
advice event stream."""

import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoride import DataError, advisor


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


def profile_table(values, metric_names=("vr",)):
    """Per-cluster table of three clusters with the given averages on every metric."""
    return {"windows": np.full(3, 10), **{m: np.array(values, dtype=float)
                                          for m in metric_names}}


class TestImprovementReport:
    def test_pairwise_reductions(self):
        rows = advisor.improvement_report(list(advisor.LABELS),
                                          profile_table((1.0, 2.0, 4.0)), metrics=("vr",))
        got = {(current, target): reductions["vr"] for current, target, reductions in rows}
        assert got[("Medium", "Low")] == pytest.approx(50.0)
        assert got[("High", "Low")] == pytest.approx(75.0)
        assert got[("High", "Medium")] == pytest.approx(50.0)
        assert len(rows) == 3

    def test_tied_averages_keep_cluster_id_order(self):
        # clusters 0 and 1 tie: no row between them, cluster 0's rows come first
        rows = advisor.improvement_report(["Medium", "High", "Low"],
                                          profile_table((2.0, 2.0, 1.0)), metrics=("vr",))
        assert [(current, target) for current, target, _ in rows] \
            == [("Medium", "Low"), ("High", "Low")]
        assert [reductions["vr"] for _, _, reductions in rows] == [50.0, 50.0]

    def test_zero_current_average_named(self):
        # lateral acceleration logged as 0: msdv_y averages 0 in every cluster
        profile = profile_table((1.0, 2.0, 4.0), metric_names=("vr", "msdv_y"))
        profile["msdv_y"][:] = 0.0
        with pytest.raises(DataError, match="msdv_y averages 0 in the Medium cluster"):
            advisor.improvement_report(list(advisor.LABELS), profile,
                                       metrics=("vr", "msdv_y"))

    def test_csv_output(self, tmp_path):
        rows = advisor.improvement_report(list(advisor.LABELS),
                                          profile_table((1.0, 2.0, 4.0)), metrics=("vr",))
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
                lines = matrix[comfort, fuel, False]
                assert lines[0] == advisor.FUEL_ADVICE[fuel]
                if comfort == "Low":
                    assert len(lines) == 1
                else:
                    assert lines[1] == advisor.COMFORT_ADVICE[comfort]

    def test_braking_conditional_low_only(self):
        matrix = advisor.build_advice_matrix()
        with_peak = matrix["Low", "Low", True]
        assert with_peak == ["Keep driving style", "Avoid braking peaks"]
        # non-Low comfort rows are unchanged by the flag
        for comfort in ("Medium", "High"):
            assert matrix[comfort, "High", True] \
                == matrix[comfort, "High", False]


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


class Event(NamedTuple):
    driver: str
    window_start: int
    comfort: str
    fuel: str
    lines: list[str]


EVENT_LINE = re.compile(r'(\S+) window_start=(\d+) comfort=([LMH]) fuel=([LMH]) advice=(.*)')
BY_INITIAL = {label[0]: label for label in advisor.LABELS}


def parse_event(line):
    """An ``advice_events.txt`` line as an Event."""
    driver, start, comfort, fuel, advice = EVENT_LINE.fullmatch(line).groups()
    return Event(driver, int(start), BY_INITIAL[comfort], BY_INITIAL[fuel],
                 re.findall(r'"([^"]*)"', advice))


def classified_table(pairs, drivers=None, n_x_neg=0):
    """A classified fleet table over (comfort, fuel) label pairs; ``drivers``
    holds each row's driver index (all 0 if None), and ``window_start`` is the
    row's index within its driver."""
    n = len(pairs)
    driver = np.zeros(n, dtype=int) if drivers is None else np.asarray(drivers, dtype=int)
    _, first = np.unique(driver, return_index=True)
    return {"driver": driver,
            "window_start": np.arange(n) - np.repeat(first, np.diff(np.r_[first, n])),
            "comfort_label": np.array([advisor.LABELS.index(c) for c, _ in pairs], dtype=int),
            "fuel_label": np.array([advisor.LABELS.index(f) for _, f in pairs], dtype=int),
            "n_x_neg": np.broadcast_to(n_x_neg, (n,))}


class TestStreamAdvise:
    def run(self, pairs, k_stable=3, n_x_neg=0):
        lines = advisor.stream_advise(classified_table(pairs, n_x_neg=n_x_neg), ["d0"],
                                      k_stable=k_stable)
        return [parse_event(line) for line in lines]

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
        s, = advisor.stream_advise(classified_table([("High", "Medium")] * 3), ["d0"])
        assert s.startswith("d0 window_start=2 comfort=H fuel=M advice=")
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


@st.composite
def fleet_sequences(draw):
    """(per-driver pairs, k_stable): 0-4 drivers of 0-40 windows each, drawn
    from one pool of 2-3 label pairs, so that runs often continue across a
    driver boundary."""
    label_pair = st.tuples(st.sampled_from(advisor.LABELS), st.sampled_from(advisor.LABELS))
    pool = draw(st.lists(label_pair, min_size=2, max_size=3, unique=True))
    drivers = draw(st.lists(st.lists(st.sampled_from(pool), max_size=40), max_size=4))
    return drivers, draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(case=fleet_sequences())
def test_each_driver_streams_like_the_reference(case):
    drivers, k_stable = case
    pairs = [pair for driver_pairs in drivers for pair in driver_pairs]
    index = [d for d, driver_pairs in enumerate(drivers) for _ in driver_pairs]
    ids = [f"d{d}" for d in range(len(drivers))]
    lines = advisor.stream_advise(classified_table(pairs, drivers=index), ids,
                                  k_stable=k_stable)
    events = [parse_event(line) for line in lines]
    want = [(ids[d], i, pair) for d, driver_pairs in enumerate(drivers)
            for i, pair in run_length_reference(driver_pairs, k_stable)]
    assert [(e.driver, e.window_start, (e.comfort, e.fuel)) for e in events] == want
