"""Acceptance suite: ten end-to-end criteria with printed PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line verdicts
as they are produced.  Every criterion asserts, so a plain pytest run fails
loudly too.
"""

import json
import re
import time

import numpy as np
import pytest

from ecoride import advisor, analytics, comfort, features, pipeline, som, synthgen, telemetry
from ecoride.som import LABELS, SomModel


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def profiles_from_averages(by_label: dict[str, dict[str, float]]):
    """(labels, per-cluster table): one cluster per label, in the given order."""
    metrics = next(iter(by_label.values()))
    return list(by_label), {"windows": np.full(len(by_label), 100),
                            **{m: np.array([avgs[m] for avgs in by_label.values()])
                               for m in metrics}}


class TestCriterion1TableConsistency:
    def test_improvement_percentages(self):
        t0 = time.perf_counter()
        main = profiles_from_averages({
            "Low": {"vr": 0.73, "msdv_y": 1.27},
            "Medium": {"vr": 0.81, "msdv_y": 1.36},
            "High": {"vr": 1.50, "msdv_y": 3.00},
        })
        rows = advisor.improvement_report(*main, metrics=("vr", "msdv_y"))
        got = {(current, target): reductions for current, target, reductions in rows}
        expected_vr = {("Medium", "Low"): 9.88, ("High", "Medium"): 46.0,
                       ("High", "Low"): 51.3}
        expected_my = {("Medium", "Low"): 6.62, ("High", "Medium"): 54.7,
                       ("High", "Low"): 57.7}
        ok = all(abs(got[k]["vr"] - v) <= 0.1 for k, v in expected_vr.items())
        ok &= all(abs(got[k]["msdv_y"] - v) <= 0.1 for k, v in expected_my.items())

        aux = profiles_from_averages({
            "Low": {"fuel": 2.30}, "Medium": {"fuel": 2.91},
            "High": {"fuel": 4.35},
        })
        fuel_rows = advisor.improvement_report(*aux, metrics=("fuel",))
        fuel_got = {(current, target): reductions["fuel"]
                    for current, target, reductions in fuel_rows}
        expected_fuel = {("Medium", "Low"): 21.0, ("High", "Medium"): 33.1,
                         ("High", "Low"): 47.1}
        ok &= all(abs(fuel_got[k] - v) <= 0.1 for k, v in expected_fuel.items())
        dt = time.perf_counter() - t0
        ok &= dt < 1.0
        verdict(1, ok, f"comfort/fuel improvement tables within 0.1 pp ({dt:.3f} s)")


class TestCriterion2VomitRate:
    def test_coefficients_and_homogeneity(self):
        t0 = time.perf_counter()
        ok = abs(comfort.vomit_rate(3.0, 0.0) - 1.0) < 1e-12
        ok &= abs(comfort.vomit_rate(0.0, 3.0) - np.sqrt(2.0)) < 1e-12

        wf = comfort.design_filter()
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(256)
            y = rng.standard_normal(256)
            c = float(rng.uniform(0.1, 10.0))
            base = comfort.vomit_rate(
                comfort.weighted_rms(comfort.apply_filter(wf, x)),
                comfort.weighted_rms(comfort.apply_filter(wf, y)))
            scaled = comfort.vomit_rate(
                comfort.weighted_rms(comfort.apply_filter(wf, c * x)),
                comfort.weighted_rms(comfort.apply_filter(wf, c * y)))
            worst = max(worst, abs(scaled - c * base) / (c * base))
        ok &= worst < 1e-9
        dt = time.perf_counter() - t0
        ok &= dt < 1.0
        verdict(2, ok, f"coefficients exact, worst homogeneity error "
                       f"{worst:.2e} ({dt:.3f} s)")


class TestCriterion3FilterContract:
    @staticmethod
    def gain(filt, freq):
        # long input so the slow high-pass transient has died out
        n = int(1200.0 * telemetry.SAMPLE_RATE_HZ)
        t = np.arange(n) / telemetry.SAMPLE_RATE_HZ
        y = comfort.apply_filter(filt, np.sin(2 * np.pi * freq * t))
        return float(np.max(np.abs(y[2 * n // 3:])))

    def test_dc_and_corners(self):
        t0 = time.perf_counter()
        wf = comfort.design_filter()
        low_corner, high_corner = comfort.FILTER_CORNERS
        dc_tail = abs(comfort.apply_filter(wf, np.ones(10_000))[-1])
        ok = dc_tail < 1e-3

        sweep = np.geomspace(low_corner, high_corner, 9)
        gains = [self.gain(wf, f) for f in sweep]
        passband_max = max(gains)
        for corner in (low_corner, high_corner):
            g = self.gain(wf, corner)
            target = 0.707 * passband_max
            ok &= abs(g - target) <= 0.10 * target
        dt = time.perf_counter() - t0
        ok &= dt < 10.0
        verdict(3, ok, f"w_f DC tail {dc_tail:.1e}, corner gains within 10% of "
                       f"0.707x passband max {passband_max:.3f} ({dt:.1f} s)")


class TestCriterion4WindowingArithmetic:
    @staticmethod
    def brute_force_count(n):
        count = 0
        start = 0
        while start + 256 <= n:
            count += 1
            start += 128
        return count

    def test_counts(self):
        ok = True
        details = []
        for n in (255, 256, 384, 512, 10000):
            channels = {name: np.full(max(n, 1), 90.0)
                        for name in ("VS", "XACC", "YACC", "FUEL")}
            rec = telemetry.DriveRecord(driver_id="w", channels=channels)
            got = len(telemetry.split_windows(rec))
            closed_form = 0 if n < 256 else (n - 256) // 128 + 1
            ok &= got == closed_form == self.brute_force_count(n)
            details.append(f"N={n}:{got}")
        verdict(4, ok, "window counts match closed form and enumerator "
                       f"({', '.join(details)})")


class TestCriterion5SomDeterminism:
    def test_bitwise_identity_and_convergence(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        blobs = np.vstack([rng.normal(c, 0.4, size=(100, 3))
                           for c in ((0, 0, 0), (5, 0, 2), (0, 5, 4))])
        runs = []
        for _ in range(2):
            grid = som.init_random(15, 15, blobs, seed=1)
            [(trained, history, _)] = som.train(
                [grid], [blobs], som.default_schedule(len(blobs), 15, 15), [2])
            runs.append((trained.weights, history))
        identical = np.array_equal(runs[0][0], runs[1][0]) \
            and runs[0][1] == runs[1][1]
        history = runs[0][1]
        converged = history[-1] <= 0.5 * history[0]
        dt = time.perf_counter() - t0
        ok = identical and converged and dt < 30.0
        verdict(5, ok, f"bitwise-identical retrain, QE {history[0]:.3f} -> "
                       f"{history[-1]:.3f} ({dt:.1f} s)")


@pytest.fixture(scope="module")
def style_corpus():
    """9-style corpus with >= 200 windows per style (900 s at 32 Hz)."""
    labeled = []
    for label, spec in synthgen.style_grid(base_seed=0, duration=900.0):
        labeled.append((label, synthgen.generate(spec, driver_id=label)))
    return labeled


class TestCriterion6ClusteringPurity:
    def test_both_maps_agree_with_generator(self, style_corpus):
        t0 = time.perf_counter()
        records = [rec for _, rec in style_corpus]
        fleet = pipeline.analyze_fleet(records)
        result = pipeline.train_models(fleet, seed=7)

        level_to_label = {0: "Low", 1: "Medium", 2: "High"}
        classified = advisor.classify_window(fleet, [model for model, _ in result])
        comfort_hits = fuel_hits = 0
        for driver, (label, _) in enumerate(style_corpus):  # label: "c<i>_f<j>"
            rows = fleet["driver"] == driver
            want_comfort = level_to_label[int(label[1])]
            want_fuel = level_to_label[int(label[4])]
            comfort_hits += np.sum(classified["comfort_label"][rows] == LABELS.index(want_comfort))
            fuel_hits += np.sum(classified["fuel_label"][rows] == LABELS.index(want_fuel))
        total = len(fleet["driver"])
        windows_per_style = np.bincount(fleet["driver"], minlength=len(records)).min()
        c_agree = comfort_hits / total
        f_agree = fuel_hits / total
        dt = time.perf_counter() - t0
        ok = windows_per_style >= 200 and c_agree >= 0.85 and f_agree >= 0.85 \
            and dt < 120.0
        verdict(6, ok, f"{windows_per_style}+ windows/style, comfort agreement "
                       f"{c_agree:.1%}, fuel agreement {f_agree:.1%} ({dt:.1f} s)")


class TestCriterion7AdviceMatrix:
    GOLDEN = {
        ("High", "High"): ["Keep gas pedal steady / switch to a higher gear",
                           "Operate steering wheel more smoothly"],
        ("High", "Medium"): ["Release gas pedal / switch to a lower gear",
                             "Operate steering wheel more smoothly"],
        ("High", "Low"): ["Keep driving style",
                          "Operate steering wheel more smoothly"],
        ("Medium", "High"): ["Keep gas pedal steady / switch to a higher gear",
                             "Release gas pedal"],
        ("Medium", "Medium"): ["Release gas pedal / switch to a lower gear",
                               "Release gas pedal"],
        ("Medium", "Low"): ["Keep driving style", "Release gas pedal"],
        ("Low", "High"): ["Keep gas pedal steady / switch to a higher gear"],
        ("Low", "Medium"): ["Release gas pedal / switch to a lower gear"],
        ("Low", "Low"): ["Keep driving style"],
    }

    def test_golden_strings(self):
        matrix = advisor.build_advice_matrix()
        ok = True
        for (c, f), want in self.GOLDEN.items():
            ok &= matrix[c, f, False] == want
            with_peak = matrix[c, f, True]
            if c == "Low":
                ok &= with_peak == want + ["Avoid braking peaks"]
            else:
                ok &= with_peak == want
        verdict(7, ok, "all 9 advice cells string-match the golden matrix, "
                       "braking-peak line conditional on Low discomfort only")


EVENT_LINE = re.compile(r'd0 window_start=(?P<start>\d+) comfort=(?P<comfort>[LMH]) '
                        r'fuel=(?P<fuel>[LMH]) advice=(?P<advice>.*)')


class TestCriterion8AdviceStability:
    @staticmethod
    def oracle(pairs, peaks, k_stable=3):
        """Independent trace oracle for the stability state machine."""
        events = []
        last = None
        candidate = None
        streak = 0
        for i, pair in enumerate(pairs):
            if pair == candidate:
                streak += 1
            else:
                candidate, streak = pair, 1
            if streak >= k_stable and pair != last:
                last = pair
                events.append((i, pair, peaks[i] >= 1))
        return events

    def test_matches_oracle(self):
        labels = advisor.LABELS
        initial = {label[0]: label for label in labels}
        matrix = advisor.build_advice_matrix()
        ok = True
        for seq_seed in range(20):
            rng = np.random.default_rng(1000 + seq_seed)
            pairs = [(labels[rng.integers(3)], labels[rng.integers(3)])
                     for _ in range(100)]
            peaks = rng.integers(0, 3, size=100)
            table = {"driver": np.zeros(100, dtype=int), "window_start": np.arange(100),
                     "comfort_label": np.array([labels.index(c) for c, _ in pairs]),
                     "fuel_label": np.array([labels.index(f) for _, f in pairs]),
                     "n_x_neg": peaks}
            got = []
            for line in advisor.stream_advise(table, ["d0"], k_stable=3):
                event = EVENT_LINE.fullmatch(line)
                got.append((int(event["start"]),
                            (initial[event["comfort"]], initial[event["fuel"]]),
                            re.findall(r'"([^"]*)"', event["advice"])))
            want = self.oracle(pairs, peaks)
            ok &= len(got) == len(want)
            for (gi, gpair, glines), (wi, wpair, wpeak) in zip(got, want):
                ok &= (gi, gpair) == (wi, wpair)
                ok &= glines == matrix[(*wpair, wpeak)]
        verdict(8, ok, "stream_advise matches the trace oracle on 20 seeded "
                       "sequences of length 100")


class TestCriterion9KdeSanity:
    def test_integral_and_mode(self):
        ok = True
        worst_integral = 1.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = np.column_stack([rng.normal(3.0, 0.5, 4000),
                                   rng.normal(0.8, 0.2, 4000)])
            integral = analytics.kde2d(pts).integral()
            worst_integral = min(worst_integral, integral)
            ok &= 0.95 <= integral <= 1.05
            # mode location on a grid coarse enough that KDE sampling jitter
            # stays below one cell
            surface = analytics.kde2d(pts, resolution=16)
            iy, ix = np.unravel_index(int(np.argmax(surface.density)),
                                      surface.density.shape)
            mx, my = surface.x_grid[ix], surface.y_grid[iy]
            dx = float(surface.x_grid[1] - surface.x_grid[0])
            dy = float(surface.y_grid[1] - surface.y_grid[0])
            ok &= abs(mx - pts[:, 0].mean()) <= dx
            ok &= abs(my - pts[:, 1].mean()) <= dy
        verdict(9, ok, f"KDE integrals >= {worst_integral:.3f}, modes within "
                       "one grid cell of the sample mean")


class TestCriterion10ModelRoundTrip:
    def test_byte_identity_and_classification(self, small_corpus, tmp_path):
        fleet = pipeline.analyze_fleet(small_corpus)
        result = pipeline.train_models(fleet, seed=5)
        ok = True
        for tag, (model, _) in zip(("main", "aux"), result):
            p1 = tmp_path / f"{tag}1.json"
            p2 = tmp_path / f"{tag}2.json"
            model.save(p1)
            loaded = SomModel.load(p1)
            loaded.save(p2)
            ok &= p1.read_bytes() == p2.read_bytes()
            vectors = features.feature_matrix(fleet, model.feature_names)
            ok &= np.array_equal(model.labels_at(model.bmu_indices(vectors[:200])),
                                 loaded.labels_at(loaded.bmu_indices(vectors[:200])))
        verdict(10, ok, "save->load->save byte-identical, classifications "
                        "unchanged across the round trip")
