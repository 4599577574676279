"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
``ecoride`` module namespace that holds it (so ``from .advisor import
intersect`` bindings are traced too) and ``uninstall`` puts the originals
back.  A span is ``[name, parent, run, start, end, count]``; spans stay in
memory and are written once, when the run ends.

Per-window and per-pair helpers (``comfort.weighted_rms``, ``count_peaks``,
``vomit_rate``, ``features.pearson``, ``som.hex_distance``) are not wrapped:
at tens of thousands of calls their spans would cost more than the work they
time.  Their time is the self time of the function that calls them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

NAME, PARENT, RUN, START, END, COUNT = range(6)


def _paths_written(args, kwargs, result) -> int:
    """Bytes in the files a writer was handed, measured after it returned."""
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def _targets():
    """(owner, attribute, span name, count function) for every traced callable."""
    from ecoride import advisor, analytics, comfort, features, pipeline, som, synthgen, telemetry

    n_result = lambda a, k, r: len(r)             # noqa: E731
    n_windows = lambda a, k, r: len(a[1])         # noqa: E731
    out = [
        (telemetry, "load_csv", None, lambda a, k, r: len(r[0].timestamps) if r else 0),
        (telemetry, "resample", None, None),
        (telemetry, "split_windows", None, n_result),
        (telemetry, "filter_by_mean_speed", None, n_result),
        (comfort, "design_filter", None, None),
        (comfort, "apply_filter", None, None),
        (comfort, "msdv", None, None),
        (comfort, "window_metrics", None, n_windows),
        (features, "compute_features", None, n_windows),
        (features, "feature_matrix", None, None),
        (features, "correlation_table", None, None),
        (features, "fit_normalizer", None, None),
        (pipeline, "analyze_record", None, None),
        (pipeline, "train_models", None, None),
        (pipeline, "classify_all", None, None),
        (som, "init_random", None, None),
        (som, "train", None, lambda a, k, r: a[2].total_iterations),
        (som, "quantization_error", None, None),
        (som, "grid_distance_matrix", None, None),
        (som, "hit_histogram", None, None),
        (som, "cluster_prototypes", None, None),
        (som, "bmu", None, None),
        (som, "u_matrix", None, None),
        (advisor, "classify_window", None, None),
        (advisor, "profile_clusters", None, None),
        (advisor, "label_clusters", None, None),
        (advisor, "improvement_report", None, None),
        (advisor, "build_advice_matrix", None, None),
        (advisor, "intersect", None, None),
        (advisor, "stream_advise", None, lambda a, k, r: int(r is not None)),
        (analytics, "driver_summary", None, None),
        (analytics, "kde2d", None, None),
        (analytics, "driver_heatmap", None, None),
        (synthgen, "generate", None, None),
        (synthgen, "write_csv", None, None),
        (som.SomModel, "load", "io.model_load", None),
        (som.SomModel, "save", "io.write.SomModel.save", _paths_written),
    ]
    for module in (advisor, analytics, comfort, features):
        for attr in sorted(vars(module)):
            if attr.startswith("write_"):
                out.append((module, attr, f"io.write.{module.__name__.split('.')[-1]}.{attr}",
                            _paths_written))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str):
        """Context manager recording one span around the benchmark's own code."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(self.index)
                return False

        return _Span()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.run, perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.spans[index][COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ecoride" or n.startswith("ecoride."))]
        for owner, attr, name, count in _targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    wrapped = self._wrap(raw, name, count)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name or f"{owner.__name__.split('.')[-1]}.{attr}",
                                 count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, run, start, end, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "run": run,
                                     "start": start, "end": end, "count": count}) + "\n")


def summarize(spans: list[list], rounds: int, setups: int) -> dict[str, float]:
    """Per-layer figures per round (per set-up for ``synthgen``) from the spans."""
    busy = defaultdict(float)
    calls = defaultdict(int)
    counted = defaultdict(int)
    self_time = defaultdict(float)
    for s in spans:
        duration = s[END] - s[START]
        busy[s[NAME]] += duration
        calls[s[NAME]] += 1
        counted[s[NAME]] += s[COUNT] or 0
        self_time[s[NAME]] += duration
        if s[PARENT] is not None:
            self_time[spans[s[PARENT]][NAME]] -= duration

    def per_round(value):
        return value / rounds

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {}
    for name in ("telemetry.load_csv", "telemetry.resample", "comfort.window_metrics",
                 "features.compute_features", "features.correlation_table",
                 "pipeline.analyze_record", "pipeline.train_models", "som.train",
                 "som.quantization_error", "som.grid_distance_matrix", "som.hit_histogram",
                 "som.cluster_prototypes", "som.bmu", "advisor.classify_window",
                 "advisor.profile_clusters", "advisor.stream_advise", "analytics.kde2d",
                 "analytics.driver_summary", "io.model_load"):
        m[f"{name}.s"] = per_round(busy[name])
    for name in ("synthgen.generate", "synthgen.write_csv"):
        m[f"{name}.s"] = busy[name] / setups
    for name in ("telemetry.load_csv", "pipeline.analyze_record", "som.quantization_error",
                 "som.bmu"):
        m[f"{name}.calls"] = per_round(calls[name])
    m["telemetry.load_csv.rows"] = per_round(counted["telemetry.load_csv"])
    m["telemetry.load_csv.rows_per_s"] = rate(counted["telemetry.load_csv"],
                                              busy["telemetry.load_csv"])
    m["telemetry.windowing.s"] = per_round(
        busy["telemetry.split_windows"] + busy["telemetry.filter_by_mean_speed"])
    formed = counted["telemetry.split_windows"]
    kept = counted["telemetry.filter_by_mean_speed"]
    m["telemetry.windows_formed"] = per_round(formed)
    m["telemetry.windows_kept"] = per_round(kept)
    m["telemetry.speed_filter.keep_ratio"] = rate(kept, formed)
    for name in ("comfort.window_metrics", "features.compute_features"):
        m[f"{name}.windows_per_s"] = rate(counted[name], busy[name])
    m["advisor.classify_window.windows_per_s"] = rate(calls["advisor.classify_window"],
                                                      busy["advisor.classify_window"])
    m["som.train.iterations"] = per_round(counted["som.train"])
    m["som.train.iterations_per_s"] = rate(counted["som.train"], busy["som.train"])
    m["advisor.events"] = per_round(counted["advisor.stream_advise"])
    m["trace.spans"] = per_round(sum(v for n, v in calls.items()
                                     if not n.startswith("synthgen.")))
    writers = [n for n in busy if n.startswith("io.write.")]
    m["io.write.s"] = per_round(sum(busy[n] for n in writers))
    m["io.write.bytes"] = per_round(sum(counted[n] for n in writers))
    for command in ("train", "classify", "advise", "report", "correlate"):
        m[f"cli.{command}.self_s"] = per_round(self_time[f"cli.{command}"])
    for layer in ("telemetry", "comfort", "features", "pipeline", "som", "advisor",
                  "analytics", "io", "synthgen"):
        total = sum(v for n, v in self_time.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = total / setups if layer == "synthgen" else per_round(total)
    return m
