"""Spans around the public functions of each floss layer, installed from outside.

A wrapper replaces a function at the name its callers look up, records one
span (name, start, end, parent) per call and adds to the layer's counter.
Spans stay in memory until the job ends.  A name that a later refactor
removes is skipped: its metrics go missing and the job still runs.
"""
from __future__ import annotations

import functools
import importlib
import os
import time


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) > 1 else 1


#: (module, attribute, span, counter, amount(args, result)).  A function
#: imported into several modules is wrapped at each binding that a job's
#: call path uses: ``floss.mobility.stat_features`` and
#: ``floss.features.stat_features`` are two names for one function.
WRAPPED = (
    ("floss.features", "stat_features", "features.stat_features",
     "features.stat_features_rows", lambda a, r: _rows(a[0])),
    ("floss.mobility", "stat_features", "features.stat_features",
     "features.stat_features_rows", lambda a, r: _rows(a[0])),
    ("floss.features", "spectrogram", "features.spectrogram", None, None),
    ("floss.usability", "epoch_feature_matrix", "features.epoch_feature_matrix",
     "features.matrix_rows", lambda a, r: _rows(r[0])),
    ("floss.gbt", "fit", "gbt.fit",
     "gbt.trees_fit", lambda a, r: sum(len(row) for row in r.trees)),
    ("floss.gbt", "predict_label", "gbt.predict", "gbt.predict_rows", lambda a, r: _rows(a[1])),
    ("floss.gbt", "load_model", "gbt.load_model", None, None),
    ("floss.gbt", "save_model", "gbt.save_model", None, None),
    ("floss.report", "score_recording", "usability.score_recording", None, None),
    ("floss.cli", "train_usability", "usability.train_usability", None, None),
    ("floss.report", "classify_mobility", "mobility.classify_mobility", None, None),
    ("floss.report", "detect_tib", "mobility.detect_tib", None, None),
    ("floss.svg", "render_usability_graph", "svg.render_usability_graph",
     "svg.bytes", lambda a, r: len(r.encode())),
    ("floss.svg", "render_hypnogram", "svg.render_hypnogram",
     "svg.bytes", lambda a, r: len(r.encode())),
    ("floss.report", "rejected_scores", "aggregate.rejected_scores", None, None),
    ("floss.report", "compute_stats", "sleepstats.compute_stats", None, None),
    ("floss.report", "process_night", "report.process_night", None, None),
    ("floss.report", "apply_zero_phase", "spiky.apply_zero_phase",
     "spiky.samples_filtered", lambda a, r: len(r)),
    ("floss.report", "read_edf", "signal_io.read_edf",
     "signal_io.bytes_read", lambda a, r: os.path.getsize(a[0])),
    ("floss.cli", "read_edf", "signal_io.read_edf",
     "signal_io.bytes_read", lambda a, r: os.path.getsize(a[0])),
    ("floss.report", "read_csv", "signal_io.read_csv",
     "signal_io.bytes_read", lambda a, r: os.path.getsize(a[0])),
    ("floss.cli", "read_csv", "signal_io.read_csv",
     "signal_io.bytes_read", lambda a, r: os.path.getsize(a[0])),
    ("floss.report", "write_edf", "signal_io.write_edf",
     "signal_io.bytes_written", lambda a, r: os.path.getsize(a[1])),
    ("floss.cli", "write_edf", "signal_io.write_edf",
     "signal_io.bytes_written", lambda a, r: os.path.getsize(a[1])),
    ("floss.report", "write_csv", "signal_io.write_csv",
     "signal_io.bytes_written", lambda a, r: os.path.getsize(a[1])),
    ("floss.cli", "write_csv", "signal_io.write_csv",
     "signal_io.bytes_written", lambda a, r: os.path.getsize(a[1])),
    ("floss.cli", "build_epochs", "epoching.build_epochs", "epoching.epochs_built", lambda a, r: len(r)),
    ("floss.cli", "balance_rus", "epoching.balance_rus", None, None),
    ("floss.synth", "gen_labeled_dataset", "synth.gen_labeled_dataset", None, None),
)

#: per-layer metric -> (unit, kind, span); kind is
#:   "total"  summed duration of the span's calls
#:   "self"   summed duration minus the time of the span's child spans
#:   "calls"  number of calls
#:   "count"  the counter of that name, fed by the span's wrappers
#: A metric is reported when a wrapper of its span could be installed.
LAYER_METRICS = {
    "features.stat_features_s": ("s", "total", "features.stat_features"),
    "features.stat_features_calls": ("count", "calls", "features.stat_features"),
    "features.stat_features_rows": ("count", "count", "features.stat_features"),
    "features.spectrogram_s": ("s", "total", "features.spectrogram"),
    "features.spectrogram_calls": ("count", "calls", "features.spectrogram"),
    "features.matrix_rows": ("count", "count", "features.epoch_feature_matrix"),
    "gbt.fit_s": ("s", "total", "gbt.fit"),
    "gbt.trees_fit": ("count", "count", "gbt.fit"),
    "gbt.predict_s": ("s", "total", "gbt.predict"),
    "gbt.predict_rows": ("count", "count", "gbt.predict"),
    "gbt.load_model_s": ("s", "total", "gbt.load_model"),
    "gbt.save_model_s": ("s", "total", "gbt.save_model"),
    "usability.score_recording_self_s": ("s", "self", "usability.score_recording"),
    "usability.train_usability_self_s": ("s", "self", "usability.train_usability"),
    "mobility.classify_mobility_s": ("s", "total", "mobility.classify_mobility"),
    "mobility.detect_tib_s": ("s", "total", "mobility.detect_tib"),
    "svg.render_usability_graph_s": ("s", "total", "svg.render_usability_graph"),
    "svg.render_hypnogram_s": ("s", "total", "svg.render_hypnogram"),
    "svg.bytes": ("B", "count", "svg.render_usability_graph"),
    "aggregate.rejected_scores_s": ("s", "total", "aggregate.rejected_scores"),
    "sleepstats.compute_stats_s": ("s", "total", "sleepstats.compute_stats"),
    "report.process_night_self_s": ("s", "self", "report.process_night"),
    "spiky.apply_zero_phase_s": ("s", "total", "spiky.apply_zero_phase"),
    "spiky.samples_filtered": ("count", "count", "spiky.apply_zero_phase"),
    "signal_io.read_edf_s": ("s", "total", "signal_io.read_edf"),
    "signal_io.write_edf_s": ("s", "total", "signal_io.write_edf"),
    "signal_io.read_csv_s": ("s", "total", "signal_io.read_csv"),
    "signal_io.write_csv_s": ("s", "total", "signal_io.write_csv"),
    "signal_io.bytes_read": ("B", "count", "signal_io.read_edf"),
    "signal_io.bytes_written": ("B", "count", "signal_io.write_edf"),
    "epoching.build_epochs_s": ("s", "total", "epoching.build_epochs"),
    "epoching.epochs_built": ("count", "count", "epoching.build_epochs"),
    "epoching.balance_rus_s": ("s", "total", "epoching.balance_rus"),
    "synth.gen_labeled_dataset_s": ("s", "total", "synth.gen_labeled_dataset"),
}

#: metrics derived from the ones above or from the untraced job, with units
DERIVED_METRICS = {
    "gbt.fit_s_per_tree": "s/tree",
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects the spans and counters of one traced job."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.epoch_labels: dict[str, dict[int, int]] = {}
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, fn, span: str, counter: str | None, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([span, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counts[counter] = self.counts.get(counter, 0) + amount(args, result)
            if span == "epoching.build_epochs":
                for s in result:
                    key = f"{s.night_id}/{s.channel}"
                    self.epoch_labels.setdefault(key, {})[s.epoch_index] = int(s.label)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED that the imported package still has."""
        for module_name, attr, span, counter, amount in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, span, counter, amount))
                self.installed.add(span)

    def dump(self, wall_s: float) -> dict:
        return {
            "wall_s": wall_s,
            "spans": self.spans,
            "counts": self.counts,
            "installed": sorted(self.installed),
            "epoch_labels": {
                key: [labels[i] for i in sorted(labels)] for key, labels in self.epoch_labels.items()
            },
        }


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its dumped spans."""
    spans = dump["spans"]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            covered += end - start
    for (name, start, end, _), children in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - children
        calls[name] = calls.get(name, 0) + 1

    sources = {"total": total, "self": self_time, "calls": calls}
    installed = set(dump["installed"])
    out: dict[str, float] = {}
    for metric, (_, kind, span) in LAYER_METRICS.items():
        if span in installed:
            value = dump["counts"].get(metric, 0) if kind == "count" else sources[kind].get(span, 0)
            out[metric] = value
    if "gbt.fit_s" in out:
        trees = out["gbt.trees_fit"]
        out["gbt.fit_s_per_tree"] = out["gbt.fit_s"] / trees if trees else 0.0
    out["trace.coverage"] = covered / dump["wall_s"]
    return out
