"""The benchmark's four workloads: their inputs, their floss command and their checks.

Inputs come from ``floss.synth`` under the run's seed and are written to
files; floss receives only those files.  Each workload runs one ``floss``
command per round, serially, with one worker.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import checks
from checks import require

HERE = Path(__file__).resolve().parent
MODELS = HERE / "models"
USABILITY_MODEL = MODELS / "usability_default.json"
MOBILITY_MODEL = MODELS / "mobility.json"

FS = 256.0
EPOCH_S = 10.0
SLEEP_EPOCH_S = 30.0
CHANNELS = ("EEG L", "EEG R")
#: Lights Out and Lights On may fall this many usability epochs outside the
#: generator's Lying span
TIB_TOLERANCE_EPOCHS = 3


def digest(out_dir: Path) -> str:
    """One hash over the names and bytes of every file a round wrote."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _epoch_classes(spans, channel: str, n_epochs: int) -> np.ndarray:
    """The generator's class of every epoch of one channel (0 where no span)."""
    classes = np.zeros(n_epochs, dtype=np.int64)
    for span in spans:
        if span.channel == channel:
            classes[int(span.start_s / int(EPOCH_S))] = int(span.label)
    return classes


def _night(seed: int, index: int, n_epochs: int):
    """A generated night plus the per-channel truth the checks score against."""
    from floss import synth

    rec, spans, sleep, states = synth.gen_night(
        subject_index=index, n_epochs=n_epochs, fs=FS, epoch_len_s=EPOCH_S,
        sleep_epoch_len_s=SLEEP_EPOCH_S, channels=CHANNELS, seed=seed,
    )
    truth = {ch: _epoch_classes(spans, ch, n_epochs) for ch in CHANNELS}
    return rec, spans, np.asarray(sleep), [int(s) for s in states], truth


def _heldout_quality(model_path: Path, seed: int) -> None:
    """Score a model on synthetic epochs drawn under another seed than training."""
    from floss import gbt, synth
    from floss.features import SpectrogramConfig, epoch_feature_matrix

    samples = synth.gen_labeled_dataset(4, 25, FS, EPOCH_S, seed + 100_003)
    X, _ = epoch_feature_matrix(
        np.stack([s.eeg for s in samples]), np.stack([s.acc_norm for s in samples]),
        SpectrogramConfig(fs=FS), include_stats=True,
    )
    pred = gbt.predict_label(gbt.load_model(model_path), X)
    checks.require_quality(np.array([int(s.label) for s in samples]), pred, "held-out epochs")


def _check_tree_count(model_path: Path, iterations: int) -> None:
    trees = json.loads(model_path.read_text())["trees"]
    shape = [len(row) for row in trees]
    require(shape == [5] * iterations, f"model holds trees {shape}, want {iterations} x 5")


class Workload:
    name = ""
    models: tuple[Path, ...] = ()

    def prepare(self, seed: int, inputs: Path) -> None:
        """Write this run's inputs under ``inputs``."""

    def args(self, out: Path) -> list[str]:
        """The floss arguments of one round writing into ``out``."""
        raise NotImplementedError

    def epochs(self) -> int:
        """10-s channel-epochs one round carries through."""
        raise NotImplementedError

    def check(self, out: Path) -> None:
        """Check one round's outputs."""

    def check_trace(self, dump: dict) -> None:
        """Check what a traced round saw inside the job."""


class ReportEdf8h(Workload):
    name = "report_edf_8h"
    models = (USABILITY_MODEL, MOBILITY_MODEL)
    n_nights = 1
    n_epochs = 2880  # 8 h of 10-s epochs

    def prepare(self, seed: int, inputs: Path) -> None:
        from floss.mobility import MobilityState
        from floss.signal_io import write_edf

        self.inputs = inputs
        self.nights = {}
        for i in range(self.n_nights):
            stem = f"n{i:02d}"
            rec, _, sleep, states, truth = _night(seed, i, self.n_epochs)
            write_edf(rec, inputs / f"{stem}.edf")
            (inputs / f"{stem}_sleep.txt").write_text("\n".join(str(v) for v in sleep) + "\n")
            lying = np.flatnonzero(np.asarray(states) == int(MobilityState.LYING))
            self.nights[stem] = (sleep, truth, int(lying[0]), int(lying[-1]) + 1)

    def args(self, out: Path) -> list[str]:
        return ["report", "--input", str(self.inputs), "--out", str(out),
                "--model", str(USABILITY_MODEL), "--mobility-model", str(MOBILITY_MODEL),
                "--despike"]

    def epochs(self) -> int:
        return self.n_nights * len(CHANNELS) * self.n_epochs

    def check(self, out: Path) -> None:
        from floss.spiky import design_cascade

        summary = json.loads((out / "report.json").read_text())
        require(summary["ok"] == self.n_nights and summary["skipped"] == 0,
                f"report.json: {summary['ok']} ok, {summary['skipped']} skipped")
        cascade = design_cascade(FS)
        checks.check_notches(cascade.b, cascade.a, FS)
        truths, preds = [], []
        for night in summary["nights"]:
            stem = night["night_id"]
            sleep, truth, lying_start, lying_end = self.nights[stem]
            for name in night["outputs"]:
                require((out / name).is_file(), f"{name} is listed but missing")
            wanted = {f"{stem}_{s}" for s in ("usability.csv", "usability.svg", "mobility.csv",
                                              "rejected.txt", "rejected.csv", "stats.json",
                                              "hypnogram.svg", "despiked.edf")}
            require(wanted <= set(night["outputs"]), f"{stem}: outputs {night['outputs']}")

            labels = checks.read_usability_csv(out / f"{stem}_usability.csv")
            require(sorted(labels) == sorted(CHANNELS), f"{stem}: channels {sorted(labels)}")
            for ch in CHANNELS:
                require(len(labels[ch]) == self.n_epochs, f"{stem} {ch}: {len(labels[ch])} epochs")
                require(set(np.unique(labels[ch])) <= set(range(5)), f"{stem} {ch}: labels outside 0-4")
                truths.append(truth[ch])
                preds.append(labels[ch])

            rejected = np.array(
                [int(v) for v in (out / f"{stem}_rejected.txt").read_text().split()])
            stacked = np.stack([labels[ch] for ch in CHANNELS])
            expected = checks.rejected_reference(stacked, sleep, int(SLEEP_EPOCH_S // EPOCH_S))
            require(np.array_equal(rejected, expected), f"{stem}_rejected.txt differs from the re-derivation")

            stats = checks.check_stats(out / f"{stem}_stats.json", rejected, SLEEP_EPOCH_S / 60)
            # Time in bed lies within the generator's Lying span; see the
            # README for why the ends are not required to meet its edges.
            lo = (lying_start - TIB_TOLERANCE_EPOCHS) * EPOCH_S
            hi = (lying_end + TIB_TOLERANCE_EPOCHS) * EPOCH_S
            require(lo <= stats["Lights_out_sec"] < stats["Lights_on_sec"] <= hi,
                    f"{stem}: time in bed {stats['Lights_out_sec']}-{stats['Lights_on_sec']} s "
                    f"is not within the Lying span {lying_start * EPOCH_S}-{lying_end * EPOCH_S} s")

            raw = checks.decode_edf(self.inputs / f"{stem}.edf")
            clean = checks.decode_edf(out / f"{stem}_despiked.edf")
            require(sorted(raw) == sorted(clean), f"{stem}: despiked signals {sorted(clean)}")
            for label, (x, _) in raw.items():
                y, step = clean[label]
                if label in CHANNELS:
                    checks.check_zero_phase(cascade.b, cascade.a, x, y, step, f"{stem} {label}")
                else:
                    require(np.array_equal(x, y), f"{stem}: {label} changed by despiking")
            for svg in ("usability.svg", "hypnogram.svg"):
                checks.check_xml(out / f"{stem}_{svg}")
        checks.require_quality(np.concatenate(truths), np.concatenate(preds), "usability labels")


class TrainSynth(Workload):
    name = "train_synth"
    subjects = 4
    epochs_per_class = 40
    iterations = 4

    def prepare(self, seed: int, inputs: Path) -> None:
        self.seed = seed

    def args(self, out: Path) -> list[str]:
        return ["train", "--out", str(out / "model.json"), "--kind", "usability",
                "--variant", "default", "--subjects", str(self.subjects),
                "--epochs-per-class", str(self.epochs_per_class),
                "--iterations", str(self.iterations), "--seed", str(self.seed)]

    def epochs(self) -> int:
        return self.subjects * self.epochs_per_class * 5

    def check(self, out: Path) -> None:
        _check_tree_count(out / "model.json", self.iterations)
        _heldout_quality(out / "model.json", self.seed)


class TrainLabelledEdf(TrainSynth):
    name = "train_labelled_edf"
    n_nights = 1
    n_epochs = 720  # 2 h of 10-s epochs
    iterations = 1
    #: balance_rus leaves half the rows Usable, so the base score favours it by
    #: log 4; one round at the default eta of 0.01 cannot overturn that
    eta = 0.5

    def prepare(self, seed: int, inputs: Path) -> None:
        from floss.epoching import write_annotations
        from floss.signal_io import write_edf

        self.seed = seed
        self.inputs = inputs
        self.truth = {}
        for i in range(self.n_nights):
            stem = f"n{i:02d}"
            rec, spans, _, _, truth = _night(seed, i, self.n_epochs)
            write_edf(rec, inputs / f"{stem}.edf")
            write_annotations(spans, inputs / f"{stem}_labels.csv")
            self.truth.update({f"{stem}/{ch}": labels.tolist() for ch, labels in truth.items()})

    def args(self, out: Path) -> list[str]:
        return ["train", "--out", str(out / "model.json"), "--input", str(self.inputs),
                "--iterations", str(self.iterations), "--eta", str(self.eta),
                "--seed", str(self.seed)]

    def epochs(self) -> int:
        return self.n_nights * len(CHANNELS) * self.n_epochs

    def check_trace(self, dump: dict) -> None:
        require(dump["epoch_labels"] == self.truth,
                "build_epochs labels differ from the generator's epoch classes")


class DespikeCsv(Workload):
    name = "despike_csv"
    n_epochs = 120  # 20 min of 10-s epochs

    def prepare(self, seed: int, inputs: Path) -> None:
        rec, _, _, _, _ = _night(seed, 0, self.n_epochs)
        columns = [np.arange(rec.n_samples) / rec.fs] + [ch.samples for ch in rec.channels]
        columns += list(rec.acc.axes)
        header = ["t_s", *CHANNELS, "accX", "accY", "accZ"]
        lines = [",".join(header)]
        lines += [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
        self.input = inputs / "night.csv"
        self.input.write_text("\n".join(lines) + "\n")

    def args(self, out: Path) -> list[str]:
        return ["despike", "--input", str(self.input), "--out", str(out / "clean.csv")]

    def epochs(self) -> int:
        return len(CHANNELS) * self.n_epochs

    def check(self, out: Path) -> None:
        from floss.spiky import design_cascade

        cascade = design_cascade(FS)
        checks.check_notches(cascade.b, cascade.a, FS)
        header_in, cols_in = checks.read_csv_columns(self.input)
        header_out, cols_out = checks.read_csv_columns(out / "clean.csv")
        require(header_out == header_in, f"clean.csv header {header_out}")
        for name, col_in, col_out in zip(header_in, cols_in, cols_out):
            if name in CHANNELS:
                x = np.array(col_in, dtype=np.float64)
                y = np.array(col_out, dtype=np.float64)
                checks.check_zero_phase(cascade.b, cascade.a, x, y, 0.0, f"clean.csv {name}")
            else:
                require(col_out == col_in, f"clean.csv column {name} changed")


WORKLOADS = {w.name: w for w in (ReportEdf8h, TrainSynth, TrainLabelledEdf, DespikeCsv)}
