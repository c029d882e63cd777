"""End-to-end command line coverage through click's test runner."""
from __future__ import annotations

import importlib.metadata
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import floss
from floss import features, gbt, report as report_mod
from floss.cli import main
from floss.epoching import (
    AnnotationSpan,
    ArtifactClass,
    balance_rus,
    build_epochs,
    epoch_view,
    load_annotations,
    write_annotations,
)
from floss.errors import FlossError
from floss.features import SpectrogramConfig, acc_norm, epoch_feature_matrix
from floss.signal_io import (
    ChannelSignal, Recording, TriAxialAcc, read_csv, read_edf, write_csv, write_edf,
)
from floss.synth import gen_night


# the model of a small synthetic `floss train`, written before synthetic
# epochs were drawn on request and before row ids were held in 16 bits
PINNED_TRAIN = Path(__file__).parent / "data" / "synth_train_pinned.json"
PINNED_TRAIN_ARGS = ["--subjects", "2", "--epochs-per-class", "6", "--iterations", "3",
                     "--seed", "7"]


def _installed_version() -> str | None:
    try:
        return importlib.metadata.version("floss")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def model_paths(tiny_model, tiny_mobility_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-models")
    usability = root / "usability.json"
    mobility = root / "mobility.json"
    gbt.save_model(tiny_model, usability)
    gbt.save_model(tiny_mobility_model, mobility)
    return str(usability), str(mobility)


@pytest.fixture(scope="module")
def night_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-nights")
    rec, spans, sleep_scores, _ = gen_night(subject_index=0, n_epochs=36, seed=3)
    write_edf(rec, root / "n0.edf")
    write_annotations(spans, root / "n0_labels.csv")
    (root / "n0_sleep.txt").write_text("\n".join(str(v) for v in sleep_scores) + "\n")
    return root


class TestGroup:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    @pytest.mark.skipif(_installed_version() is None, reason="floss is not installed")
    def test_installed_metadata_matches_package_version(self):
        assert _installed_version() == floss.__version__

    def test_subcommands_listed(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("check", "tib", "despike", "stats", "train", "synth", "report"):
            assert name in result.output

    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_help_lists_config_and_defaults(self, runner, name):
        result = runner.invoke(main, [name, "--help"])
        assert result.exit_code == 0, result.output
        assert "--config" in result.output
        text = " ".join(result.output.split())
        command = main.commands[name]
        ctx = click.Context(command, info_name=name, show_default=True)
        for param in command.params:
            # required options and --config declare no default; click prints
            # none for a flag that is off by default
            off_flag = param.is_flag and param.default is False
            if param.required or not param.expose_value or param.default is None or off_flag:
                continue
            help_text = " ".join(param.get_help_record(ctx)[1].split())
            assert "[default: " in help_text, param.name
            assert help_text in text, param.name


class TestCheck:
    def test_prints_counts_and_writes_csv(self, runner, night_dir, model_paths, tmp_path):
        out = tmp_path / "scores.csv"
        result = runner.invoke(
            main,
            ["check", "--input", str(night_dir / "n0.edf"),
             "--model", model_paths[0], "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "EEG L: 36 epochs" in result.output
        assert "EEG R: 36 epochs" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "channel,epoch_index,label"
        assert len(lines) == 1 + 72

    def test_malformed_model_is_one_coded_error_line(self, runner, night_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind":"gbt-softmax","format_version":1}')
        result = runner.invoke(
            main, ["check", "--input", str(night_dir / "n0.edf"), "--model", str(bad)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert lines[0].endswith("[ModelIncompatible]")
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("epoch_len_s", ["ten", 0])
    def test_bad_meta_epoch_len_is_one_coded_error_line(
        self, runner, night_dir, model_paths, tmp_path, epoch_len_s
    ):
        doc = json.loads(Path(model_paths[0]).read_text())
        doc["meta"]["epoch_len_s"] = epoch_len_s
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["check", "--input", str(night_dir / "n0.edf"), "--model", str(bad)]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: ")
        assert lines[0].endswith("[ModelIncompatible]")


class TestTib:
    def test_json_output(self, runner, night_dir, model_paths, tmp_path):
        out = tmp_path / "tib.json"
        result = runner.invoke(
            main,
            ["tib", "--input", str(night_dir / "n0.edf"),
             "--mobility-model", model_paths[1], "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert set(doc) == {"Lights_out_sec", "Lights_on_sec", "TIB_min"}
        assert doc["Lights_on_sec"] > doc["Lights_out_sec"]

    def test_no_lying_run_fails_with_code(self, runner, night_dir, model_paths):
        result = runner.invoke(
            main,
            ["tib", "--input", str(night_dir / "n0.edf"),
             "--mobility-model", model_paths[1], "--tib-run-epochs", "1000"],
        )
        assert result.exit_code != 0
        assert "[NoLyingPeriod]" in result.output


class TestDespike:
    def test_edf_to_edf(self, runner, night_dir, tmp_path):
        out = tmp_path / "clean.edf"
        result = runner.invoke(
            main, ["despike", "--input", str(night_dir / "n0.edf"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        original = read_edf(night_dir / "n0.edf")
        cleaned = read_edf(out)
        assert cleaned.n_samples == original.n_samples
        assert [ch.label for ch in cleaned.channels] == [
            ch.label for ch in original.channels
        ]

    def test_csv_output(self, runner, night_dir, tmp_path):
        out = tmp_path / "clean.csv"
        result = runner.invoke(
            main, ["despike", "--input", str(night_dir / "n0.edf"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert out.read_text().startswith("t_s,")

    def test_csv_night_keeps_its_time_column(self, runner, tmp_path, small_night):
        rec = small_night[0]
        rec = Recording(channels=rec.channels, acc=rec.acc, fs=rec.fs, t0_s=100.0)
        write_csv(rec, tmp_path / "night.csv")
        out = tmp_path / "clean.csv"
        result = runner.invoke(
            main, ["despike", "--input", str(tmp_path / "night.csv"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == [
            line.split(",")[0] for line in (tmp_path / "night.csv").read_text().splitlines()
        ]
        assert out.read_text().splitlines()[1].startswith("100.0,")

    @pytest.mark.parametrize(
        "header, labels",
        [
            ('t_s,"EEG L,R",EEG2', ["EEG L,R", "EEG2"]),
            ('t_s,"say ""hi""","a,""b"""', ['say "hi"', 'a,"b"']),
            ("t_s,EEG L,EEG R", ["EEG L", "EEG R"]),
        ],
    )
    def test_csv_labels_read_back_after_despiking(self, runner, tmp_path, header, labels):
        rows = "".join(f"{i / 256!r},{i % 7 - 3.5!r},{i % 5 * 0.25!r}\n" for i in range(2560))
        (tmp_path / "night.csv").write_text(header + "\n" + rows)
        out = tmp_path / "clean.csv"
        result = runner.invoke(
            main, ["despike", "--input", str(tmp_path / "night.csv"), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert [ch.label for ch in read_csv(out).channels] == labels
        # the header keeps its bytes: quoted only where a label needs it
        assert out.read_text().splitlines()[0] == header

    def test_unwritable_edf_is_one_coded_error_line(
        self, runner, tmp_path, write_half_second_record_edf
    ):
        night = tmp_path / "a.edf"
        write_half_second_record_edf(night)
        out = tmp_path / "clean.edf"
        result = runner.invoke(main, ["despike", "--input", str(night), "--out", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: 15232 samples do not span whole seconds at 256 Hz [EpochMultipleViolation]"
        ]
        assert not out.exists()


class TestStats:
    def test_scores_to_json(self, runner, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0\n0\n1\n2\n-1\n2\n0\n2\n5\n0\n")  # 5 aliases REM
        result = runner.invoke(main, ["stats", "--input", str(scores)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["REM_min"] == 0.5
        assert doc["TST_min"] == 2.5

    def test_out_file_written(self, runner, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0\n1\n2\n")
        out = tmp_path / "stats.json"
        result = runner.invoke(
            main, ["stats", "--input", str(scores), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text()) == json.loads(result.output)

    def test_unparsable_line(self, runner, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0\nN2\n")
        result = runner.invoke(main, ["stats", "--input", str(scores)])
        assert result.exit_code != 0
        assert "[HeaderFieldUnparsable]" in result.output
        assert "line 2" in result.output

    def test_out_of_range_stage(self, runner, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0\n7\n")
        result = runner.invoke(main, ["stats", "--input", str(scores)])
        assert result.exit_code != 0
        assert "out of range" in result.output

    def test_sleep_epoch_len_flag(self, runner, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0\n1\n1\n")
        result = runner.invoke(
            main, ["stats", "--input", str(scores), "--sleep-epoch-len", "60"]
        )
        doc = json.loads(result.output)
        assert doc["TST_min"] == 2.0


class TestSynth:
    def test_writes_nights_and_manifest(self, runner, tmp_path):
        out = tmp_path / "data"
        result = runner.invoke(
            main,
            ["synth", "--out", str(out), "--subjects", "2", "--epochs", "12",
             "--seed", "5"],
        )
        assert result.exit_code == 0, result.output
        for stem in ("s00", "s01"):
            assert (out / f"{stem}.edf").exists()
            assert (out / f"{stem}_labels.csv").exists()
            assert (out / f"{stem}_sleep.txt").exists()
            assert (out / f"{stem}_mobility.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nights"] == ["s00", "s01"]
        assert manifest["seed"] == 5
        rec = read_edf(out / "s00.edf")
        assert rec.n_samples == 12 * 2560

    def test_determinism_across_runs(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            result = runner.invoke(
                main,
                ["synth", "--out", str(out), "--subjects", "1", "--epochs", "6",
                 "--seed", "9"],
            )
            assert result.exit_code == 0, result.output
        assert (a / "s00.edf").read_bytes() == (b / "s00.edf").read_bytes()
        assert (a / "s00_labels.csv").read_text() == (b / "s00_labels.csv").read_text()


class TestTrain:
    def test_usability_model(self, runner, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--out", str(out), "--kind", "usability", "--variant", "lite",
             "--subjects", "1", "--epochs-per-class", "3", "--iterations", "2",
             "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        model = gbt.load_model(out)
        assert model.meta["task"] == "usability"
        assert model.meta["variant"] == "lite"
        assert len(model.trees) == 2
        assert "2838 features" in result.output

    @pytest.mark.parametrize("one_cpu", [True, False], ids=["one CPU", "every CPU"])
    def test_synthetic_model_keeps_its_pinned_bytes(self, tmp_path, one_cpu):
        cpus = sorted(os.sched_getaffinity(0))
        pin = (lambda: os.sched_setaffinity(0, cpus[:1])) if one_cpu else None
        src = str(Path(floss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "model.json"
        done = subprocess.run(
            [sys.executable, "-m", "floss.cli", "train", "--out", str(out), *PINNED_TRAIN_ARGS],
            env=env, preexec_fn=pin, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == PINNED_TRAIN.read_bytes()

    def test_mobility_model(self, runner, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--out", str(out), "--kind", "mobility", "--iterations", "2",
             "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        model = gbt.load_model(out)
        assert model.meta["task"] == "mobility"

    def test_trains_from_labeled_directory(self, runner, night_dir, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--out", str(out), "--variant", "lite", "--input",
             str(night_dir), "--iterations", "2", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        assert gbt.load_model(out).meta["task"] == "usability"

    def test_mobility_from_input_is_one_usage_error(self, runner, night_dir, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--out", str(out), "--kind", "mobility", "--input", str(night_dir),
             "--iterations", "1"],
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
        assert len(errors) == 1
        assert "--input" in errors[0] and "--kind mobility" in errors[0]
        assert not out.exists()

    @staticmethod
    def _labelled_nights(root: Path, rates: dict[str, float]) -> Path:
        root.mkdir()
        for i, (stem, fs) in enumerate(rates.items()):
            rec, spans, _, _ = gen_night(subject_index=i, n_epochs=24, fs=fs, seed=4)
            write_edf(rec, root / f"{stem}.edf")
            write_annotations(spans, root / f"{stem}_labels.csv")
        return root

    def test_input_takes_the_recordings_rate(self, runner, tmp_path):
        nights = self._labelled_nights(tmp_path / "nights", {"n0": 128.0})
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--out", str(out), "--variant", "lite", "--input", str(nights),
             "--iterations", "2", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        meta = gbt.load_model(out).meta
        assert (meta["fs"], meta["epoch_len_s"]) == (128.0, 10.0)
        checked = runner.invoke(
            main, ["check", "--input", str(nights / "n0.edf"), "--model", str(out)]
        )
        assert checked.exit_code == 0, checked.output
        assert "EEG L: 24 epochs" in checked.output

    def test_input_of_two_rates_is_one_coded_error_line(self, runner, tmp_path):
        nights = self._labelled_nights(tmp_path / "nights", {"a": 128.0, "b": 256.0})
        result = runner.invoke(
            main,
            ["train", "--out", str(tmp_path / "model.json"), "--input", str(nights),
             "--iterations", "1"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: b.edf is sampled at 256.0 Hz")
        assert lines[0].endswith("[SamplingRateMismatch]")
        assert not (tmp_path / "model.json").exists()


#: the rate and epoch length of the generated labelled nights: 640-sample
#: epochs of two spectrogram frames keep the nights small
_FS, _EPOCH_S = 64.0, 10.0
_CHANNELS = ("EEG L", "EEG R")


def _write_labelled_night(root: Path, stem: str, csv: bool, acc: bool, classes: np.ndarray, rng):
    """A two-channel night whose epochs carry ``classes`` (channels x epochs)."""
    n = classes.shape[1] * int(_FS * _EPOCH_S)
    channels = [ChannelSignal(ch, rng.normal(0.0, 20.0, n)) for ch in _CHANNELS]
    axes = None
    if acc:
        axes = TriAxialAcc(*(g + rng.normal(0.0, 0.02, n) for g in (0.0, 0.0, 1.0)))
    (write_csv if csv else write_edf)(
        Recording(channels, axes, _FS), root / f"{stem}.{'csv' if csv else 'edf'}"
    )
    length = Fraction(int(_EPOCH_S))
    spans = [
        AnnotationSpan(ch, i * length, (i + 1) * length, ArtifactClass(int(c)))
        for ch, row in zip(_CHANNELS, classes)
        for i, c in enumerate(row)
        if c
    ]
    write_annotations(spans, root / f"{stem}_labels.csv")


def _one_pass_oracle(root: Path, variant: str, config: gbt.TrainConfig):
    """X and the model as labelled training made them in one pass: every night
    read and kept, the kept epochs and norms stacked, one feature matrix."""
    samples, eeg, norms = [], {}, {}
    for path in report_mod.discover_nights(root):
        rec = report_mod.read_recording(path)
        spans = load_annotations(path.with_name(f"{path.stem}_labels.csv"))
        norm = None if rec.acc is None else epoch_view(acc_norm(*rec.acc.axes), rec.fs, _EPOCH_S)
        views = {ch.label: epoch_view(ch.samples, rec.fs, _EPOCH_S) for ch in rec.channels}
        for s in build_epochs(rec.layout, spans, _EPOCH_S, path.stem, path.stem):
            key = (s.night_id, s.channel, s.epoch_index)
            eeg[key] = views[s.channel][s.epoch_index]
            norms[key] = None if norm is None else norm[s.epoch_index]
            samples.append(s)
    kept = balance_rus(samples, config.seed)
    if not kept:
        return None, None
    keys = [(s.night_id, s.channel, s.epoch_index) for s in kept]
    win = int(_FS * _EPOCH_S)
    acc = None
    if any(norms[k] is not None for k in keys):
        acc = np.stack([np.zeros(win) if norms[k] is None else norms[k] for k in keys])
    lite = variant == "lite"
    X, layout = epoch_feature_matrix(
        np.stack([eeg[k] for k in keys]), acc, SpectrogramConfig(fs=_FS), include_stats=not lite
    )
    meta = {"task": "usability", "variant": variant, "fs": _FS, "epoch_len_s": win / _FS,
            "include_stats": not lite, "binary": False}
    y = np.asarray([int(s.label) for s in kept])
    try:
        return X, gbt.model_to_json(gbt.fit(X, y, config, feature_layout=layout, meta=meta))
    except FlossError as exc:  # such as a class with fewer than two epochs
        return X, exc


#: one directory of labelled nights: which labels its epochs carry, then per
#: night (CSV?, accelerometer?, epochs), and a seed for signals and labels
_PLAN = st.tuples(
    st.sampled_from(["mixed", "all usable", "no usable"]),
    st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(5, 12)), min_size=1, max_size=3),
    st.integers(0, 2**16),
)


class TestLabelledTrainingInTwoPasses:
    """`train --input` labels every night from its layout, then builds the
    rows night by night: X and the model keep the one-pass bits."""

    @staticmethod
    def _classes(rng, mode: str, n_epochs: int) -> np.ndarray:
        if mode == "all usable":
            return np.zeros((2, n_epochs), dtype=int)
        if mode == "no usable":
            return rng.integers(1, 5, size=(2, n_epochs))
        # every class on each channel, then mostly Usable, so balance_rus
        # has Usable epochs to drop
        shape = (2, n_epochs - 5)
        rest = np.where(rng.random(shape) < 0.8, 0, rng.integers(1, 5, shape))
        return np.hstack([[rng.permutation(5) for _ in range(2)], rest])

    @pytest.mark.parametrize("cpus", [1, 3])
    @settings(max_examples=12, deadline=None)
    @given(plan=_PLAN, variant=st.sampled_from(["default", "lite"]))
    @example(plan=("mixed", [(False, True, 9), (True, True, 6), (False, False, 7)], 1),
             variant="default")
    @example(plan=("all usable", [(False, True, 5), (True, False, 5)], 2), variant="default")
    @example(plan=("no usable", [(True, True, 5), (False, False, 6)], 3), variant="default")
    def test_x_and_model_equal_the_one_pass_oracle(self, tmp_path_factory, cpus, plan, variant):
        mode, nights, seed = plan
        rng = np.random.default_rng(seed)
        root = tmp_path_factory.mktemp("nights")
        for i, (csv, acc, n_epochs) in enumerate(nights):
            classes = self._classes(rng, mode, n_epochs)
            _write_labelled_night(root, f"n{i}", csv, acc, classes, rng)
        config = gbt.TrainConfig(n_iterations=1, eta=0.5, seed=seed)
        fitted = []
        fit = gbt.fit

        def kept_x(X, *args, **kwargs):
            fitted.append(X.copy())
            return fit(X, *args, **kwargs)

        out = root / "model.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "available_cpus", lambda: cpus)
            want_x, want_model = _one_pass_oracle(root, variant, config)
            patch.setattr(gbt, "fit", kept_x)
            result = CliRunner().invoke(
                main,
                ["train", "--out", str(out), "--input", str(root), "--variant", variant,
                 "--iterations", "1", "--eta", "0.5", "--seed", str(seed)],
            )
        if want_x is None:  # balance_rus kept nothing
            assert fitted == [] and "no training samples" in result.output
            return
        assert len(fitted) == 1 and fitted[0].tobytes() == want_x.tobytes()
        if isinstance(want_model, FlossError):
            assert result.exit_code == 1 and str(want_model) in result.output
        else:
            assert result.exit_code == 0, result.output
            assert out.read_text() == want_model + "\n"

    def test_each_night_is_dropped_before_the_next_read_and_the_fit(
        self, runner, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(8)
        for i in range(3):
            classes = self._classes(rng, "mixed", 8)
            _write_labelled_night(tmp_path, f"n{i}", i == 1, i != 2, classes, rng)
        alive = []
        read, fit = report_mod.read_recording, gbt.fit

        def tracked_read(path):
            assert all(ref() is None for ref in alive), "an earlier night is still held"
            rec = read(path)
            alive.append(weakref.ref(rec))
            return rec

        def checked_fit(*args, **kwargs):
            assert len(alive) == 3 and all(ref() is None for ref in alive), "a night is held"
            return fit(*args, **kwargs)

        monkeypatch.setattr(report_mod, "read_recording", tracked_read)
        monkeypatch.setattr(gbt, "fit", checked_fit)
        result = runner.invoke(
            main,
            ["train", "--out", str(tmp_path / "model.json"), "--input", str(tmp_path),
             "--iterations", "1", "--eta", "0.5"],
        )
        assert result.exit_code == 0, (result.output, result.exception)

    @pytest.mark.parametrize(
        "change, code",
        [
            (lambda channels: [ChannelSignal("EEG X", channels[0].samples)] + channels[1:],
             "ChannelMissing"),
            (lambda channels: [ChannelSignal(ch.label, ch.samples[:640]) for ch in channels],
             "EmptyRecording"),
        ],
    )
    def test_night_changed_since_its_labelling_is_a_coded_error(
        self, runner, tmp_path, monkeypatch, change, code
    ):
        rng = np.random.default_rng(9)
        _write_labelled_night(tmp_path, "n0", False, False, self._classes(rng, "mixed", 8), rng)
        read = report_mod.read_recording
        monkeypatch.setattr(
            report_mod, "read_recording",
            lambda path: Recording(change(read(path).channels), None, _FS),
        )
        result = runner.invoke(
            main,
            ["train", "--out", str(tmp_path / "model.json"), "--input", str(tmp_path),
             "--iterations", "1"],
        )
        assert result.exit_code == 1 and result.output.rstrip().endswith(f"[{code}]")

class TestReport:
    def test_full_run(self, runner, night_dir, model_paths, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["report", "--input", str(night_dir), "--out", str(out),
             "--model", model_paths[0], "--mobility-model", model_paths[1]],
        )
        assert result.exit_code == 0, result.output
        assert "1 ok, 0 skipped" in result.output
        assert (out / "report.json").exists()
        assert (out / "n0_stats.json").exists()

    def test_skips_reported_on_stdout(self, runner, model_paths, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        rec, _, _, _ = gen_night(subject_index=0, n_epochs=6, seed=1)
        write_edf(rec, indir / "bad.edf")
        data = (indir / "bad.edf").read_bytes()
        (indir / "bad.edf").write_bytes(data[:-2048])
        result = runner.invoke(
            main,
            ["report", "--input", str(indir), "--out", str(tmp_path / "out"),
             "--model", model_paths[0]],
        )
        assert result.exit_code == 0, result.output
        assert "0 ok, 1 skipped" in result.output
        assert "bad: TruncatedFile" in result.output

    def test_variant_guard(self, runner, night_dir, model_paths, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--input", str(night_dir), "--out", str(tmp_path / "out"),
             "--model", model_paths[0], "--variant", "binary"],
        )
        assert result.exit_code != 0
        assert "[ModelIncompatible]" in result.output

    def test_matching_variant_accepted(self, runner, night_dir, model_paths, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--input", str(night_dir), "--out", str(tmp_path / "out"),
             "--model", model_paths[0], "--variant", "lite"],
        )
        assert result.exit_code == 0, result.output


#: (command, key, config value, parsed value): each key a config file sets,
#: on each command that reads it
HONOURED_KEYS = [
    ("tib", "tib_run_epochs", "3", 3),
    ("stats", "sleep_epoch_len", "20", 20.0),
    ("train", "variant", "lite", "lite"),
    ("train", "subjects", "2", 2),
    ("train", "epochs_per_class", "5", 5),
    ("train", "fs", "128", 128.0),
    ("train", "epoch_len", "30", 30.0),
    ("train", "seed", "5", 5),
    ("train", "iterations", "7", 7),
    ("train", "eta", "0.5", 0.5),
    ("synth", "subjects", "1", 1),
    ("synth", "epochs", "6", 6),
    ("synth", "fs", "128", 128.0),
    ("synth", "epoch_len", "30", 30.0),
    ("synth", "sleep_epoch_len", "60", 60.0),
    ("synth", "seed", "4", 4),
    ("report", "variant", "lite", "lite"),
    ("report", "mobility_model", "MOBILITY", "MOBILITY"),
    ("report", "sleep_epoch_len", "60", 60.0),
    ("report", "despike", "yes", True),
    ("report", "tib_run_epochs", "3", 3),
]

#: (command, option, value): every count below one and every non-positive
#: length, rate or learning rate a command takes
OUT_OF_RANGE = [
    ("tib", "--tib-run-epochs", "0"),
    ("stats", "--sleep-epoch-len", "0"),
    ("train", "--subjects", "0"),
    ("train", "--epochs-per-class", "0"),
    ("train", "--fs", "0"),
    ("train", "--epoch-len", "-1"),
    ("train", "--iterations", "0"),
    ("train", "--eta", "0"),
    ("synth", "--subjects", "0"),
    ("synth", "--epochs", "0"),
    ("synth", "--fs", "-256"),
    ("synth", "--epoch-len", "0"),
    ("synth", "--sleep-epoch-len", "-30"),
    ("report", "--sleep-epoch-len", "0"),
    ("report", "--tib-run-epochs", "0"),
]
#: every option of the shared positive-float type also refuses nan and inf
POSITIVE_OPTIONS = [
    ("stats", "--sleep-epoch-len"),
    ("train", "--fs"),
    ("train", "--epoch-len"),
    ("train", "--eta"),
    ("synth", "--fs"),
    ("synth", "--epoch-len"),
    ("synth", "--sleep-epoch-len"),
    ("report", "--sleep-epoch-len"),
]
OUT_OF_RANGE += [(c, o, v) for c, o in POSITIVE_OPTIONS for v in ("nan", "inf")]

BAD_CONFIGS = [
    ("synth", "seed = abc", "--seed"),
    ("train", "variant = bogus", "--variant"),
    ("report", "despike = maybe", "--despike"),
    ("report", "mobility_model = MISSING", "--mobility-model"),
    ("report", "despike yes", "--config"),
]


@pytest.fixture()
def required(night_dir, model_paths, tmp_path):
    """The required arguments of each command."""
    edf, model, mobility = str(night_dir / "n0.edf"), model_paths[0], model_paths[1]
    scores = tmp_path / "scores.txt"
    scores.write_text("0\n2\n")
    return {
        "check": ["--input", edf, "--model", model],
        "tib": ["--input", edf, "--mobility-model", mobility],
        "stats": ["--input", str(scores)],
        "train": ["--out", str(tmp_path / "m.json")],
        "synth": ["--out", str(tmp_path / "data")],
        "report": ["--input", str(night_dir), "--out", str(tmp_path / "out"),
                   "--model", model],
    }


def _params(command: str, args: list[str]) -> dict:
    """The values click resolves for a command's options, without running it."""
    return main.commands[command].make_context(command, list(args)).params


class TestConfigFile:
    def test_config_supplies_values(self, runner, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_text("subjects = 1\nepochs = 6\nseed = 4\n")
        out = tmp_path / "data"
        result = runner.invoke(
            main, ["synth", "--out", str(out), "--config", str(conf)]
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subjects"] == 1
        assert manifest["epochs"] == 6
        assert manifest["seed"] == 4

    def test_flag_beats_config(self, runner, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_text("subjects = 1\nepochs = 6\nseed = 4\n")
        out = tmp_path / "data"
        result = runner.invoke(
            main,
            ["synth", "--out", str(out), "--config", str(conf), "--seed", "8"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["seed"] == 8

    def test_bool_from_config(self, runner, night_dir, model_paths, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_text("despike = true\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["report", "--input", str(night_dir), "--out", str(out),
             "--model", model_paths[0], "--config", str(conf)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "n0_despiked.edf").exists()

    @pytest.mark.parametrize(
        "command,key,raw,value", HONOURED_KEYS, ids=[f"{c}-{k}" for c, k, _, _ in HONOURED_KEYS]
    )
    def test_key_sets_the_option_of_its_name(
        self, required, model_paths, tmp_path, command, key, raw, value
    ):
        raw = raw.replace("MOBILITY", model_paths[1])
        value = value.replace("MOBILITY", model_paths[1]) if isinstance(value, str) else value
        conf = tmp_path / "floss.conf"
        conf.write_text(f"{key} = {raw}\n")
        from_config = _params(command, required[command] + ["--config", str(conf)])
        assert from_config[key] == value
        assert _params(command, required[command])[key] != value
        flag = "--" + key.replace("_", "-")
        flag_args = [flag] if value is True else [flag, raw]
        assert from_config == _params(command, required[command] + flag_args)

    def test_flag_before_config_also_wins(self, required, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_text("seed = 5\n")
        args = required["synth"] + ["--seed", "9", "--config", str(conf)]
        assert _params("synth", args)["seed"] == 9

    def test_paths_and_kind_are_not_read_from_config(self, required, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_text("kind = mobility\nout_path = elsewhere.json\n")
        params = _params("train", required["train"] + ["--config", str(conf)])
        assert params["kind"] == "usability"
        assert params["out_path"] == required["train"][1]

    @pytest.mark.parametrize(
        "command,option,value",
        [("report", "--workers", "2"), ("check", "--epoch-len", "10"), ("tib", "--epoch-len", "10")],
    )
    def test_deleted_option_is_a_usage_error_and_its_key_is_ignored(
        self, runner, required, tmp_path, command, option, value
    ):
        result = runner.invoke(main, [command, *required[command], option, value])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
        assert len(errors) == 1
        assert errors[0].startswith("Error: No such option") and option in errors[0]
        # a config key that names no option is ignored
        conf = tmp_path / "floss.conf"
        conf.write_text(f"{option[2:].replace('-', '_')} = {value}\n")
        result = runner.invoke(main, [command, *required[command], "--config", str(conf)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize(
        "command,line,option", BAD_CONFIGS, ids=[line for _, line, _ in BAD_CONFIGS]
    )
    def test_bad_value_is_one_usage_error(self, runner, required, tmp_path, command, line, option):
        conf = tmp_path / "floss.conf"
        conf.write_text(line.replace("MISSING", str(tmp_path / "missing.json")) + "\n")
        result = runner.invoke(main, [command, *required[command], "--config", str(conf)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"Error: Invalid value for '{option}'")
        assert "Traceback" not in result.output

    def test_file_not_utf8_is_one_usage_error(self, runner, required, tmp_path):
        conf = tmp_path / "floss.conf"
        conf.write_bytes(b"seed = 5\n# caf\xe9\n")
        result = runner.invoke(main, ["synth", *required["synth"], "--config", str(conf)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: Invalid value for '--config'" in result.output
        assert "not UTF-8" in result.output


class TestNumericRanges:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,option,value", OUT_OF_RANGE, ids=[f"{c}{o}={v}" for c, o, v in OUT_OF_RANGE]
    )
    def test_out_of_range_is_one_usage_error(
        self, runner, required, tmp_path, command, option, value, source
    ):
        if source == "flag":
            extra = [option, value]
        else:
            conf = tmp_path / "floss.conf"
            conf.write_text(f"{option[2:].replace('-', '_')} = {value}\n")
            extra = ["--config", str(conf)]
        result = runner.invoke(main, [command, *required[command], *extra])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # not an uncaught error
        errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"Error: Invalid value for '{option}'")
        assert "Traceback" not in result.output
