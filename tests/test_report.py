"""Batch pipeline: discovery, skip-and-report, and output stability."""
from __future__ import annotations

import dataclasses
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from floss import features, gbt, report, spiky
from floss.cli import main
from floss.errors import FileUnreadable
from floss.report import (
    PipelineConfig,
    discover_nights,
    parse_config_file,
    run_pipeline,
)
from floss.signal_io import (
    ChannelSignal,
    Recording,
    read_csv,
    read_edf,
    write_csv,
    write_edf,
)
from floss.spiky import apply_zero_phase, design_cascade
from floss.synth import gen_night
from floss.epoching import write_annotations

N_EPOCHS = 36  # 360 s per night, 12 sleep epochs at 30 s


def _write_night(out: Path, stem: str, subject: int, seed: int = 3) -> None:
    rec, spans, sleep_scores, states = gen_night(
        subject_index=subject, n_epochs=N_EPOCHS, seed=seed
    )
    write_edf(rec, out / f"{stem}.edf")
    write_annotations(spans, out / f"{stem}_labels.csv")
    (out / f"{stem}_sleep.txt").write_text("\n".join(str(v) for v in sleep_scores) + "\n")


@pytest.fixture(scope="module")
def models(tiny_model, tiny_mobility_model, tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    gbt.save_model(tiny_model, root / "usability.json")
    gbt.save_model(tiny_mobility_model, root / "mobility.json")
    return root / "usability.json", root / "mobility.json"


@pytest.fixture(scope="module")
def night_dir(tmp_path_factory):
    """Two good nights plus one with a truncated payload."""
    root = tmp_path_factory.mktemp("nights")
    _write_night(root, "s00", subject=0)
    _write_night(root, "s01", subject=1)
    _write_night(root, "s02", subject=2)
    bad = root / "s02.edf"
    bad.write_bytes(bad.read_bytes()[:-4096])
    return root


@pytest.fixture()
def pipeline_config(night_dir, models, tmp_path):
    model_path, mobility_path = models
    return PipelineConfig(
        input_dir=night_dir,
        out_dir=tmp_path / "out",
        model_path=model_path,
        mobility_model_path=mobility_path,
    )


class TestDiscovery:
    def test_sidecars_and_duplicates(self, tmp_path):
        (tmp_path / "a.edf").touch()
        (tmp_path / "a.csv").touch()  # same stem, EDF wins
        (tmp_path / "b.csv").touch()
        (tmp_path / "b_labels.csv").touch()
        (tmp_path / "b_usability.csv").touch()
        (tmp_path / "c_rejected.csv").touch()
        (tmp_path / "c_despiked.edf").touch()
        (tmp_path / "d_mobility.csv").touch()
        (tmp_path / "notes.txt").touch()
        found = discover_nights(tmp_path)
        assert [p.name for p in found] == ["a.edf", "b.csv"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileUnreadable):
            discover_nights(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        assert discover_nights(tmp_path) == []


class TestConfigFile:
    def test_values_comments_blanks(self, tmp_path):
        path = tmp_path / "floss.conf"
        path.write_text("# comment\n\nworkers = 4\n out = /tmp/x \nseed=7\n")
        assert parse_config_file(path) == {"workers": "4", "out": "/tmp/x", "seed": "7"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "floss.conf"
        path.write_text("workers 4\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            parse_config_file(tmp_path / "nope.conf")


class TestPipeline:
    def test_skip_and_report(self, pipeline_config):
        reports = run_pipeline(pipeline_config)
        by_id = {r.night_id: r for r in reports}
        assert [r.night_id for r in reports] == ["s00", "s01", "s02"]
        assert by_id["s00"].status == "ok"
        assert by_id["s01"].status == "ok"
        assert by_id["s02"].status == "skipped"
        assert by_id["s02"].error_code == "TruncatedFile"
        assert by_id["s02"].outputs == []

    def test_skipped_night_writes_nothing(self, pipeline_config):
        run_pipeline(pipeline_config)
        leftovers = list(Path(pipeline_config.out_dir).glob("s02*"))
        assert leftovers == []

    def test_ok_night_output_inventory(self, pipeline_config):
        reports = run_pipeline(pipeline_config)
        ok = next(r for r in reports if r.night_id == "s00")
        assert ok.outputs == [
            "s00_hypnogram.svg",
            "s00_mobility.csv",
            "s00_rejected.csv",
            "s00_rejected.txt",
            "s00_stats.json",
            "s00_usability.csv",
            "s00_usability.svg",
        ]
        out = Path(pipeline_config.out_dir)
        for name in ok.outputs:
            assert (out / name).exists()

    def test_summary_json(self, pipeline_config):
        run_pipeline(pipeline_config)
        doc = json.loads((Path(pipeline_config.out_dir) / "report.json").read_text())
        assert doc["ok"] == 2
        assert doc["skipped"] == 1
        assert [n["night_id"] for n in doc["nights"]] == ["s00", "s01", "s02"]
        skipped = doc["nights"][2]
        assert skipped["error_code"] == "TruncatedFile"
        assert skipped["message"]

    def test_output_contents_parse(self, pipeline_config):
        run_pipeline(pipeline_config)
        out = Path(pipeline_config.out_dir)
        usability = (out / "s00_usability.csv").read_text().splitlines()
        assert usability[0] == "channel,epoch_index,label"
        assert len(usability) == 1 + 2 * N_EPOCHS

        rejected = [int(v) for v in (out / "s00_rejected.txt").read_text().split()]
        assert len(rejected) == N_EPOCHS // 3
        assert set(rejected) <= {-1, 0, 1, 2, 3, 4}

        stats = json.loads((out / "s00_stats.json").read_text())
        assert "TST_min" in stats and "SE_%" in stats

        mobility = (out / "s00_mobility.csv").read_text().splitlines()
        assert mobility[0] == "epoch_index,state"
        assert len(mobility) == 1 + N_EPOCHS

        for svg_name in ("s00_usability.svg", "s00_hypnogram.svg"):
            ET.fromstring((out / svg_name).read_text())

    def test_rerun_is_byte_identical(self, pipeline_config):
        run_pipeline(pipeline_config)
        out = Path(pipeline_config.out_dir)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        run_pipeline(pipeline_config)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_despike_adds_cleaned_recording(self, pipeline_config):
        pipeline_config.despike = True
        reports = run_pipeline(pipeline_config)
        ok = next(r for r in reports if r.night_id == "s00")
        assert "s00_despiked.edf" in ok.outputs
        out = Path(pipeline_config.out_dir)
        from floss.signal_io import read_edf

        cleaned = read_edf(out / "s00_despiked.edf")
        assert cleaned.n_samples == N_EPOCHS * 2560

    def test_despike_scores_the_recording_as_read(self, pipeline_config, tmp_path):
        run_pipeline(pipeline_config)
        plain = Path(pipeline_config.out_dir)
        despiked = tmp_path / "despiked"
        run_pipeline(dataclasses.replace(pipeline_config, out_dir=despiked, despike=True))
        for stem in ("s00", "s01"):
            name = f"{stem}_usability.csv"
            assert (despiked / name).read_bytes() == (plain / name).read_bytes()

    def test_night_without_lying_run_keeps_its_outputs(self, models, tmp_path):
        # 9 mobility epochs cannot hold the default 12-epoch Lying run
        indir = tmp_path / "in"
        indir.mkdir()
        rec, _, _, _ = gen_night(subject_index=0, n_epochs=9, seed=3)
        write_edf(rec, indir / "n0.edf")
        (indir / "n0_sleep.txt").write_text("2\n2\n2\n")
        model_path, mobility_path = models
        config = PipelineConfig(
            input_dir=indir,
            out_dir=tmp_path / "out",
            model_path=model_path,
            mobility_model_path=mobility_path,
        )
        assert config.tib_run_epochs == 12
        (night,) = run_pipeline(config)
        assert night.status == "ok", night.message
        assert night.outputs == [
            "n0_hypnogram.svg",
            "n0_mobility.csv",
            "n0_rejected.csv",
            "n0_rejected.txt",
            "n0_stats.json",
            "n0_usability.csv",
            "n0_usability.svg",
        ]
        stats = json.loads((tmp_path / "out" / "n0_stats.json").read_text())
        assert "Lights_out_sec" not in stats and "Lights_on_sec" not in stats

    def test_mobility_strip_on_the_sleep_epoch_grid(
        self, pipeline_config, tmp_path, monkeypatch
    ):
        from floss.cli import _mobility_training_data
        from floss.mobility import fit_mobility

        # 30-s mobility epochs under the 10-s usability model: one state per sleep epoch
        acc, labels = _mobility_training_data(256.0, 30.0, seed=5)
        cfg = gbt.TrainConfig(n_iterations=2, eta=0.3, max_leaves=7, min_samples_leaf=2, seed=5)
        mobility_path = tmp_path / "mobility30.json"
        gbt.save_model(fit_mobility(acc, labels, 256.0, 30.0, config=cfg), mobility_path)

        strips = {}

        def render(s_ar, epoch_len_s, title, mobility=None, tib=None):
            strips[title] = (len(s_ar), mobility)
            return "<svg/>"

        monkeypatch.setattr("floss.report.svg.render_hypnogram", render)
        # a 12-state night holds no default 12-epoch Lying run, so ask for one epoch
        run_pipeline(
            dataclasses.replace(pipeline_config, mobility_model_path=mobility_path, tib_run_epochs=1)
        )
        n_sleep, mobility = strips["s00"]
        assert n_sleep == N_EPOCHS // 3
        assert mobility is not None and len(mobility) == n_sleep

    def test_without_mobility_model(self, pipeline_config):
        pipeline_config.mobility_model_path = None
        reports = run_pipeline(pipeline_config)
        ok = next(r for r in reports if r.night_id == "s00")
        assert "s00_mobility.csv" not in ok.outputs
        assert "s00_usability.csv" in ok.outputs

    def test_night_without_sleep_sidecar(self, models, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        _write_night(indir, "n0", subject=0)
        (indir / "n0_sleep.txt").unlink()
        model_path, mobility_path = models
        reports = run_pipeline(
            PipelineConfig(
                input_dir=indir,
                out_dir=tmp_path / "out",
                model_path=model_path,
                mobility_model_path=mobility_path,
            )
        )
        assert reports[0].status == "ok"
        assert reports[0].outputs == ["n0_mobility.csv", "n0_usability.csv", "n0_usability.svg"]

    def test_sleepless_night_keeps_usability(self, models, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        _write_night(indir, "n0", subject=0)
        n_scores = N_EPOCHS // 3
        (indir / "n0_sleep.txt").write_text("0\n" * n_scores)
        model_path, _ = models
        reports = run_pipeline(
            PipelineConfig(
                input_dir=indir,
                out_dir=tmp_path / "out",
                model_path=model_path,
            )
        )
        assert reports[0].status == "ok"
        assert "n0_stats.json" not in reports[0].outputs
        assert "n0_rejected.txt" in reports[0].outputs
        assert "n0_hypnogram.svg" in reports[0].outputs

    @pytest.mark.parametrize(
        "name, data",
        [
            ("b_sleep.txt", b"99999999999999999999\n0\n"),
            ("b_sleep.txt", b"0\n\xff\n"),
            ("b.csv", b"t_s,EEG\n0.0,1.0\n0.1,\xff\n"),
        ],
        ids=["stage code past int64", "sleep scores not utf-8", "csv night not utf-8"],
    )
    def test_malformed_input_skips_only_its_night(self, models, tmp_path, name, data):
        indir = tmp_path / "in"
        indir.mkdir()
        _write_night(indir, "a", subject=0)
        _write_night(indir, "b", subject=1)
        if name.endswith(".csv"):
            (indir / "b.edf").unlink()
        (indir / name).write_bytes(data)
        out = tmp_path / "out"
        reports = run_pipeline(PipelineConfig(input_dir=indir, out_dir=out, model_path=models[0]))
        by_id = {r.night_id: r for r in reports}
        assert by_id["a"].status == "ok"
        assert (by_id["b"].status, by_id["b"].error_code) == ("skipped", "HeaderFieldUnparsable")
        assert json.loads((out / "report.json").read_text())["skipped"] == 1
        assert list(out.glob("b*")) == []

    def test_empty_input_dir(self, models, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        model_path, _ = models
        reports = run_pipeline(
            PipelineConfig(
                input_dir=indir, out_dir=tmp_path / "out", model_path=model_path
            )
        )
        assert reports == []
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc == {"nights": [], "ok": 0, "skipped": 0}


def _write_square_wave_night(out: Path, stem: str) -> None:
    """60 s of a +/-3200 uV, 1 Hz square wave on two channels.

    The samples lie inside the default EDF physical range, but the despike
    cascade overshoots at every edge and leaves it.
    """
    fs = 256.0
    t = np.arange(int(60 * fs)) / fs
    wave = np.where(t % 1.0 < 0.5, 3200.0, -3200.0)
    channels = [ChannelSignal("C3", wave.copy()), ChannelSignal("C4", wave.copy())]
    write_edf(Recording(channels=channels, acc=None, fs=fs), out / f"{stem}.edf")


@pytest.fixture(scope="module")
def despike_batch(tmp_path_factory):
    """Three short nights: two EDF, and one CSV whose ``t_s`` starts at 100 s."""
    root = tmp_path_factory.mktemp("despike-batch")
    _write_night(root, "s00", subject=0)
    _write_night(root, "s01", subject=1)
    rec, spans, sleep_scores, _ = gen_night(subject_index=2, n_epochs=N_EPOCHS, seed=3)
    write_csv(dataclasses.replace(rec, t0_s=100.0), root / "s02.csv")
    write_annotations(spans, root / "s02_labels.csv")
    (root / "s02_sleep.txt").write_text("\n".join(str(v) for v in sleep_scores) + "\n")
    return root


def _report_despike(batch: Path, out: Path, models) -> dict[str, bytes]:
    args = ["report", "--input", str(batch), "--out", str(out), "--model", str(models[0]),
            "--mobility-model", str(models[1]), "--despike"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_despike_report_is_byte_identical_at_one_and_three_cpus(
    despike_batch, models, tmp_path, monkeypatch
):
    monkeypatch.setattr(features, "available_cpus", lambda: 1)
    serial = _report_despike(despike_batch, tmp_path / "cpu1", models)
    monkeypatch.setattr(features, "available_cpus", lambda: 3)
    # two channels reach the filter's first use at once
    monkeypatch.setattr(spiky, "_lfilter", None)
    parallel = _report_despike(despike_batch, tmp_path / "cpu3", models)
    assert [n for n in serial if n.endswith("_despiked.edf") or n.endswith("_despiked.csv")] == [
        "s00_despiked.edf", "s01_despiked.edf", "s02_despiked.csv"
    ]
    assert serial == parallel


def test_despiked_csv_night_keeps_its_time_column(despike_batch, models, tmp_path):
    _report_despike(despike_batch, tmp_path, models)
    assert read_csv(tmp_path / "s02_despiked.csv").t0_s == 100.0
    times = [line.split(",")[0] for line in (tmp_path / "s02_despiked.csv").read_text().splitlines()]
    assert times == [
        line.split(",")[0] for line in (despike_batch / "s02.csv").read_text().splitlines()
    ]


@pytest.mark.parametrize("cpus", [1, 3])
def test_despiked_equals_a_serial_filter_per_channel(monkeypatch, cpus):
    rec, _, _, _ = gen_night(subject_index=0, n_epochs=12, channels=("a", "b", "c", "d"), seed=5)
    cascade = design_cascade(rec.fs)
    want = [apply_zero_phase(cascade, ch.samples) for ch in rec.channels]
    monkeypatch.setattr(features, "available_cpus", lambda: cpus)
    clean = report.despiked(rec)
    assert [ch.label for ch in clean.channels] == ["a", "b", "c", "d"]
    for ch, samples in zip(clean.channels, want):
        np.testing.assert_array_equal(ch.samples, samples)
    assert clean.acc is rec.acc


def test_night_with_reversed_digital_ranges_despikes(models, tmp_path):
    """A header may declare dig_min above dig_max: read_edf reads such a
    night, and report --despike writes its despiked copy in that range."""
    indir = tmp_path / "in"
    indir.mkdir()
    _write_night(indir, "r", subject=0)
    path = indir / "r.edf"
    data = bytearray(path.read_bytes())
    n_signals = int(data[252:256])
    # the dig_min fields follow label, transducer, unit, phys_min and phys_max
    lo = 256 + n_signals * (16 + 80 + 8 + 8 + 8)
    mid, hi = lo + 8 * n_signals, lo + 16 * n_signals
    data[lo:mid], data[mid:hi] = data[mid:hi], data[lo:mid]
    path.write_bytes(bytes(data))
    rec = read_edf(path)
    assert all(ch.calibration.dig_min > ch.calibration.dig_max for ch in rec.channels)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["report", "--input", str(indir), "--out", str(out), "--model", str(models[0]),
         "--despike"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "report.json").read_text())
    assert [n["status"] for n in doc["nights"]] == ["ok"]
    clean = read_edf(out / "r_despiked.edf")
    want = report.despiked(rec, digital=True)
    assert [ch.calibration for ch in clean.channels] == [ch.calibration for ch in rec.channels]
    assert [ch.held.tobytes() for ch in clean.channels] == [
        ch.held.tobytes() for ch in want.channels
    ]


class TestWholeNightOrNothing:
    def test_despike_overshoot_skips_the_night(self, models, tmp_path):
        indir = tmp_path / "in"
        indir.mkdir()
        _write_square_wave_night(indir, "a")
        _write_night(indir, "b", subject=0)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["report", "--input", str(indir), "--out", str(out), "--model", str(models[0]),
             "--despike"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        by_id = {n["night_id"]: n for n in doc["nights"]}
        assert by_id["b"]["status"] == "ok"
        assert by_id["a"]["status"] == "skipped"
        assert by_id["a"]["error_code"] == "AmplitudeOutOfDeclaredRange"
        assert list(out.glob("a*")) == []
        assert sorted(p.name for p in out.iterdir()) == sorted(
            by_id["b"]["outputs"] + ["report.json"]
        )

    def test_unwritable_despiked_copy_skips_the_night(
        self, models, tmp_path, write_half_second_record_edf
    ):
        indir = tmp_path / "in"
        indir.mkdir()
        write_half_second_record_edf(indir / "a.edf")
        _write_night(indir, "b", subject=0)
        out = tmp_path / "out"
        result = CliRunner().invoke(
            main,
            ["report", "--input", str(indir), "--out", str(out), "--model", str(models[0]),
             "--despike"],
        )
        assert result.exit_code == 0, result.output
        assert "a: EpochMultipleViolation" in result.output
        by_id = {n["night_id"]: n for n in json.loads((out / "report.json").read_text())["nights"]}
        assert by_id["a"]["status"] == "skipped"
        assert by_id["a"]["error_code"] == "EpochMultipleViolation"
        assert by_id["b"]["status"] == "ok"
        assert list(out.glob("a*")) == []

    @pytest.fixture()
    def failing_hypnogram(self, monkeypatch):
        """Make the last stage of every night raise the given exception."""

        def install(exc: Exception) -> None:
            def render(*args, **kwargs):
                raise exc

            monkeypatch.setattr("floss.report.svg.render_hypnogram", render)

        return install

    def test_coded_late_failure_skips_and_leaves_nothing(
        self, pipeline_config, failing_hypnogram
    ):
        failing_hypnogram(FileUnreadable("late failure"))
        reports = run_pipeline(dataclasses.replace(pipeline_config, despike=True))
        by_id = {r.night_id: r for r in reports}
        assert by_id["s00"].status == "skipped"
        assert by_id["s00"].error_code == "FileUnreadable"
        assert by_id["s00"].outputs == []
        out = Path(pipeline_config.out_dir)
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_uncoded_late_failure_aborts_and_leaves_nothing(
        self, pipeline_config, failing_hypnogram
    ):
        failing_hypnogram(RuntimeError("late failure"))
        with pytest.raises(RuntimeError, match="late failure"):
            run_pipeline(dataclasses.replace(pipeline_config, despike=True))
        assert list(Path(pipeline_config.out_dir).iterdir()) == []
