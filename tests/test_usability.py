"""Usability variants and whole-recording scoring."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from floss import features, gbt
from floss.epoching import BLOCK_EPOCHS, ArtifactClass
from floss.errors import (
    ChannelMissing,
    DegenerateData,
    EmptyRecording,
    ModelIncompatible,
)
from floss.signal_io import Calibration, ChannelSignal, Recording, TriAxialAcc
from floss.synth import gen_night
from floss.usability import (
    M_CLASS_WEIGHT,
    VARIANTS,
    UsabilityScores,
    _abs_percentile,
    _percentile_of,
    score_recording,
    train_usability,
    variant_spec,
)

FS = 256.0


class TestVariants:
    def test_table_is_complete(self):
        assert set(VARIANTS) == {
            "default", "lite", "binary", "weighted-m",
            "lite-binary", "lite-weighted-m",
        }
        for name, spec in VARIANTS.items():
            assert spec.name == name
            assert ("lite" in name) == spec.lite
            assert ("binary" in name) == spec.binary
            assert ("weighted-m" in name) == spec.weighted_m

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant_spec("turbo")

    def test_default_width_includes_stats(self, tiny_samples, tiny_train_config):
        model = train_usability(tiny_samples, FS, "default", tiny_train_config)
        assert model.feature_count == 2886
        assert model.meta["include_stats"] is True
        names = [name for name, _ in model.feature_layout]
        assert "stats_eeg" in names and "stats_acc" in names

    def test_lite_width_drops_stats(self, tiny_model):
        assert tiny_model.feature_count == 2838
        assert tiny_model.meta["include_stats"] is False
        names = [name for name, _ in tiny_model.feature_layout]
        assert "stats_eeg" not in names

    def test_binary_collapses_labels(self, tiny_samples, tiny_train_config):
        model = train_usability(tiny_samples, FS, "lite-binary", tiny_train_config)
        assert model.num_classes == 2
        assert model.meta["binary"] is True

    def test_multiclass_keeps_five(self, tiny_model):
        assert tiny_model.num_classes == 5
        assert tiny_model.meta["binary"] is False

    def test_weighted_m_changes_the_fit(self, tiny_samples, tiny_train_config):
        plain = train_usability(tiny_samples, FS, "lite", tiny_train_config)
        weighted = train_usability(
            tiny_samples, FS, "lite-weighted-m", tiny_train_config
        )
        assert M_CLASS_WEIGHT > 1.0
        assert gbt.model_to_json(weighted) != gbt.model_to_json(plain)
        assert weighted.meta["variant"] == "lite-weighted-m"

    def test_meta_records_geometry(self, tiny_model):
        assert tiny_model.meta["task"] == "usability"
        assert tiny_model.meta["fs"] == FS
        assert tiny_model.meta["epoch_len_s"] == 10.0

    def test_empty_sample_list(self, tiny_train_config):
        with pytest.raises(DegenerateData):
            train_usability([], FS, "default", tiny_train_config)


class TestScoreRecording:
    def test_night_scoring_shape_and_range(self, small_night, tiny_model):
        rec, labels, _, _ = small_night
        scores = score_recording(rec, tiny_model)
        assert scores.channels == [ch.label for ch in rec.channels]
        assert scores.n_epochs == 60
        assert scores.epoch_len_s == 10.0
        for seq in scores.labels:
            assert seq.shape == (60,)
            assert set(np.unique(seq)) <= {0, 1, 2, 3, 4}

    def test_labels_land_on_the_right_epochs(self, small_night, tiny_model):
        # flat, noisy and spiky epochs have huge margins even for a tiny
        # model; any epoch-grid misalignment would destroy this agreement
        rec, spans, _, _ = small_night
        truth = {ch.label: np.zeros(60, dtype=np.int64) for ch in rec.channels}
        for span in spans:
            truth[span.channel][int(span.start_s / 10)] = int(span.label)
        scores = score_recording(rec, tiny_model)
        hits, total = 0, 0
        for name, seq in zip(scores.channels, scores.labels):
            easy = np.isin(truth[name], [1, 2, 3])
            hits += int((seq[easy] == truth[name][easy]).sum())
            total += int(easy.sum())
        assert total > 0
        assert hits / total >= 0.9

    def test_round_trip_through_saved_model(self, small_night, tiny_model, tmp_path):
        rec, _, _, _ = small_night
        path = tmp_path / "model.json"
        gbt.save_model(tiny_model, path)
        reloaded = gbt.load_model(path)
        a = score_recording(rec, tiny_model)
        b = score_recording(rec, reloaded)
        for x, y in zip(a.labels, b.labels):
            np.testing.assert_array_equal(x, y)

    def test_wrong_task_rejected(self, small_night, tiny_mobility_model):
        rec, _, _, _ = small_night
        with pytest.raises(ModelIncompatible, match="task"):
            score_recording(rec, tiny_mobility_model)

    def test_wrong_rate_rejected(self, small_night, tiny_model):
        rec, _, _, _ = small_night
        slow = Recording(
            channels=rec.channels,
            acc=rec.acc,
            fs=128.0,
            start_time=rec.start_time,
            device_id=rec.device_id,
        )
        with pytest.raises(ModelIncompatible, match="Hz"):
            score_recording(slow, tiny_model)

    def test_no_channels_rejected(self, small_night, tiny_model):
        rec, _, _, _ = small_night
        empty = Recording(
            channels=[],
            acc=rec.acc,
            fs=rec.fs,
            start_time=rec.start_time,
            device_id=rec.device_id,
        )
        with pytest.raises(ChannelMissing):
            score_recording(empty, tiny_model)

    def test_too_short_recording(self, tiny_model):
        short = Recording(
            channels=[ChannelSignal("EEG L", np.zeros(100))],
            acc=None,
            fs=FS,
            start_time=None,
            device_id=None,
        )
        with pytest.raises(EmptyRecording):
            score_recording(short, tiny_model)

    def test_amplitude_warning(self, tiny_model):
        rec, _, _, _ = gen_night(
            subject_index=3, n_epochs=4, fs=FS, epoch_len_s=10.0, seed=9
        )
        loud = Recording(
            channels=[ChannelSignal(ch.label, ch.samples * 100.0) for ch in rec.channels],
            acc=rec.acc,
            fs=rec.fs,
            start_time=rec.start_time,
            device_id=rec.device_id,
        )
        with pytest.warns(UserWarning, match="normalization"):
            score_recording(loud, tiny_model)

    def test_missing_acc_still_scores(self, small_night, tiny_model):
        rec, _, _, _ = small_night
        bare = Recording(
            channels=rec.channels,
            acc=None,
            fs=rec.fs,
            start_time=rec.start_time,
            device_id=rec.device_id,
        )
        scores = score_recording(bare, tiny_model)
        assert scores.n_epochs == 60

    def test_partial_trailing_epoch_dropped(self, small_night, tiny_model):
        rec, _, _, _ = small_night
        win = int(10.0 * FS)
        cut = 60 * win - win // 2
        trimmed = Recording(
            channels=[
                ChannelSignal(ch.label, ch.samples[:cut]) for ch in rec.channels
            ],
            acc=TriAxialAcc(*(ax[:cut] for ax in rec.acc.axes)),
            fs=rec.fs,
            start_time=rec.start_time,
            device_id=rec.device_id,
        )
        assert score_recording(trimmed, tiny_model).n_epochs == 59

    def test_channels_share_one_feature_pass(
        self, small_night, tiny_samples, tiny_train_config, monkeypatch
    ):
        from floss import features
        from floss.features import SpectrogramConfig, acc_norm, epoch_feature_matrix

        rec, _, _, _ = small_night
        assert len(rec.channels) == 2 and rec.acc is not None
        model = train_usability(tiny_samples, FS, "default", tiny_train_config)
        win = int(10.0 * FS)
        n = rec.n_samples // win
        cfg = SpectrogramConfig(fs=FS)
        acc = acc_norm(*rec.acc.axes)[: n * win].reshape(n, win)
        per_channel = [
            gbt.predict_label(
                model, epoch_feature_matrix(ch.samples[: n * win].reshape(n, win), acc, cfg)[0]
            )
            for ch in rec.channels
        ]

        calls = Counter()
        for name in ("stat_features", "spectrogram"):

            def counted(*args, _name=name, _inner=getattr(features, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(features, name, counted)
        scores = score_recording(rec, model)
        # once for the stacked EEG channels, once for the shared accelerometer
        assert calls == {"stat_features": 2, "spectrogram": 2}
        assert len(scores.labels) == 2
        for got, want in zip(scores.labels, per_channel):
            np.testing.assert_array_equal(got, want)

    def test_spectra_are_each_epochs_frame_mean(self, small_night, tiny_model):
        from floss.features import SpectrogramConfig, spectrogram

        rec, _, _, _ = small_night
        scores = score_recording(rec, tiny_model)
        win = int(10.0 * FS)
        cfg = SpectrogramConfig(fs=FS)
        want = [
            spectrogram(ch.samples[: 60 * win].reshape(60, win), cfg).mean(axis=1)
            for ch in rec.channels
        ]
        assert scores.spectra.shape == (2, 60, cfg.bin_count)
        for got, expect in zip(scores.spectra, want):
            np.testing.assert_array_equal(got, expect)


_B = BLOCK_EPOCHS


class TestBlockedScoring:
    """score_recording scores epoch blocks on the pool with one whole pass's bits."""

    @pytest.fixture(scope="class")
    def night(self):
        rec, _, _, _ = gen_night(subject_index=1, n_epochs=2 * _B + 3, fs=FS, seed=3)
        return rec

    @pytest.fixture(scope="class")
    def default_model(self, tiny_samples, tiny_train_config):
        return train_usability(tiny_samples, FS, "default", tiny_train_config)

    @staticmethod
    def _prefix(rec, n, with_acc=True):
        win = int(10.0 * FS)
        return Recording(
            channels=[ChannelSignal(ch.label, ch.samples[: n * win]) for ch in rec.channels],
            acc=TriAxialAcc(*(ax[: n * win] for ax in rec.acc.axes)) if with_acc else None,
            fs=rec.fs,
        )

    @staticmethod
    def _whole_pass(rec, model, per_tree_proba):
        """Labels and spectra from one feature matrix of the night and per-tree predict."""
        from floss.epoching import epoch_view
        from floss.features import SpectrogramConfig, acc_norm, epoch_feature_matrix

        cfg = SpectrogramConfig(fs=FS)
        eeg = np.stack([epoch_view(ch.samples, FS, 10.0) for ch in rec.channels])
        acc = None if rec.acc is None else epoch_view(acc_norm(*rec.acc.axes), FS, 10.0)
        X, layout = epoch_feature_matrix(eeg, acc, cfg)
        n_channels, n = eeg.shape[:2]
        labels = np.argmax(per_tree_proba(model, X), axis=1).reshape(n_channels, n)
        frames = X[:, : layout[0][1]].reshape(n_channels, n, -1, cfg.bin_count)
        return labels, frames.mean(axis=2)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_blocks_equal_one_whole_pass(
        self, night, default_model, per_tree_proba, monkeypatch, cpus
    ):
        want_labels, want_spectra = self._whole_pass(night, default_model, per_tree_proba)
        assert len(set(want_labels.ravel().tolist())) > 1
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        for n in (1, _B - 1, _B, _B + 1, 2 * _B + 3):
            scores = score_recording(self._prefix(night, n), default_model)
            np.testing.assert_array_equal(np.stack(scores.labels), want_labels[:, :n])
            np.testing.assert_array_equal(scores.spectra, want_spectra[:, :n])

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_blocks_without_accelerometer(
        self, night, default_model, per_tree_proba, monkeypatch, cpus
    ):
        bare = self._prefix(night, _B + 1, with_acc=False)
        want_labels, want_spectra = self._whole_pass(bare, default_model, per_tree_proba)
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        scores = score_recording(bare, default_model)
        np.testing.assert_array_equal(np.stack(scores.labels), want_labels)
        np.testing.assert_array_equal(scores.spectra, want_spectra)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_digital_night_scores_as_its_physical_samples(
        self, night, default_model, monkeypatch, cpus
    ):
        """Blocks converted into reused buffers, the last one partial, give
        the bits of the night converted whole."""
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        eeg_cal, acc_cal = Calibration(-3276.8, 3276.7), Calibration(-8.0, 8.0)
        eeg = [eeg_cal.to_digital(ch.samples) for ch in night.channels]
        axes = [acc_cal.to_digital(axis) for axis in night.acc.axes]
        digital = Recording(
            [ChannelSignal(ch.label, d, calibration=eeg_cal) for ch, d in zip(night.channels, eeg)],
            TriAxialAcc(*axes, calibrations=(acc_cal,) * 3),
            fs=night.fs,
        )
        physical = Recording(
            [ChannelSignal(ch.label, eeg_cal.to_physical(d)) for ch, d in zip(night.channels, eeg)],
            TriAxialAcc(*(acc_cal.to_physical(a) for a in axes)),
            fs=night.fs,
        )
        got, want = score_recording(digital, default_model), score_recording(physical, default_model)
        np.testing.assert_array_equal(np.stack(got.labels), np.stack(want.labels))
        assert got.spectra.tobytes() == want.spectra.tobytes()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_amplitude_warning_reaches_the_caller(self, night, tiny_model, monkeypatch, cpus):
        monkeypatch.setattr(features, "available_cpus", lambda: cpus)
        rec = self._prefix(night, _B + 1)
        loud = Recording(
            channels=[ChannelSignal(ch.label, ch.samples * 100.0) for ch in rec.channels],
            acc=rec.acc,
            fs=rec.fs,
        )
        with pytest.warns(UserWarning, match="normalization"):
            assert score_recording(loud, tiny_model).n_epochs == _B + 1


class TestScoresContainer:
    def test_csv_layout(self):
        scores = UsabilityScores(
            channels=["EEG L", "EEG R"],
            labels=[np.array([0, 2]), np.array([1, 0])],
            epoch_len_s=10.0,
            spectra=np.zeros((2, 2, 129)),
        )
        assert scores.to_csv() == (
            "channel,epoch_index,label\n"
            "EEG L,0,0\nEEG L,1,2\nEEG R,0,1\nEEG R,1,0\n"
        )

    def test_empty_container(self):
        assert UsabilityScores([], [], 10.0, np.zeros((0, 0, 129))).n_epochs == 0


_AMPLITUDES = st.one_of(
    st.sampled_from([0.0, 1.0, 2000.0, 2000.5, 1e300]), st.floats(0.0, 1e5, allow_nan=False)
)


class TestPercentile:
    @settings(max_examples=400, deadline=None)
    @given(
        x=arrays(np.float64, st.integers(1, 3000), elements=_AMPLITUDES),
        q=st.one_of(st.just(99.9), st.floats(0.0, 100.0)),
    )
    def test_equals_numpy_bit_for_bit(self, x, q):
        want = np.percentile(x, q)
        got = _percentile_of(x.copy(), q)
        assert got == want
        assert np.signbit(got) == np.signbit(want)

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 300), elements=st.sampled_from([-0.0, 0.0, -1.0, 3.0])))
    def test_value_of_signed_zeros_equals_numpy(self, x):
        assert _percentile_of(x.copy(), 99.9) == np.percentile(x, 99.9)

    def test_nan_gives_nan(self, rng):
        x = np.abs(rng.standard_normal(5000))
        x[17] = np.nan
        assert np.isnan(_percentile_of(x, 99.9))

    @settings(max_examples=300, deadline=None)
    @given(
        held=arrays(
            np.int16,
            st.integers(1, 3000),
            elements=st.integers(-32768, 32767) | st.sampled_from([-32768, -1, 0, 1, 32767]),
        ),
        phys=st.tuples(
            st.floats(-5000.0, 5000.0, allow_nan=False), st.floats(-5000.0, 5000.0, allow_nan=False)
        ).filter(lambda p: p[0] < p[1]),
        dig=st.tuples(st.integers(-40000, 40000), st.integers(-40000, 40000)).filter(
            lambda d: d[0] != d[1]
        ),
        q=st.one_of(st.just(99.9), st.floats(0.0, 100.0)),
    )
    def test_digital_counts_give_numpy_of_the_physical_bit_for_bit(self, held, phys, dig, q):
        """A digital channel's percentile comes from a count of its values;
        the ranges are drawn asymmetric, all-negative and reversed too."""
        cal = Calibration(*phys, *dig)
        ch = ChannelSignal("EEG", held, calibration=cal)
        want = np.percentile(np.abs(cal.to_physical(held)), q)
        got = _abs_percentile(ch, q)
        assert got == want
        assert np.signbit(got) == np.signbit(want)

    def test_physical_channel_gives_the_partition_value(self, rng):
        x = rng.standard_normal(4001) * 900
        assert _abs_percentile(ChannelSignal("EEG", x), 99.9) == np.percentile(np.abs(x), 99.9)
