"""Synthetic data generators: per-class invariants and seed determinism."""
from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from floss.epoching import ArtifactClass
from floss.features import acc_norm
from floss.mobility import MobilityState
from floss.synth import (
    gen_artifact_epoch,
    gen_labeled_dataset,
    gen_mobility_sequence,
    gen_night,
    subject_amplitude_scale,
)

FS = 256.0


def _epochs(label, n=12, seed=0):
    return [gen_artifact_epoch(label, FS, 10.0, seed, key=(k,))[0] for k in range(n)]


class TestArtifactClasses:
    def test_usable_amplitude_bounded(self):
        for x in _epochs(ArtifactClass.USABLE):
            assert np.abs(x).max() <= 100.0
            assert x.std() > 1.0  # genuinely active signal

    def test_no_data_is_constant_within_50(self):
        for x in _epochs(ArtifactClass.NO_DATA):
            assert np.ptp(x) == 0.0
            assert np.abs(x[0]) <= 50.0

    def test_high_noise_exceeds_400(self):
        for x in _epochs(ArtifactClass.HIGH_NOISE):
            assert np.abs(x).max() >= 400.0

    def test_spiky_concentrates_at_8_hz_harmonics(self):
        for x in _epochs(ArtifactClass.SPIKY):
            spec = np.abs(np.fft.rfft(x)) ** 2
            freqs = np.fft.rfftfreq(len(x), 1 / FS)
            tone_mask = np.zeros(len(freqs), dtype=bool)
            for f0 in (8.0, 16.0, 24.0):
                tone_mask |= np.abs(freqs - f0) < 0.5
            tone = spec[tone_mask].sum()
            rest = spec[~tone_mask].sum()
            assert tone > 10.0 * rest

    def test_m_shaped_is_bounded_and_slow(self):
        for x in _epochs(ArtifactClass.M_SHAPED):
            assert np.abs(x).max() <= 100.0

    def test_m_template_period_shows_in_autocorrelation(self):
        # average out the masking noise over many epochs
        lags = []
        for k in range(20):
            x, _ = gen_artifact_epoch(ArtifactClass.M_SHAPED, FS, 10.0, 1, key=(k,))
            x = x - x.mean()
            ac = np.correlate(x, x, "full")[len(x) - 1 :]
            window = (np.arange(len(ac)) / FS >= 3.0) & (np.arange(len(ac)) / FS <= 6.0)
            lag = np.flatnonzero(window)[np.argmax(ac[window])] / FS
            lags.append(lag)
        # the dominant repeat distance sits in the 4-5 s design band
        assert 3.5 <= np.median(lags) <= 5.5

    def test_same_key_same_epoch(self):
        a, _ = gen_artifact_epoch(ArtifactClass.USABLE, FS, 10.0, 5, key=(1, 2))
        b, _ = gen_artifact_epoch(ArtifactClass.USABLE, FS, 10.0, 5, key=(1, 2))
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a, _ = gen_artifact_epoch(ArtifactClass.USABLE, FS, 10.0, 5, key=(1, 2))
        b, _ = gen_artifact_epoch(ArtifactClass.USABLE, FS, 10.0, 5, key=(1, 3))
        assert not np.array_equal(a, b)

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            gen_artifact_epoch(99, FS, 10.0, 0)  # type: ignore[arg-type]


class TestMobilitySequences:
    def test_block_labels_and_lengths(self):
        blocks = [(MobilityState.MOBILE, 3), (MobilityState.LYING, 5), (MobilityState.IDLE, 2)]
        axes, states = gen_mobility_sequence(blocks, FS, 10.0, seed=0)
        assert states == [MobilityState.MOBILE] * 3 + [MobilityState.LYING] * 5 + [
            MobilityState.IDLE
        ] * 2
        assert len(axes[0]) == 10 * int(FS * 10.0)

    def test_idle_is_exactly_constant(self):
        axes, _ = gen_mobility_sequence([(MobilityState.IDLE, 2)], FS, 10.0, seed=1)
        for axis in axes:
            assert np.ptp(axis) == 0.0

    def test_mobile_much_noisier_than_lying(self):
        axes_m, _ = gen_mobility_sequence([(MobilityState.MOBILE, 4)], FS, 10.0, seed=2)
        axes_l, _ = gen_mobility_sequence([(MobilityState.LYING, 4)], FS, 10.0, seed=2)
        norm_m = acc_norm(*axes_m)
        norm_l = acc_norm(*axes_l)
        assert norm_m.std() > 10.0 * norm_l.std()

    def test_worn_states_hover_near_one_g(self):
        axes, _ = gen_mobility_sequence([(MobilityState.STATIONARY, 4)], FS, 10.0, seed=3)
        norm = acc_norm(*axes)
        assert abs(np.median(norm) - 1.0) < 0.1


class TestDatasetAndNight:
    def test_labeled_dataset_is_balanced_and_deterministic(self):
        a = gen_labeled_dataset(n_subjects=2, epochs_per_class_per_subject=3, seed=4)
        b = gen_labeled_dataset(n_subjects=2, epochs_per_class_per_subject=3, seed=4)
        assert len(a) == 2 * 3 * 5
        counts = {c: sum(1 for s in a if int(s.label) == c) for c in range(5)}
        assert set(counts.values()) == {6}
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.eeg, t.eeg)
        assert {s.subject_id for s in a} == {"s00", "s01"}

    def test_labeled_epochs_hold_no_samples(self):
        for s in gen_labeled_dataset(n_subjects=2, epochs_per_class_per_subject=2, seed=4):
            for field in dataclasses.fields(s):
                assert not isinstance(getattr(s, field.name), np.ndarray), field.name

    @pytest.mark.parametrize("fs, epoch_len_s", [(FS, 10.0), (128.0, 4.0)])
    def test_labeled_epochs_draw_the_epoch_of_their_key(self, fs, epoch_len_s):
        samples = gen_labeled_dataset(3, 2, fs, epoch_len_s, seed=9)
        for s in samples:
            subject = int(s.subject_id[1:])
            k, label = divmod(s.epoch_index, len(ArtifactClass))
            assert int(s.label) == label
            eeg, axes = gen_artifact_epoch(
                s.label, fs, epoch_len_s, 9, key=(subject, k),
                subject_scale=subject_amplitude_scale(9, subject),
            )
            assert s.eeg.tobytes() == eeg.tobytes()
            assert s.acc_norm.tobytes() == acc_norm(*axes).tobytes()

    def test_labeled_dataset_holds_no_epoch_arrays(self):
        # drawn whole, 800 epochs of 2560 samples would take 33 MB
        tracemalloc.start()
        try:
            gen_labeled_dataset(4, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_night_channels_are_the_eeg_of_their_epochs(self, small_night):
        rec, spans, _, _ = small_night  # subject 0 of seed 11, 60 epochs
        scale = subject_amplitude_scale(11, 0)
        for c, ch in enumerate(rec.channels):
            labels = [ArtifactClass.USABLE] * 60
            for span in spans:
                if span.channel == ch.label:
                    labels[int(span.start_s) // 10] = span.label
            want = [
                gen_artifact_epoch(label, FS, 10.0, 11, key=(0, c, i), subject_scale=scale)[0]
                for i, label in enumerate(labels)
            ]
            assert ch.samples.tobytes() == np.concatenate(want).tobytes()

    def test_night_pieces_are_consistent(self, small_night):
        rec, spans, sleep_scores, mobility = small_night
        n_epochs = 60
        assert rec.n_samples == n_epochs * 2560
        assert len(mobility) == n_epochs
        assert len(sleep_scores) == n_epochs * 10 // 30
        assert rec.acc is not None
        channel_names = {ch.label for ch in rec.channels}
        assert {s.channel for s in spans} <= channel_names
        # spans mark only non-usable epochs and stay inside the night
        for span in spans:
            assert span.label != ArtifactClass.USABLE
            assert 0 <= float(span.start_s) < float(span.end_s) <= n_epochs * 10.0
        assert all(0 <= v <= 5 for v in sleep_scores)
        # the night has a long lying stretch bracketed by mobile epochs
        assert mobility[0] == MobilityState.MOBILE
        assert mobility[-1] == MobilityState.MOBILE
        assert sum(1 for s in mobility if s == MobilityState.LYING) >= 12
