"""Epoch labeling, compound merges, balancing, splits, annotation files."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import floss
from floss.epoching import (
    AnnotationSpan,
    ArtifactClass,
    EpochSample,
    assign_epoch_label,
    balance_rus,
    build_epochs,
    epoch_view,
    load_annotations,
    merge_compound_labels,
    subject_split,
    write_annotations,
)
from floss.errors import EmptyPartition, EmptyRecording, HeaderFieldUnparsable, UnknownLabelCode
from floss.signal_io import ChannelSignal, Recording, RecordingLayout


def _span(start, end, label, channel="EEG"):
    return AnnotationSpan(channel, Fraction(start), Fraction(end), ArtifactClass(label))


def _scan_labels(rec, spans, window_s):
    """Labels by testing every span against every epoch of a window_s grid.

    The quadratic per-epoch scan that build_epochs once ran; it agrees with
    build_epochs wherever window_s * fs is a whole number of samples.
    """
    w = Fraction(repr(window_s))
    out = []
    for ch in rec.channels:
        ch_spans = [s for s in spans if s.channel == ch.label]
        for i in range(len(epoch_view(ch.samples, rec.fs, window_s))):
            start = i * w
            in_epoch = [s for s in ch_spans if s.start_s < start + w and s.end_s > start]
            out.append((ch.label, i, assign_epoch_label(in_epoch, start, w)))
    return out


_CODES = [0, 1, 2, 3, 4, 5, 6, 13, 23, 43]


@st.composite
def _labelled_nights(draw):
    """A two-channel night at a whole-sample rate and spans around and beyond it."""
    window_s = draw(st.sampled_from([10.0, 30.0, 2.5, 0.5]))
    fs = draw(st.sampled_from([2.0, 4.0, 10.0]))
    win = int(window_s * fs)
    n_epochs = draw(st.integers(1, 8))
    n = n_epochs * win + draw(st.integers(0, win - 1))
    rec = Recording(
        channels=[ChannelSignal("EEG L", np.zeros(n)), ChannelSignal("EEG R", np.zeros(n))],
        acc=None,
        fs=fs,
    )
    w = Fraction(repr(window_s))
    # epoch edges, so that a span ending on an epoch's start is drawn often
    edge = st.integers(-1, n_epochs + 1).map(lambda k: k * w)
    inside = st.fractions(min_value=-w, max_value=(n_epochs + 1) * w, max_denominator=12)
    time = st.one_of(edge, inside)
    raw = draw(
        st.lists(
            st.tuples(st.sampled_from(["EEG L", "EEG R", "EMG"]), time, time, st.sampled_from(_CODES)),
            max_size=12,
        )
    )
    spans = [
        AnnotationSpan(ch, min(a, b), max(a, b), merge_compound_labels(code))
        for ch, a, b, code in raw
        if a != b
    ]
    return rec, spans, window_s


class TestCompoundMerge:
    def test_merge_table(self):
        assert merge_compound_labels(5) == ArtifactClass.HIGH_NOISE
        assert merge_compound_labels(6) == ArtifactClass.HIGH_NOISE
        assert merge_compound_labels(13) == ArtifactClass.SPIKY
        assert merge_compound_labels(23) == ArtifactClass.HIGH_NOISE
        assert merge_compound_labels(43) == ArtifactClass.M_SHAPED

    def test_plain_codes_pass_through(self):
        for code in range(5):
            assert merge_compound_labels(code) == ArtifactClass(code)

    def test_unknown_code_raises(self):
        with pytest.raises(UnknownLabelCode):
            merge_compound_labels(99)


class TestAssignEpochLabel:
    def test_majority_duration_wins(self):
        # 6 s of high noise vs 4 s usable backdrop
        spans = [_span(0, 6, 2)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.HIGH_NOISE

    def test_uncovered_epoch_is_usable(self):
        assert assign_epoch_label([], Fraction(0), 10.0) == ArtifactClass.USABLE

    def test_minority_span_loses_to_usable_rest(self):
        spans = [_span(0, 4, 2)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.USABLE

    def test_exact_tie_uses_precedence(self):
        # 5 s usable-by-omission vs 5 s NoData: precedence picks Usable
        spans = [_span(5, 10, 1)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.USABLE
        # HighNoise outranks Spiky on an exact 5/5 split
        spans = [_span(0, 5, 3), _span(5, 10, 2)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.HIGH_NOISE
        # M-shaped outranks Spiky and NoData
        spans = [_span(0, 5, 3), _span(5, 10, 4)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.M_SHAPED

    def test_small_perturbation_beats_precedence(self):
        # 1 ms extra Spiky must defeat the higher-precedence HighNoise
        spans = [
            AnnotationSpan("EEG", Fraction(0), Fraction(5001, 1000), ArtifactClass.SPIKY),
            AnnotationSpan(
                "EEG", Fraction(5001, 1000), Fraction(10), ArtifactClass.HIGH_NOISE
            ),
        ]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.SPIKY

    def test_permutation_invariance(self, rng):
        spans = [
            _span(0, 3, 2),
            _span(3, 7, 3),
            AnnotationSpan("EEG", Fraction(7), Fraction(19, 2), ArtifactClass.M_SHAPED),
        ]
        expected = assign_epoch_label(spans, Fraction(0), 10.0)
        for _ in range(10):
            perm = [spans[i] for i in rng.permutation(len(spans))]
            assert assign_epoch_label(perm, Fraction(0), 10.0) == expected

    def test_overlapping_spans_resolved_by_precedence(self):
        # overlap covered by both NoData and HighNoise counts as HighNoise
        spans = [_span(0, 10, 1), _span(0, 6, 2)]
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.HIGH_NOISE

    def test_fractional_exact_ties(self):
        third = Fraction(10, 3)
        spans = [
            AnnotationSpan("EEG", Fraction(0), third, ArtifactClass.SPIKY),
            AnnotationSpan("EEG", third, 2 * third, ArtifactClass.NO_DATA),
            AnnotationSpan("EEG", 2 * third, Fraction(10), ArtifactClass.M_SHAPED),
        ]
        # exact thirds: M-shaped has highest precedence among {3, 1, 4}
        assert assign_epoch_label(spans, Fraction(0), 10.0) == ArtifactClass.M_SHAPED


class TestBuildEpochs:
    def test_labels_land_on_their_epochs(self):
        fs = 64.0
        rec = Recording(
            channels=[ChannelSignal("EEG", np.zeros(int(fs * 30)))], acc=None, fs=fs
        )
        spans = [_span(10, 20, 2)]
        samples = build_epochs(rec.layout, spans, window_s=10.0)
        assert [int(s.label) for s in samples] == [0, 2, 0]
        assert [s.epoch_index for s in samples] == [0, 1, 2]

    def test_trailing_partial_window_dropped(self):
        fs = 64.0
        rec = Recording(
            channels=[ChannelSignal("EEG", np.zeros(int(fs * 25)))], acc=None, fs=fs
        )
        samples = build_epochs(rec.layout, [], window_s=10.0)
        assert len(samples) == 2

    @pytest.mark.parametrize("has_acc", [True, False])
    def test_records_carry_the_nights_ids_and_accelerometer(self, has_acc):
        layout = RecordingLayout(("EEG L", "EEG R"), 2 * 640 + 5, 64.0, has_acc)
        samples = build_epochs(layout, [_span(10, 20, 3, "EEG R")], 10.0, "s1", "n1")
        assert [(s.channel, s.epoch_index, int(s.label)) for s in samples] == [
            ("EEG L", 0, 0), ("EEG L", 1, 0), ("EEG R", 0, 0), ("EEG R", 1, 3),
        ]
        assert {(s.subject_id, s.night_id, s.has_acc) for s in samples} == {("s1", "n1", has_acc)}

    def test_repeated_channel_label_raises(self):
        # spans name a channel by label, so the two could not be told apart
        with pytest.raises(HeaderFieldUnparsable, match="repeat"):
            build_epochs(RecordingLayout(("EEG", "EEG"), 640, 64.0, False), [], 10.0)

    def test_too_short_recording_raises(self):
        rec = Recording(channels=[ChannelSignal("EEG", np.zeros(32))], acc=None, fs=64.0)
        with pytest.raises(EmptyRecording):
            build_epochs(rec.layout, [], window_s=10.0)

    def test_epochs_labelled_over_the_time_their_samples_cover(self):
        # 0.1 s at 256 Hz is 26 samples, so epoch i spans i*26/256 s onwards:
        # epoch 1000 starts at 101.5625 s, and 100.0-100.1 s falls in
        # epochs 984 (0.039 s of 0.1016) and 985 (0.061 s, a majority)
        fs = 256.0
        rec = Recording(channels=[ChannelSignal("EEG", np.zeros(1100 * 26))], acc=None, fs=fs)
        spans = [_span(Fraction(100), Fraction(1001, 10), 2)]
        samples = build_epochs(rec.layout, spans, window_s=0.1)
        assert len(samples) == 1100
        assert [s.epoch_index for s in samples if s.label != ArtifactClass.USABLE] == [985]

    @settings(max_examples=300, deadline=None)
    @given(night=_labelled_nights())
    def test_agrees_with_the_per_epoch_scan(self, night):
        rec, spans, window_s = night
        samples = build_epochs(rec.layout, spans, window_s)
        got = [(s.channel, s.epoch_index, s.label) for s in samples]
        assert got == _scan_labels(rec, spans, window_s)


class TestEpochView:
    def test_tail_dropped_and_leading_axes_kept(self):
        x = np.arange(2 * 25, dtype=np.float64).reshape(2, 25)
        got = epoch_view(x, fs=2.0, epoch_len_s=4.0)
        assert got.shape == (2, 3, 8)
        np.testing.assert_array_equal(got[1, 2], x[1, 16:24])

    def test_contiguous_input_gives_a_view(self):
        x = np.zeros(100)
        assert np.shares_memory(epoch_view(x, fs=10.0, epoch_len_s=3.0), x)

    def test_window_rounds_to_nearest_sample(self):
        assert epoch_view(np.zeros(30), fs=10.0, epoch_len_s=0.96).shape == (3, 10)

    @pytest.mark.parametrize("n, epoch_len_s", [(9, 1.0), (100, 0.04), (100, 0.0), (100, -1.0)])
    def test_no_whole_epoch_raises(self, n, epoch_len_s):
        with pytest.raises(EmptyRecording):
            epoch_view(np.zeros(n), fs=10.0, epoch_len_s=epoch_len_s)


class TestBalanceRus:
    @staticmethod
    def _mk(label, i):
        return EpochSample(
            subject_id=f"s{i % 4}",
            night_id="n0",
            channel="EEG",
            epoch_index=i,
            label=ArtifactClass(label),
            has_acc=False,
        )

    def test_majority_reduced_to_artifact_total(self):
        samples = [self._mk(0, i) for i in range(100)]
        for label in (1, 2, 3, 4):
            samples += [self._mk(label, 100 + label * 10 + k) for k in range(10)]
        out = balance_rus(samples, seed=3)
        counts = {c: sum(1 for s in out if int(s.label) == c) for c in range(5)}
        assert counts == {0: 40, 1: 10, 2: 10, 3: 10, 4: 10}

    def test_never_drops_artifacts_and_is_deterministic(self):
        samples = [self._mk(0, i) for i in range(30)] + [self._mk(2, 30 + i) for i in range(5)]
        out1 = balance_rus(samples, seed=9)
        out2 = balance_rus(samples, seed=9)
        assert [s.epoch_index for s in out1] == [s.epoch_index for s in out2]
        assert sum(1 for s in out1 if s.label == ArtifactClass.HIGH_NOISE) == 5

    def test_small_usable_class_kept_whole(self):
        samples = [self._mk(0, i) for i in range(5)] + [self._mk(1, 10 + i) for i in range(10)]
        assert len(balance_rus(samples, seed=0)) == 15


class TestSubjectSplit:
    def test_split_is_disjoint(self, tiny_samples):
        subjects = sorted({s.subject_id for s in tiny_samples})
        train, test = subject_split(tiny_samples, subjects[:1], subjects[1:])
        assert {s.subject_id for s in train}.isdisjoint({s.subject_id for s in test})
        assert len(train) + len(test) == len(tiny_samples)

    def test_overlap_rejected(self, tiny_samples):
        with pytest.raises(ValueError):
            subject_split(tiny_samples, ["s00"], ["s00"])

    def test_empty_side_raises(self, tiny_samples):
        with pytest.raises(EmptyPartition):
            with pytest.warns(UserWarning):
                subject_split(tiny_samples, ["s00", "s01"], ["nope"])


def test_annotations_round_trip(tmp_path):
    spans = [
        AnnotationSpan("EEG L", Fraction(0), Fraction(21, 2), ArtifactClass.HIGH_NOISE),
        AnnotationSpan("EEG R", Fraction(3, 7), Fraction(5), ArtifactClass.SPIKY),
        # labels a CSV cell holds only quoted
        AnnotationSpan("EEG, L", Fraction(1), Fraction(2), ArtifactClass.M_SHAPED),
        AnnotationSpan('EEG "R"', Fraction(2), Fraction(3), ArtifactClass.NO_DATA),
    ]
    path = tmp_path / "labels.csv"
    write_annotations(spans, path)
    assert load_annotations(path) == spans


def test_load_annotations_merges_compound_codes(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("channel,start_s,end_s,label\nEEG,0,5,43\n")
    (span,) = load_annotations(path)
    assert span.label == ArtifactClass.M_SHAPED


def test_load_annotations_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_bytes(b"\xef\xbb\xbfchannel,start_s,end_s,label\nEEG,0,5,2\n")
    assert load_annotations(path) == [AnnotationSpan("EEG", 0, 5, ArtifactClass.HIGH_NOISE)]


def test_span_validation():
    with pytest.raises(ValueError):
        AnnotationSpan("EEG", Fraction(5), Fraction(5), ArtifactClass.SPIKY)
