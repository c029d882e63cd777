"""Score aggregation: the published worked example plus edge semantics."""
from __future__ import annotations

import numpy as np
import pytest

from floss.aggregate import (
    AggregationConfig,
    SleepStage,
    binarize,
    channel_majority,
    downsample_majority,
    load_sleep_scores,
    normalize_sleep_codes,
    reject_artifacts,
    rejected_scores,
    write_sleep_scores,
)
from floss.errors import (
    EpochMultipleViolation,
    HeaderFieldUnparsable,
    LengthMismatch,
    ScoreLengthMismatch,
)

# the six-sleep-epoch worked example: two channels of 18 usability epochs
B_LEFT = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])
B_RIGHT = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1])
U_AGG = np.array([0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0])
U_SF = np.array([0, 0, 1, 1, 1, 0])
S_RAW = np.array([0, 1, 2, 3, 4, 5])  # REM written as its alias 5
S_AR = np.array([0, 1, -1, -1, -1, 4])


class TestWorkedExample:
    def test_channel_majority_row(self):
        np.testing.assert_array_equal(channel_majority([B_LEFT, B_RIGHT]), U_AGG)

    def test_downsample_row(self):
        np.testing.assert_array_equal(downsample_majority(U_AGG, 3), U_SF)

    def test_rejected_row(self):
        scores = normalize_sleep_codes(S_RAW)
        np.testing.assert_array_equal(reject_artifacts(scores, U_SF), S_AR)

    def test_whole_chain_from_labels(self):
        # non-zero artifact classes in place of the binary flags
        left = B_LEFT * 2
        right = B_RIGHT * 4
        out = rejected_scores([left, right], normalize_sleep_codes(S_RAW))
        np.testing.assert_array_equal(out, S_AR)


class TestBinarize:
    def test_any_artifact_class_is_unusable(self):
        np.testing.assert_array_equal(binarize([0, 1, 2, 3, 4, 0]), [0, 1, 1, 1, 1, 0])


class TestChannelMajority:
    def test_tie_of_two_channels_stays_usable(self):
        out = channel_majority([np.array([1, 0]), np.array([0, 0])])
        np.testing.assert_array_equal(out, [0, 0])

    def test_two_of_three_is_strict_majority(self):
        out = channel_majority([np.array([1]), np.array([1]), np.array([0])])
        np.testing.assert_array_equal(out, [1])

    def test_single_channel_passes_through(self):
        np.testing.assert_array_equal(channel_majority([np.array([0, 1])]), [0, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            channel_majority([np.zeros(3, dtype=int), np.zeros(4, dtype=int)])
        with pytest.raises(LengthMismatch):
            channel_majority([])


class TestDownsample:
    def test_strict_majority_within_group(self):
        np.testing.assert_array_equal(downsample_majority(np.array([1, 1, 0]), 3), [1])
        np.testing.assert_array_equal(downsample_majority(np.array([1, 0, 0]), 3), [0])

    def test_even_split_stays_usable(self):
        np.testing.assert_array_equal(downsample_majority(np.array([1, 0]), 2), [0])

    def test_trailing_partial_group_dropped(self):
        np.testing.assert_array_equal(
            downsample_majority(np.array([1, 1, 1, 1, 1]), 3), [1]
        )

    def test_scale_factor_must_be_integer_ratio(self):
        with pytest.raises(EpochMultipleViolation):
            AggregationConfig(usability_epoch_len_s=10.0, sleep_epoch_len_s=25.0).scale_factor
        assert AggregationConfig(10.0, 30.0).scale_factor == 3
        assert AggregationConfig(30.0, 30.0).scale_factor == 1


class TestRejectArtifacts:
    def test_one_epoch_mismatch_truncates(self):
        scores = np.array([0, 1, 2, 3])
        flags = np.array([0, 1, 0])
        np.testing.assert_array_equal(reject_artifacts(scores, flags), [0, -1, 2])
        np.testing.assert_array_equal(
            reject_artifacts(np.array([0, 1, 2]), np.array([0, 0, 1, 1])), [0, 1, -1]
        )

    def test_larger_mismatch_raises(self):
        with pytest.raises(ScoreLengthMismatch):
            reject_artifacts(np.array([0, 1, 2, 3, 4]), np.array([0, 0, 0]))

    def test_rejection_only_hits_flagged_epochs(self):
        scores = np.array([0, 1, 2, 3, 4])
        flags = np.array([0, 0, 0, 0, 0])
        np.testing.assert_array_equal(reject_artifacts(scores, flags), scores)


class TestRejectionMonotonicity:
    def test_more_artifacts_never_unreject(self, rng):
        # flipping any usability epoch to artifact can only add rejections
        for _ in range(20):
            labels = [rng.integers(0, 5, size=18), rng.integers(0, 5, size=18)]
            scores = normalize_sleep_codes(rng.integers(0, 6, size=6))
            base = rejected_scores(labels, scores)
            worse = [labels[0].copy(), labels[1].copy()]
            ch = int(rng.integers(0, 2))
            pos = int(rng.integers(0, 18))
            worse[ch][pos] = 2
            rejected_after = rejected_scores(worse, scores)
            before_mask = base == SleepStage.UNSCORABLE
            after_mask = rejected_after == SleepStage.UNSCORABLE
            assert np.all(after_mask | ~before_mask | ~after_mask)
            assert after_mask.sum() >= before_mask.sum()
            # untouched epochs keep their stage
            same = ~after_mask
            np.testing.assert_array_equal(rejected_after[same], scores[same])


class TestCodes:
    def test_rem_alias_normalized(self):
        np.testing.assert_array_equal(normalize_sleep_codes([5, 4, 0]), [4, 4, 0])

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(HeaderFieldUnparsable):
            normalize_sleep_codes([0, 7])
        with pytest.raises(HeaderFieldUnparsable):
            normalize_sleep_codes([-1])

    def test_load_sleep_scores_file(self, tmp_path):
        path = tmp_path / "sleep.txt"
        path.write_text("0\n2\n\n5\n")
        np.testing.assert_array_equal(load_sleep_scores(path), [0, 2, 4])
        path.write_text("0\nx\n")
        with pytest.raises(HeaderFieldUnparsable):
            load_sleep_scores(path)

    def test_sleep_scores_file_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "sleep.txt"
        path.write_bytes(b"\xef\xbb\xbf2\n0\n")
        np.testing.assert_array_equal(load_sleep_scores(path), [2, 0])

    def test_write_sleep_scores_round_trip(self, tmp_path):
        path = tmp_path / "rejected.txt"
        write_sleep_scores(np.array([0, -1, 4, 2], dtype=np.int64), path)
        assert path.read_text() == "0\n-1\n4\n2\n"
        np.testing.assert_array_equal(load_sleep_scores(path, allow_unscorable=True), [0, -1, 4, 2])
