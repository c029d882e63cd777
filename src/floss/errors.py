"""Exception types and the closed error taxonomy used for batch skip decisions."""
from __future__ import annotations

from enum import Enum


class ErrorTaxonomy(Enum):
    """Closed set of recording-level error codes.

    Every night skipped by the batch pipeline is tagged with exactly one
    of these codes in its report entry.
    """

    FILE_UNREADABLE = "FileUnreadable"
    HEADER_FIELD_UNPARSABLE = "HeaderFieldUnparsable"
    TRUNCATED_FILE = "TruncatedFile"
    SAMPLING_RATE_MISMATCH = "SamplingRateMismatch"
    CHANNEL_MISSING = "ChannelMissing"
    ACC_MISSING_WHEN_REQUIRED = "AccMissingWhenRequired"
    LENGTH_MISMATCH_EEG_ACC = "LengthMismatchEegAcc"
    SCORE_LENGTH_MISMATCH = "ScoreLengthMismatch"
    EMPTY_RECORDING = "EmptyRecording"
    NON_FINITE_SAMPLES = "NonFiniteSamples"
    EPOCH_MULTIPLE_VIOLATION = "EpochMultipleViolation"
    MODEL_INCOMPATIBLE = "ModelIncompatible"
    NO_LYING_PERIOD = "NoLyingPeriod"
    AMPLITUDE_OUT_OF_DECLARED_RANGE = "AmplitudeOutOfDeclaredRange"


class FlossError(Exception):
    """Base class for all library errors.

    ``code`` carries the taxonomy entry the batch pipeline reports when a
    night fails with this error; ``None`` marks programming/config errors
    that should abort instead of skip.
    """

    code: ErrorTaxonomy | None = None


class FileUnreadable(FlossError):
    code = ErrorTaxonomy.FILE_UNREADABLE


class HeaderFieldUnparsable(FlossError):
    code = ErrorTaxonomy.HEADER_FIELD_UNPARSABLE


class TruncatedFile(FlossError):
    code = ErrorTaxonomy.TRUNCATED_FILE


class SamplingRateMismatch(FlossError):
    code = ErrorTaxonomy.SAMPLING_RATE_MISMATCH


class ChannelMissing(FlossError):
    code = ErrorTaxonomy.CHANNEL_MISSING


class AccMissingWhenRequired(FlossError):
    code = ErrorTaxonomy.ACC_MISSING_WHEN_REQUIRED


class LengthMismatchEegAcc(FlossError):
    code = ErrorTaxonomy.LENGTH_MISMATCH_EEG_ACC


class ScoreLengthMismatch(FlossError):
    code = ErrorTaxonomy.SCORE_LENGTH_MISMATCH


class EmptyRecording(FlossError):
    code = ErrorTaxonomy.EMPTY_RECORDING


class NonFiniteSamples(FlossError):
    code = ErrorTaxonomy.NON_FINITE_SAMPLES


class EpochMultipleViolation(FlossError):
    code = ErrorTaxonomy.EPOCH_MULTIPLE_VIOLATION


class ModelIncompatible(FlossError):
    code = ErrorTaxonomy.MODEL_INCOMPATIBLE


class NoLyingPeriod(FlossError):
    code = ErrorTaxonomy.NO_LYING_PERIOD


class DigitalRangeDegenerate(HeaderFieldUnparsable):
    """EDF signal with dig_min == dig_max: the calibration map is undefined."""


class AmplitudeOutOfDeclaredRange(FlossError):
    """Physical sample falls outside the declared physical range at write time."""

    code = ErrorTaxonomy.AMPLITUDE_OUT_OF_DECLARED_RANGE


class UnknownLabelCode(HeaderFieldUnparsable):
    """Annotation label code outside the known artifact classes."""


class EmptyPartition(FlossError):
    """A train/test split left one side without samples."""


class SegmentTooShort(FlossError):
    """Input shorter than one analysis segment."""

    code = ErrorTaxonomy.EMPTY_RECORDING


class FeatureCountMismatch(ModelIncompatible):
    """Feature vector width differs from what the model was fit on."""


class DegenerateData(FlossError):
    """Training data missing a class or otherwise unfit for fitting."""


class NonFiniteFeature(FlossError):
    code = ErrorTaxonomy.NON_FINITE_SAMPLES


class LengthMismatch(ScoreLengthMismatch):
    """Per-channel usability sequences disagree in length."""


class FrequencyAboveNyquist(FlossError):
    """Filter design frequency at or above fs/2."""


class SignalTooShort(FlossError):
    """Signal too short for zero-phase filtering edge padding."""

    code = ErrorTaxonomy.EMPTY_RECORDING


class NoSleepDetected(FlossError):
    """No sleep-stage epoch found; sleep statistics are undefined."""
