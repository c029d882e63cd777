"""Sleep EEG usability scoring, artifact rejection, and night reports."""
from __future__ import annotations

from .aggregate import (
    AggregationConfig,
    SleepStage,
    binarize,
    channel_majority,
    downsample_majority,
    load_sleep_scores,
    reject_artifacts,
    rejected_scores,
)
from .epoching import (
    AnnotationSpan,
    ArtifactClass,
    EpochSample,
    assign_epoch_label,
    balance_rus,
    build_epochs,
    load_annotations,
    merge_compound_labels,
    subject_split,
    write_annotations,
)
from .errors import ErrorTaxonomy, FlossError
from .features import (
    SpectrogramConfig,
    acc_norm,
    band_powers,
    epoch_feature_matrix,
    spectrogram,
    stat_features,
    welch_psd,
)
from .gbt import Model, TrainConfig, fit, load_model, predict_label, predict_proba, save_model
from .mobility import MobilityState, TimeInBed, classify_mobility, detect_tib, fit_mobility
from .report import NightReport, PipelineConfig, run_pipeline
from .signal_io import (
    Calibration,
    ChannelSignal,
    Recording,
    TriAxialAcc,
    read_csv,
    read_edf,
    write_csv,
    write_edf,
)
from .sleepstats import SleepStats, compute_stats
from .spiky import FilterCascade, apply_zero_phase, design_cascade, freq_response
from .synth import gen_artifact_epoch, gen_labeled_dataset, gen_mobility_sequence, gen_night
from .usability import UsabilityScores, VARIANTS, score_recording, train_usability

__version__ = "0.1.0"

__all__ = [
    "AggregationConfig",
    "AnnotationSpan",
    "ArtifactClass",
    "Calibration",
    "ChannelSignal",
    "EpochSample",
    "ErrorTaxonomy",
    "FilterCascade",
    "FlossError",
    "MobilityState",
    "Model",
    "NightReport",
    "PipelineConfig",
    "Recording",
    "SleepStage",
    "SleepStats",
    "SpectrogramConfig",
    "TimeInBed",
    "TrainConfig",
    "TriAxialAcc",
    "UsabilityScores",
    "VARIANTS",
    "acc_norm",
    "apply_zero_phase",
    "assign_epoch_label",
    "balance_rus",
    "band_powers",
    "binarize",
    "build_epochs",
    "channel_majority",
    "classify_mobility",
    "compute_stats",
    "design_cascade",
    "detect_tib",
    "downsample_majority",
    "epoch_feature_matrix",
    "fit",
    "fit_mobility",
    "freq_response",
    "gen_artifact_epoch",
    "gen_labeled_dataset",
    "gen_mobility_sequence",
    "gen_night",
    "load_annotations",
    "load_model",
    "load_sleep_scores",
    "merge_compound_labels",
    "predict_label",
    "predict_proba",
    "read_csv",
    "read_edf",
    "reject_artifacts",
    "rejected_scores",
    "run_pipeline",
    "save_model",
    "score_recording",
    "spectrogram",
    "stat_features",
    "subject_split",
    "train_usability",
    "welch_psd",
    "write_annotations",
    "write_csv",
    "write_edf",
]
