"""Per-epoch usability scoring of recordings, plus the model variants.

A usability model is the boosted-tree classifier over per-epoch features.
Variants change the recipe, not the machinery: lite drops the statistical
blocks, binary collapses the labels to usable/unusable, and weighted-m
raises the two-humped-artifact class weight.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import gbt
from .epoching import ArtifactClass, EpochSample, epoch_view
from .errors import ChannelMissing, DegenerateData
from .features import (
    SpectrogramConfig,
    acc_norm,
    epoch_feature_matrix,
    feature_layout,
    pool_map,
)
from .signal_io import Recording

#: class weight applied to the two-humped artifact class by weighted-m
M_CLASS_WEIGHT = 3.0

#: 99.9th-percentile amplitude above this suggests non-standard scaling
AMPLITUDE_WARN_UV = 2000.0

#: epochs one ``score_recording`` task takes, for every channel at once,
#: through features, trees and spectra; a task's arrays then stay a few MB
#: however long the night
_BLOCK_EPOCHS = 128


@dataclass(frozen=True)
class VariantSpec:
    name: str
    lite: bool
    binary: bool
    weighted_m: bool


VARIANTS: dict[str, VariantSpec] = {
    spec.name: spec
    for spec in (
        VariantSpec("default", lite=False, binary=False, weighted_m=False),
        VariantSpec("lite", lite=True, binary=False, weighted_m=False),
        VariantSpec("binary", lite=False, binary=True, weighted_m=False),
        VariantSpec("weighted-m", lite=False, binary=False, weighted_m=True),
        VariantSpec("lite-binary", lite=True, binary=True, weighted_m=False),
        VariantSpec("lite-weighted-m", lite=True, binary=False, weighted_m=True),
    )
}


@dataclass
class UsabilityScores:
    """Per-channel label sequences on the usability epoch grid.

    ``spectra`` is each channel's per-epoch EEG spectrum, the mean of its
    spectrogram frames: (channels, n_epochs, bins).
    """

    channels: list[str]
    labels: list[np.ndarray]
    epoch_len_s: float
    spectra: np.ndarray

    @property
    def n_epochs(self) -> int:
        return len(self.labels[0]) if self.labels else 0

    def to_csv(self) -> str:
        lines = ["channel,epoch_index,label"]
        for name, seq in zip(self.channels, self.labels):
            for i, v in enumerate(seq):
                lines.append(f"{name},{i},{int(v)}")
        return "\n".join(lines) + "\n"


def variant_spec(name: str) -> VariantSpec:
    try:
        return VARIANTS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}") from None


def _dataset_matrices(
    samples: list[EpochSample], fs: float, include_stats: bool
) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    eeg = np.stack([s.eeg for s in samples])
    if any(s.acc_norm is not None for s in samples):
        width = eeg.shape[1]
        acc = np.stack(
            [s.acc_norm if s.acc_norm is not None else np.zeros(width) for s in samples]
        )
    else:
        acc = None
    cfg = SpectrogramConfig(fs=fs)
    return epoch_feature_matrix(eeg, acc, cfg, include_stats=include_stats)


def train_usability(
    samples: list[EpochSample],
    fs: float,
    variant: str = "default",
    config: gbt.TrainConfig = gbt.TrainConfig(),
) -> gbt.Model:
    """Fit a usability model of the chosen variant on labeled epochs."""
    if not samples:
        raise DegenerateData("no training samples")
    spec = variant_spec(variant)
    X, layout = _dataset_matrices(samples, fs, include_stats=not spec.lite)

    if spec.binary:
        y = np.asarray([0 if s.label == ArtifactClass.USABLE else 1 for s in samples])
    else:
        y = np.asarray([int(s.label) for s in samples])

    if spec.weighted_m:
        weights = [1.0] * (int(y.max()) + 1)
        weights[int(ArtifactClass.M_SHAPED)] = M_CLASS_WEIGHT
        config = dataclasses.replace(config, class_weights=tuple(weights))

    epoch_len_s = samples[0].eeg.shape[-1] / fs
    meta = {
        "task": "usability",
        "variant": variant,
        "fs": fs,
        "epoch_len_s": epoch_len_s,
        "include_stats": not spec.lite,
        "binary": spec.binary,
    }
    return gbt.fit(X, y, config, feature_layout=layout, meta=meta)


def _percentile_of(x: np.ndarray, q: float) -> float:
    """np.percentile(x, q) of a 1-D float array, from one partition of x.

    x is reordered.  The two order statistics around the index
    (n - 1) * q / 100 are the value at the upper index and the max below
    it, blended by the formula of numpy's _lerp, so the value is
    np.percentile's, and its bits too where x holds no -0.0 (the absolute
    values it is taken of); NaN anywhere gives NaN.
    """
    virtual = (x.size - 1) * np.true_divide(q, 100)
    if virtual >= x.size - 1:
        return x.max()
    k = int(virtual) + 1
    x.partition(k)
    if np.isnan(x[k:]).any():  # NaN sorts last
        return np.nan
    below, above = x[:k].max(), x[k]
    t = virtual - (k - 1)
    diff = above - below
    return above - diff * (1 - t) if t >= 0.5 else below + diff * t


def score_recording(rec: Recording, model: gbt.Model) -> UsabilityScores:
    """Label every channel epoch of a recording with the model's classes.

    The night is scored _BLOCK_EPOCHS epochs at a time, a task each on the
    kept CPU pool: a task computes its epochs' feature rows, predicts them
    and writes their labels and spectra.  A row's features, label and
    spectrum do not depend on its neighbours, so the blocks and the CPU
    count leave every bit as one whole-night feature matrix would.
    """
    epoch_len_s = gbt.input_epoch_len(model, "usability", rec.fs)
    if not rec.channels:
        raise ChannelMissing("recording has no EEG channels")
    include_stats = bool(model.meta.get("include_stats", True))

    # one view per channel: epoch_feature_matrix reads them without a stack
    eeg_epochs = [epoch_view(ch.samples, rec.fs, epoch_len_s) for ch in rec.channels]
    n_channels, n_epochs = len(eeg_epochs), len(eeg_epochs[0])

    for ch in rec.channels:
        if _percentile_of(np.abs(ch.samples), 99.9) > AMPLITUDE_WARN_UV:
            warnings.warn(
                f"channel {ch.label!r} amplitudes exceed {AMPLITUDE_WARN_UV} uV; "
                "data may need normalization to the expected microvolt scale",
                stacklevel=2,
            )

    cfg = SpectrogramConfig(fs=rec.fs)
    win = eeg_epochs[0].shape[1]
    layout = feature_layout(win, cfg, include_stats)
    gbt.check_layout(model, layout)
    labels = np.empty((n_channels, n_epochs), dtype=np.intp)
    spectra = np.empty((n_channels, n_epochs, cfg.bin_count))

    def score_block(start: int) -> None:
        stop = min(start + _BLOCK_EPOCHS, n_epochs)
        norm = None
        if rec.acc is not None:
            axes = (axis[start * win : stop * win] for axis in rec.acc.axes)
            norm = acc_norm(*axes).reshape(stop - start, win)
        X, _ = epoch_feature_matrix([e[start:stop] for e in eeg_epochs], norm, cfg, include_stats)
        labels[:, start:stop] = gbt.predict_label(model, X).reshape(n_channels, -1)
        # every row opens with its EEG spectrogram, frames x bins
        frames = X[:, : layout[0][1]].reshape(n_channels, stop - start, -1, cfg.bin_count)
        spectra[:, start:stop] = frames.mean(axis=2)

    pool_map(score_block, range(0, n_epochs, _BLOCK_EPOCHS))
    return UsabilityScores(
        channels=[ch.label for ch in rec.channels],
        labels=list(labels),
        epoch_len_s=epoch_len_s,
        spectra=spectra,
    )
