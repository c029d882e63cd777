"""Per-epoch usability scoring of recordings, plus the model variants.

A usability model is the boosted-tree classifier over per-epoch features.
Variants change the recipe, not the machinery: lite drops the statistical
blocks, binary collapses the labels to usable/unusable, and weighted-m
raises the two-humped-artifact class weight.

Training builds its feature matrix in place, in blocks of rows on the kept
CPU pool: the epochs of labelled nights are read night by night, each
night once, so a training set costs its matrix plus one recording;
synthetic epochs are drawn block by block, in the task that uses them.

Scoring and training read a recording as it is held (``signal_io``): a
task converts to physical units only the epochs it works on, so a night
read from EDF stays in its 16-bit digital form, and the amplitude check
takes its percentile from a count of the digital values.
"""
from __future__ import annotations

import dataclasses
import functools
import warnings
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import gbt
from .epoching import BLOCK_EPOCHS, ArtifactClass, EpochSample, epoch_grid, epoch_view
from .errors import ChannelMissing, DegenerateData, EmptyRecording
from .features import (
    SpectrogramConfig,
    acc_norm,
    epoch_feature_matrix,
    feature_layout,
    pool_map,
    pool_map_with_buffer,
)
from .signal_io import Calibration, ChannelSignal, Recording, held_physical, is_digital

#: class weight applied to the two-humped artifact class by weighted-m
M_CLASS_WEIGHT = 3.0

#: 99.9th-percentile amplitude above this suggests non-standard scaling
AMPLITUDE_WARN_UV = 2000.0

#: feature rows one ``train_usability`` task builds; a row of one channel
#: carries its own accelerometer blocks, so blocks are smaller than
#: scoring's to keep the temporaries in flight as small
_TRAIN_BLOCK_ROWS = 32


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


#: a block of training rows: its rows of X, and a function that gives their
#: EEG epochs and accelerometer norms, (rows, win) each, or None for norms
#: whose feature blocks stay zero
_RowBlock = tuple[np.ndarray, Callable[[], tuple[np.ndarray, np.ndarray | None]]]


def _write_rows(
    X: np.ndarray, blocks: list[_RowBlock], cfg: SpectrogramConfig, include_stats: bool
) -> None:
    """Write each block's feature rows into its rows of X, a task per block on
    the kept pool.  A row's features do not depend on its neighbours, so X
    gets the bits of one feature matrix of every row at once."""

    def write(block: _RowBlock) -> None:
        rows, epochs = block
        eeg, norm = epochs()
        X[rows] = epoch_feature_matrix(eeg, norm, cfg, include_stats)[0]

    pool_map(write, blocks)


def _in_blocks(rows: np.ndarray) -> list[slice]:
    return [slice(a, a + _TRAIN_BLOCK_ROWS) for a in range(0, len(rows), _TRAIN_BLOCK_ROWS)]


def _carried_blocks(samples: Sequence) -> list[_RowBlock]:
    """Row blocks of samples that draw their own epochs (``synth.SynthEpoch``).

    A block's epochs are drawn in the task that computes its rows, so only
    the blocks in flight hold samples.
    """

    def epochs(part: Sequence) -> tuple[np.ndarray, np.ndarray]:
        return np.stack([s.eeg for s in part]), np.stack([s.acc_norm for s in part])

    rows = np.arange(len(samples))
    return [(rows[sel], functools.partial(epochs, samples[sel])) for sel in _in_blocks(rows)]


def _write_night(
    X: np.ndarray,
    kept: dict[str, tuple[np.ndarray, np.ndarray]],
    rec: Recording,
    epoch_len_s: float,
    zero_norms: bool,
    cfg: SpectrogramConfig,
    include_stats: bool,
) -> None:
    """Write the feature rows of one night's kept epochs into X.

    ``kept`` maps a channel to its kept epoch indices and their rows of X.
    A block gathers its epochs by index from the night's epoch views of the
    held samples and converts only those to physical units; it takes its
    accelerometer norm from the axes' epochs alike.  A night without an
    accelerometer gives zero norms when ``zero_norms``.
    """
    axes = None
    if rec.acc is not None:
        axes = [
            (epoch_view(axis, rec.fs, epoch_len_s), cal)
            for axis, cal in zip(rec.acc.held, rec.acc.calibrations)
        ]

    def epochs(
        view: np.ndarray, cal: Calibration, index: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if axes is not None:
            norm = acc_norm(*(held_physical(a[index], c) for a, c in axes))
        else:
            norm = np.zeros((len(index), view.shape[1])) if zero_norms else None
        return held_physical(view[index], cal), norm

    # the night was labelled from its layout; a file changed since fails here
    channels = {ch.label: ch for ch in rec.channels}
    blocks: list[_RowBlock] = []
    for channel, (index, rows) in kept.items():
        if channel not in channels:
            raise ChannelMissing(f"labelled channel {channel!r} is not in the recording")
        ch = channels[channel]
        view = epoch_view(ch.held, rec.fs, epoch_len_s)
        if index.max() >= len(view):
            raise EmptyRecording(f"channel {channel!r} holds no epoch {index.max()}")
        for sel in _in_blocks(rows):
            blocks.append((rows[sel], functools.partial(epochs, view, ch.calibration, index[sel])))
    _write_rows(X, blocks, cfg, include_stats)


def _kept_by_night(
    samples: Sequence[EpochSample],
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Per night, in order of first appearance, and per channel: the epoch
    indices of the samples and their rows of X."""
    nights: dict[str, dict[str, tuple[list[int], list[int]]]] = {}
    for row, s in enumerate(samples):
        index, rows = nights.setdefault(s.night_id, {}).setdefault(s.channel, ([], []))
        index.append(s.epoch_index)
        rows.append(row)
    return {
        night: {ch: (np.asarray(index), np.asarray(rows)) for ch, (index, rows) in kept.items()}
        for night, kept in nights.items()
    }


def train_usability(
    samples: Sequence[EpochSample],
    fs: float,
    variant: str = "default",
    config: gbt.TrainConfig = gbt.TrainConfig(),
    epoch_len_s: float = 10.0,
    read_night: Callable[[str], Recording] | None = None,
) -> gbt.Model:
    """Fit a usability model of the chosen variant on labeled epochs.

    Row i of the feature matrix is samples[i].  The epochs of label records
    (``build_epochs``) come from ``read_night(night_id)``, called once per
    night in the order the nights first appear; a night's recording is
    dropped before the next is read and before the fit.  Without
    ``read_night``, the samples draw their own epochs (``synth.SynthEpoch``),
    a block of rows at a time in the task that computes those rows, so no
    more epochs are held than the tasks in flight use.
    When any sample's night has an accelerometer, epochs of a night without
    one get the features of an all-zero norm; when none has, the
    accelerometer blocks are zero.
    """
    if not samples:
        raise DegenerateData("no training samples")
    spec = variant_spec(variant)
    include_stats = not spec.lite
    cfg = SpectrogramConfig(fs=fs)
    win = int(round(epoch_len_s * fs))
    layout = feature_layout(win, cfg, include_stats)
    X = np.zeros((len(samples), sum(width for _, width in layout)))
    if read_night is None:
        _write_rows(X, _carried_blocks(samples), cfg, include_stats)
    else:
        zero_norms = any(s.has_acc for s in samples)
        for night, kept in _kept_by_night(samples).items():
            _write_night(X, kept, read_night(night), epoch_len_s, zero_norms, cfg, include_stats)

    if spec.binary:
        y = np.asarray([0 if s.label == ArtifactClass.USABLE else 1 for s in samples])
    else:
        y = np.asarray([int(s.label) for s in samples])

    if spec.weighted_m:
        weights = [1.0] * (int(y.max()) + 1)
        weights[int(ArtifactClass.M_SHAPED)] = M_CLASS_WEIGHT
        config = dataclasses.replace(config, class_weights=tuple(weights))

    meta = {
        "task": "usability",
        "variant": variant,
        "fs": fs,
        "epoch_len_s": win / fs,
        "include_stats": include_stats,
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
    return _lerp(virtual, x[:k].max(), x[k])


def _lerp(virtual: float, below: float, above: float) -> float:
    """The value at index ``virtual`` between the order statistics around
    it, by the formula of numpy's _lerp."""
    t = virtual - int(virtual)
    diff = above - below
    return above - diff * (1 - t) if t >= 0.5 else below + diff * t


def _abs_percentile(ch: ChannelSignal, q: float) -> float:
    """np.percentile(np.abs(ch.samples), q), without a whole-channel copy
    where the channel is digital.

    A digital channel's order statistics come from a count of its 65,536
    possible values, each mapped once through the calibration, and blend
    as ``_percentile_of``'s do, so the value has the same bits.
    """
    if not is_digital(ch.held):
        return _percentile_of(np.abs(ch.held), q)
    counts = np.bincount(ch.held.view(np.uint16), minlength=1 << 16)
    # the absolute physical value of every code, counted by its uint16 bits
    codes = np.arange(1 << 16, dtype=np.uint16).view(np.int16)
    magnitude = np.abs(ch.calibration.to_physical(codes))
    order = np.argsort(magnitude, kind="stable")
    ends = np.cumsum(counts[order])  # samples at or below each sorted value

    def ranked(k: int) -> float:  # the k-th smallest, 0-based
        return magnitude[order[np.searchsorted(ends, k, side="right")]]

    n = ch.held.size
    virtual = (n - 1) * np.true_divide(q, 100)
    if virtual >= n - 1:
        return ranked(n - 1)
    k = int(virtual) + 1
    return _lerp(virtual, ranked(k - 1), ranked(k))


def score_recording(rec: Recording, model: gbt.Model) -> UsabilityScores:
    """Label every channel epoch of a recording with the model's classes.

    The night is scored BLOCK_EPOCHS epochs at a time, a task each on the
    kept CPU pool: a task converts its epochs' samples to physical units,
    computes their feature rows, predicts them and writes their labels and
    spectra.  A row's features, label and spectrum do not depend on its
    neighbours, so the blocks and the CPU count leave every bit as one
    whole-night feature matrix would.
    """
    epoch_len_s = gbt.input_epoch_len(model, "usability", rec.fs)
    if not rec.channels:
        raise ChannelMissing("recording has no EEG channels")
    include_stats = bool(model.meta.get("include_stats", True))
    n_channels = len(rec.channels)
    n_epochs, win = epoch_grid(rec.n_samples, rec.fs, epoch_len_s)

    for ch in rec.channels:
        if _abs_percentile(ch, 99.9) > AMPLITUDE_WARN_UV:
            warnings.warn(
                f"channel {ch.label!r} amplitudes exceed {AMPLITUDE_WARN_UV} uV; "
                "data may need normalization to the expected microvolt scale",
                stacklevel=2,
            )

    cfg = SpectrogramConfig(fs=rec.fs)
    layout = feature_layout(win, cfg, include_stats)
    gbt.check_layout(model, layout)
    labels = np.empty((n_channels, n_epochs), dtype=np.intp)
    spectra = np.empty((n_channels, n_epochs, cfg.bin_count))

    def score_block(start: int, buffer: np.ndarray) -> None:
        stop = min(start + BLOCK_EPOCHS, n_epochs)
        span, n = (start * win, stop * win), (stop - start) * win
        norm = None
        if rec.acc is not None:
            axes = rec.acc.physical(*span, out=buffer[n_channels:, :n])
            norm = acc_norm(*axes).reshape(stop - start, win)
        eeg = [
            ch.physical(*span, out=row[:n]).reshape(stop - start, win)
            for ch, row in zip(rec.channels, buffer)
        ]
        X, _ = epoch_feature_matrix(eeg, norm, cfg, include_stats)
        labels[:, start:stop] = gbt.predict_label(model, X).reshape(n_channels, -1)
        # every row opens with its EEG spectrogram, frames x bins
        frames = X[:, : layout[0][1]].reshape(n_channels, stop - start, -1, cfg.bin_count)
        spectra[:, start:stop] = frames.mean(axis=2)

    # a digital block is converted into its thread's buffer
    rows = n_channels + (3 if rec.acc is not None else 0)
    pool_map_with_buffer(score_block, range(0, n_epochs, BLOCK_EPOCHS), (rows, BLOCK_EPOCHS * win))
    return UsabilityScores(
        channels=[ch.label for ch in rec.channels],
        labels=list(labels),
        epoch_len_s=epoch_len_s,
        spectra=spectra,
    )
