"""Per-epoch feature extraction: spectrograms, Welch PSD, and statistics.

The usability models consume, per epoch, the flattened magnitude-squared
short-time spectrum of the EEG channel and of the accelerometer norm
(zero-filled when no accelerometer is present), optionally followed by a
fixed 24-value statistical summary of each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import welch
from scipy.signal.windows import tukey

from .errors import SegmentTooShort

#: frequency bands integrated from the Welch PSD, [low, high) in Hz
BANDS: tuple[tuple[str, float, float], ...] = (
    ("delta", 0.5, 4.0),
    ("theta", 4.0, 8.0),
    ("alpha", 8.0, 12.0),
    ("sigma", 12.0, 16.0),
    ("beta", 16.0, 30.0),
    ("high", 30.0, 48.0),
)

STAT_FEATURE_NAMES: tuple[str, ...] = (
    "mean",
    "median",
    "std",
    "variance",
    "min",
    "max",
    "peak_to_peak",
    "rms",
    "skewness",
    "kurtosis",
    "zero_crossings",
    "mean_abs_diff",
    "hjorth_activity",
    "hjorth_mobility",
    "hjorth_complexity",
    "spectral_centroid",
    "spectral_entropy",
    "total_power",
) + tuple(f"power_{name}" for name, _, _ in BANDS)

N_STAT_FEATURES = len(STAT_FEATURE_NAMES)


@dataclass(frozen=True)
class SpectrogramConfig:
    """Short-time spectrum parameters.

    At the defaults a 10 s epoch sampled at 256 Hz yields 11 frames of
    129 one-sided bins.
    """

    fs: float
    segment_len: int = 256
    hop: int = 224
    taper: float = 0.25
    one_sided: bool = True

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.segment_len:
            raise SegmentTooShort(
                f"{n_samples} samples < one {self.segment_len}-sample segment"
            )
        return (n_samples - self.segment_len) // self.hop + 1

    @property
    def bin_count(self) -> int:
        return self.segment_len // 2 + 1 if self.one_sided else self.segment_len


def acc_norm(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean norm of the three accelerometer axes, sample by sample."""
    return np.sqrt(
        np.asarray(x, dtype=np.float64) ** 2
        + np.asarray(y, dtype=np.float64) ** 2
        + np.asarray(z, dtype=np.float64) ** 2
    )


def _frames(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    """Slice (..., n) signals into (..., frames, segment_len) views."""
    n = x.shape[-1]
    cfg.frame_count(n)  # validates length
    windows = sliding_window_view(x, cfg.segment_len, axis=-1)
    return windows[..., :: cfg.hop, :]


def spectrogram(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    """Magnitude-squared short-time spectrum.

    Returns a (frames, bins) matrix for 1-D input; leading axes batch.
    Each frame is tapered with a 25%-cosine window before the FFT and the
    squared magnitude is kept without further scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    frames = _frames(x, cfg) * tukey(cfg.segment_len, cfg.taper)
    if cfg.one_sided:
        spec = np.fft.rfft(frames, axis=-1)
    else:
        spec = np.fft.fft(frames, axis=-1)
    return np.abs(spec) ** 2


def welch_psd(
    x: np.ndarray,
    fs: float,
    segment_len: int = 256,
    overlap: int = 128,
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch power spectral density with raised-cosine tapering.

    Scaling is Parseval-consistent: sum(psd) * df approximates the variance
    of a zero-mean input.  Works along the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < segment_len:
        raise SegmentTooShort(f"{x.shape[-1]} samples < one {segment_len}-sample segment")
    freqs, psd = welch(
        x,
        fs=fs,
        window="hann",
        nperseg=segment_len,
        noverlap=overlap,
        detrend=False,
        scaling="density",
        axis=-1,
    )
    return freqs, psd


def band_powers(freqs: np.ndarray, psd: np.ndarray) -> np.ndarray:
    """Integrated band power for each named band; last-axis PSD input."""
    df = freqs[1] - freqs[0] if len(freqs) > 1 else 1.0
    out = []
    for _, lo, hi in BANDS:
        mask = (freqs >= lo) & (freqs < hi)
        out.append(psd[..., mask].sum(axis=-1) * df)
    return np.stack(out, axis=-1)


def _guarded_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with 0 where the denominator vanishes."""
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(np.shape(num), den.shape))
    np.divide(num, den, out=out, where=den > 0)
    return out


def stat_features(x: np.ndarray, fs: float) -> np.ndarray:
    """The fixed 24-value statistical summary of a segment.

    Accepts a 1-D segment or a (n, len) batch; returns (24,) or (n, 24)
    ordered as STAT_FEATURE_NAMES.  Degenerate inputs (zero variance, zero
    total power) yield 0 for their ratio-based entries.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)

    mean = x.mean(axis=-1)
    centered = x - mean[..., None]
    m2 = np.mean(centered**2, axis=-1)
    m3 = np.mean(centered**3, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    # variance at rounding-noise level counts as constant input
    degenerate = m2 <= np.mean(x**2, axis=-1) * 1e-24
    m2 = np.where(degenerate, 0.0, m2)
    std = np.sqrt(m2)
    skewness = _guarded_divide(m3, m2**1.5)
    kurtosis = _guarded_divide(m4, m2**2) - 3.0
    kurtosis[m2 == 0] = 0.0

    sign = np.signbit(x)
    zero_crossings = np.sum(sign[..., 1:] != sign[..., :-1], axis=-1).astype(np.float64)

    dx = np.diff(x, axis=-1)
    mean_abs_diff = np.mean(np.abs(dx), axis=-1)
    var_dx = dx.var(axis=-1)
    ddx = np.diff(dx, axis=-1)
    var_ddx = ddx.var(axis=-1)
    mobility = np.sqrt(_guarded_divide(var_dx, m2))
    mobility_dx = np.sqrt(_guarded_divide(var_ddx, var_dx))
    complexity = _guarded_divide(mobility_dx, mobility)

    freqs, psd = welch_psd(x, fs)
    total = psd.sum(axis=-1)
    centroid = _guarded_divide((psd * freqs).sum(axis=-1), total)
    p = _guarded_divide(psd, total[..., None])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=-1)
    df = freqs[1] - freqs[0]
    total_power = total * df
    bands = band_powers(freqs, psd)

    out = np.stack(
        [
            mean,
            np.median(x, axis=-1),
            std,
            m2,
            x.min(axis=-1),
            x.max(axis=-1),
            x.max(axis=-1) - x.min(axis=-1),
            np.sqrt(np.mean(x**2, axis=-1)),
            skewness,
            kurtosis,
            zero_crossings,
            mean_abs_diff,
            m2,
            mobility,
            complexity,
            centroid,
            entropy,
            total_power,
        ],
        axis=-1,
    )
    out = np.concatenate([out, bands], axis=-1)
    return out[0] if single else out


def epoch_feature_matrix(
    eeg_epochs: np.ndarray,
    acc_epochs: np.ndarray | None,
    cfg: SpectrogramConfig,
    include_stats: bool = True,
) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Feature matrix for a batch of epochs, one row per epoch.

    ``eeg_epochs`` is (n, len); ``acc_epochs`` is the matching batch of
    accelerometer-norm segments or None, in which case the accelerometer
    blocks are zero-filled so the layout is unchanged.
    """
    eeg_epochs = np.atleast_2d(np.asarray(eeg_epochs, dtype=np.float64))
    n = eeg_epochs.shape[0]
    spect_len = cfg.frame_count(eeg_epochs.shape[-1]) * cfg.bin_count

    spect_eeg = spectrogram(eeg_epochs, cfg).reshape(n, spect_len)
    if acc_epochs is not None:
        acc_epochs = np.atleast_2d(np.asarray(acc_epochs, dtype=np.float64))
        spect_acc = spectrogram(acc_epochs, cfg).reshape(n, spect_len)
    else:
        spect_acc = np.zeros((n, spect_len))

    blocks = [spect_eeg, spect_acc]
    layout = [("spectrogram_eeg", spect_len), ("spectrogram_acc", spect_len)]
    if include_stats:
        blocks.append(stat_features(eeg_epochs, cfg.fs).reshape(n, N_STAT_FEATURES))
        if acc_epochs is not None:
            stats_acc = stat_features(acc_epochs, cfg.fs).reshape(n, N_STAT_FEATURES)
        else:
            stats_acc = np.zeros((n, N_STAT_FEATURES))
        blocks.append(stats_acc)
        layout += [("stats_eeg", N_STAT_FEATURES), ("stats_acc", N_STAT_FEATURES)]

    return np.concatenate(blocks, axis=1), tuple(layout)

