"""Per-epoch feature extraction: spectrograms, Welch PSD, and statistics.

The usability models consume, per epoch, the flattened magnitude-squared
short-time spectrum of the EEG channel and of the accelerometer norm
(zero-filled when no accelerometer is present), optionally followed by a
fixed 24-value statistical summary of each.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SegmentTooShort

#: samples in a frame of the spectrogram and of the Welch PSD
SEGMENT_LEN = 256
#: samples from one spectrogram frame to the next
HOP = 224
#: samples from one Welch frame to the next
WELCH_STEP = 128
#: fraction of a spectrogram frame under the cosine edges of its Tukey window
TAPER = 0.25

#: rows of a batch that spectrogram and stat_features have in flight across
#: all their threads; their temporaries then stay a few (256, len) arrays
#: however long the night and however many CPUs
_BLOCK_ROWS = 256

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
    """The short-time spectrum of signals sampled at ``fs`` Hz.

    A 10 s epoch sampled at 256 Hz yields 11 frames of 129 one-sided bins.
    """

    fs: float

    def frame_count(self, n_samples: int) -> int:
        if n_samples < SEGMENT_LEN:
            raise SegmentTooShort(f"{n_samples} samples < one {SEGMENT_LEN}-sample segment")
        return (n_samples - SEGMENT_LEN) // HOP + 1

    @property
    def bin_count(self) -> int:
        return SEGMENT_LEN // 2 + 1


def acc_norm(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean norm of the three accelerometer axes, sample by sample."""
    return np.sqrt(
        np.asarray(x, dtype=np.float64) ** 2
        + np.asarray(y, dtype=np.float64) ** 2
        + np.asarray(z, dtype=np.float64) ** 2
    )


def _tukey() -> np.ndarray:
    """The SEGMENT_LEN-point Tukey window, by scipy.signal.windows.tukey's formula."""
    n = np.arange(SEGMENT_LEN, dtype=np.float64)
    m1 = SEGMENT_LEN - 1
    width = int(np.floor(TAPER * m1 / 2.0))
    w1 = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n[: width + 1] / TAPER / m1)))
    w3 = 0.5 * (1 + np.cos(np.pi * (-2.0 / TAPER + 1 + 2.0 * n[m1 - width :] / TAPER / m1)))
    return np.concatenate([w1, np.ones(SEGMENT_LEN - 2 * width - 2), w3])


#: the taper of every spectrogram frame
_TUKEY = _tukey()
#: periodic Hann window of the Welch frames, and the sum of its squares
_HANN = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, SEGMENT_LEN + 1)[:-1])
_HANN_POWER = (_HANN * _HANN).sum()


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _as_batches(x) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """x as float64 (rows, len) batches, and the leading shape of the whole.

    A list or tuple of arrays of one shape, each at least 2-D, such as the
    channels of a recording, reads as np.stack would read it, but without
    being copied into one array.
    """
    if isinstance(x, (list, tuple)) and x and all(np.ndim(p) >= 2 for p in x):
        parts = [np.asarray(p, dtype=np.float64) for p in x]
        if any(p.shape != parts[0].shape for p in parts):
            raise ValueError(f"arrays of shapes {sorted({p.shape for p in parts})} do not stack")
        lead = (len(parts),) + parts[0].shape[:-1]
    else:
        parts = [np.asarray(x, dtype=np.float64)]
        lead = parts[0].shape[:-1]
    return [p.reshape(math.prod(p.shape[:-1]), p.shape[-1]) for p in parts], lead


def in_row_blocks(
    kernel, batches: list[np.ndarray], lead: tuple[int, ...], row_shape: tuple[int, ...]
) -> np.ndarray:
    """``kernel`` over blocks of rows of ``batches``, on every available CPU.

    ``kernel`` maps a (rows, len) block to (rows, *row_shape); the result
    has shape lead + row_shape, rows in batch order.  Each block writes its
    own rows of the result, so the bits do not depend on the thread count;
    a block is _BLOCK_ROWS rows over the thread count, so the rows in
    flight do not grow with it either.
    """
    block_rows = max(1, _BLOCK_ROWS // available_cpus())
    out = np.empty((math.prod(lead),) + row_shape)
    blocks = []
    start = 0
    for rows in batches:
        for a in range(0, rows.shape[0], block_rows):
            block = rows[a : a + block_rows]
            blocks.append((block, out[start + a : start + a + block.shape[0]]))
        start += rows.shape[0]

    def run(block: tuple[np.ndarray, np.ndarray]) -> None:
        rows, dest = block
        dest[...] = kernel(rows)

    pool_map(run, blocks)
    return out.reshape(lead + row_shape)


def pool_map(fn, items) -> list:
    """``fn`` of every item, in order, as tasks on the kept pool.

    The first error of a task is raised.  Called from a task on the pool,
    which may not wait on it, the calls run on the calling thread.
    """
    if on_pool_thread():
        return [fn(item) for item in items]
    return list(cpu_pool().map(fn, items))


def pool_map_with_buffer(fn, items, shape: tuple[int, ...]) -> list:
    """``pool_map`` of ``fn(item, buffer)``, where ``buffer`` is the calling
    thread's float64 array of ``shape``, made on its first item and reused
    for the next ones.

    A block-sized array made anew for every block goes back to the system
    when freed, and its pages are faulted in again for the next block.
    """
    buffers: dict[int, np.ndarray] = {}

    def run(item):
        buffer = buffers.get(threading.get_ident())
        if buffer is None:
            buffer = buffers[threading.get_ident()] = np.empty(shape)
        return fn(item, buffer)

    return pool_map(run, items)


def cpu_pool() -> ThreadPoolExecutor:
    """The kept thread pool, one worker per available CPU.

    Feature blocks, despike filters, tree growth and usability scoring all
    run on it, so the process starts its threads once.  No task run on it
    may wait on it (``on_pool_thread``).
    """
    return _pool(available_cpus())


#: ``in_pool`` is set on the threads of every pool ``_pool`` starts
_thread_state = threading.local()


def _mark_pool_thread() -> None:
    _thread_state.in_pool = True


def on_pool_thread() -> bool:
    """Whether the calling thread is a worker of the kept pool."""
    return getattr(_thread_state, "in_pool", False)


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The threads behind ``cpu_pool``, started on first use and kept, so
    that a call of one short block pays no thread start-up."""
    return ThreadPoolExecutor(
        max_workers=workers, thread_name_prefix="floss", initializer=_mark_pool_thread
    )


def spectrogram(x: np.ndarray, cfg: SpectrogramConfig) -> np.ndarray:
    """Magnitude-squared short-time spectrum.

    Returns a (frames, bins) matrix for 1-D input; leading axes batch, as
    does a list of equal-shape batches.  Each frame is tapered with a
    25%-cosine window before the FFT and the squared magnitude is kept
    without further scaling.
    """
    batches, lead = _as_batches(x)

    def kernel(rows: np.ndarray) -> np.ndarray:
        frames = sliding_window_view(rows, SEGMENT_LEN, axis=-1)[..., ::HOP, :]
        return np.abs(np.fft.rfft(frames * _TUKEY, axis=-1)) ** 2

    shape = (cfg.frame_count(batches[0].shape[-1]), cfg.bin_count)
    return in_row_blocks(kernel, batches, lead, shape)


def welch_psd(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided Welch power spectral density with raised-cosine tapering.

    Frames of SEGMENT_LEN samples, one every WELCH_STEP, are tapered with a
    periodic Hann window; their squared spectra are averaged.  Scaling is
    Parseval-consistent: sum(psd) * df approximates the variance of a
    zero-mean input.  Works along the last axis.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < SEGMENT_LEN:
        raise SegmentTooShort(f"{x.shape[-1]} samples < one {SEGMENT_LEN}-sample segment")
    frames = sliding_window_view(x, SEGMENT_LEN, axis=-1)[..., ::WELCH_STEP, :]
    spec = np.fft.rfft(frames * _HANN, axis=-1)
    psd = (spec.real**2 + spec.imag**2).mean(axis=-2) / (fs * _HANN_POWER)
    # every bin but DC and Nyquist folds in its negative twin
    psd[..., 1:-1] *= 2
    return np.fft.rfftfreq(SEGMENT_LEN, 1.0 / fs), psd


def band_powers(freqs: np.ndarray, psd: np.ndarray) -> np.ndarray:
    """Integrated band power for each named band; last-axis PSD input.

    ``freqs`` ascends, so each band is one slice of bins, and a row sums
    the same way alone as within a batch.
    """
    df = freqs[1] - freqs[0] if len(freqs) > 1 else 1.0
    out = []
    for _, lo, hi in BANDS:
        a, b = np.searchsorted(freqs, (lo, hi))
        out.append(psd[..., a:b].sum(axis=-1) * df)
    return np.stack(out, axis=-1)


def _guarded_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with 0 where the denominator vanishes."""
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(np.shape(num), den.shape))
    np.divide(num, den, out=out, where=den > 0)
    return out


def stat_features(x: np.ndarray, fs: float) -> np.ndarray:
    """The fixed 24-value statistical summary of a segment.

    Accepts a 1-D segment, a batch with leading axes, or a list of
    equal-shape batches; returns (24,) or the batch shape plus 24, ordered
    as STAT_FEATURE_NAMES.  Degenerate inputs (zero variance, zero total
    power) yield 0 for their ratio-based entries.
    """
    batches, lead = _as_batches(x)
    return in_row_blocks(lambda rows: _stat_block(rows, fs), batches, lead, (N_STAT_FEATURES,))


def _median(x: np.ndarray) -> np.ndarray:
    """np.median(x, axis=-1) of a (rows, len) block, from one partition.

    The middle value, or the middle value and the max below it, goes
    through np.mean as in np.median, so the bits are np.median's, signed
    zeros included; a row holding NaN gives NaN.
    """
    n = x.shape[-1]
    k = n // 2
    part = np.partition(x, k, axis=-1)
    if n % 2:
        middle = part[:, k : k + 1]
    else:
        middle = np.stack([part[:, :k].max(axis=-1), part[:, k]], axis=-1)
    median = np.mean(middle, axis=-1)
    # NaN sorts last, so a row holding one holds it at or above k
    median[np.isnan(part[:, k:]).any(axis=-1)] = np.nan
    return median


def _stat_block(x: np.ndarray, fs: float) -> np.ndarray:
    """stat_features of a (rows, len) block."""
    mean = x.mean(axis=-1)
    c = x - mean[:, None]
    c2 = c * c
    m2 = c2.mean(axis=-1)
    m3 = np.mean(c2 * c, axis=-1)
    m4 = np.mean(c2 * c2, axis=-1)
    mean_square = np.mean(x * x, axis=-1)
    # variance at rounding-noise level counts as constant input
    degenerate = m2 <= mean_square * 1e-24
    m2 = np.where(degenerate, 0.0, m2)
    std = np.sqrt(m2)
    skewness = _guarded_divide(m3, m2**1.5)
    kurtosis = _guarded_divide(m4, m2**2) - 3.0
    kurtosis[m2 == 0] = 0.0

    sign = np.signbit(x)
    zero_crossings = np.count_nonzero(sign[:, 1:] != sign[:, :-1], axis=-1).astype(np.float64)

    dx = np.diff(x, axis=-1)
    mean_abs_diff = np.mean(np.abs(dx), axis=-1)
    var_dx = dx.var(axis=-1)
    var_ddx = np.diff(dx, axis=-1).var(axis=-1)
    mobility = np.sqrt(_guarded_divide(var_dx, m2))
    mobility_dx = np.sqrt(_guarded_divide(var_ddx, var_dx))
    complexity = _guarded_divide(mobility_dx, mobility)

    freqs, psd = welch_psd(x, fs)
    total = psd.sum(axis=-1)
    centroid = _guarded_divide((psd * freqs).sum(axis=-1), total)
    p = _guarded_divide(psd, total[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    entropy = -plogp.sum(axis=-1)
    total_power = total * (freqs[1] - freqs[0])

    lo = x.min(axis=-1)
    hi = x.max(axis=-1)
    out = np.stack(
        [
            mean,
            _median(x),
            std,
            m2,
            lo,
            hi,
            hi - lo,
            np.sqrt(mean_square),
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
    return np.concatenate([out, band_powers(freqs, psd)], axis=-1)


def feature_layout(
    epoch_samples: int, cfg: SpectrogramConfig, include_stats: bool = True
) -> tuple[tuple[str, int], ...]:
    """(name, width) of each block of an ``epoch_feature_matrix`` row."""
    spect_len = cfg.frame_count(epoch_samples) * cfg.bin_count
    layout = (("spectrogram_eeg", spect_len), ("spectrogram_acc", spect_len))
    if include_stats:
        layout += (("stats_eeg", N_STAT_FEATURES), ("stats_acc", N_STAT_FEATURES))
    return layout


def epoch_feature_matrix(
    eeg_epochs: np.ndarray | Sequence[np.ndarray],
    acc_epochs: np.ndarray | None,
    cfg: SpectrogramConfig,
    include_stats: bool = True,
) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Feature matrix for a batch of epochs, one row per epoch.

    ``eeg_epochs`` is (n, len), or the channels of one recording as a
    (channels, n, len) array or a list of (n, len) arrays, whose rows then
    follow channel by channel.
    ``acc_epochs`` is the matching (n, len) batch of accelerometer-norm
    segments, shared by every channel, or None, in which case the
    accelerometer blocks are zero-filled so the layout is unchanged.
    """
    batches, lead = _as_batches(eeg_epochs)
    channels = math.prod(lead[:-1])
    n = lead[-1] if lead else 1
    rows = channels * n
    layout = feature_layout(batches[0].shape[-1], cfg, include_stats)
    spect_len = layout[0][1]
    edges = np.cumsum([0] + [w for _, w in layout])
    cols = [slice(a, b) for a, b in zip(edges, edges[1:])]

    X = np.zeros((rows, edges[-1]))
    X[:, cols[0]] = spectrogram(batches, cfg).reshape(rows, spect_len)
    if include_stats:
        X[:, cols[2]] = stat_features(batches, cfg.fs).reshape(rows, N_STAT_FEATURES)
    if acc_epochs is not None:
        acc = np.atleast_2d(np.asarray(acc_epochs, dtype=np.float64))
        acc_blocks = [(cols[1], spectrogram(acc, cfg).reshape(n, spect_len))]
        if include_stats:
            acc_blocks.append((cols[3], stat_features(acc, cfg.fs)))
        for k in range(channels):
            for col, block in acc_blocks:
                X[k * n : (k + 1) * n, col] = block
    return X, layout
