"""Per-epoch feature extraction: spectrograms, Welch PSD, and statistics.

The usability models consume, per epoch, the flattened magnitude-squared
short-time spectrum of the EEG channel and of the accelerometer norm
(zero-filled when no accelerometer is present), optionally followed by a
fixed 24-value statistical summary of each.

The kernels are plain numpy over the rows they are given.  Their callers
hand them one block of rows per task on the kept CPU pool (``pool_map``),
scoring and mobility ``epoching.BLOCK_EPOCHS`` epochs at a time, so the
kernels' temporaries are those of one block however long the night.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
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


def work_size(budget: int, floor: int) -> tuple[int, int]:
    """(piece, window) for ``pool_map``: pieces of ``budget`` over the CPU
    count, but of at least ``floor`` units, with at most ``budget`` units
    running at once.

    One and two CPUs get pieces of half the budget.  Above the floor, fewer
    pieces run, not smaller ones, so neither the memory in flight nor the
    per-piece overhead grows with the CPU count.  The window adds a spare
    only where every CPU runs a piece (a spare would run at once and
    overrun the budget), so no CPU waits on the caller.
    """
    cpus = available_cpus()
    piece = max(floor, budget // max(cpus, 2))
    running = max(1, min(cpus, budget // piece))
    return piece, running + (running == cpus)


class Scratch:
    """Arrays that tasks reuse, by name, one task at a time (``with_scratch``).

    A piece's arrays made anew go back to the system when freed, and their
    pages are faulted in again for the next piece: on a 20-min six-column
    CSV night read on 2 CPUs that cost about a third of the read.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def __call__(self, name: str, n: int, dtype: type = np.int64) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or len(array) < n:
            array = self._arrays[name] = np.empty(n, dtype)
        return array[:n]


def with_scratch(fn: Callable) -> Callable:
    """``fn(item, scratch)`` as a task of one item, for ``pool_map``.

    No two running calls share a ``scratch``, so the calls make no more of
    them than run at once, however many threads the pool has, and the
    scratches go with the returned function.
    """
    free: list[Scratch] = []

    def run(item):
        try:
            scratch = free.pop()
        except IndexError:
            scratch = Scratch()
        try:
            return fn(item, scratch)
        finally:
            free.append(scratch)

    return run


def pool_map(fn: Callable, items: Iterable, window: int = 0) -> Iterator:
    """``fn`` of every item, in item order, as tasks on the kept pool.

    Items are drawn as their tasks are submitted, at most ``window`` in
    flight (by default one per CPU plus one).  A task's error is raised when
    its result is due; that, or closing the iterator, cancels the tasks not
    yet started.  On a pool thread, which may not wait on the pool, the
    calls run inline.
    """
    if on_pool_thread():
        yield from map(fn, items)
        return
    pool, window = cpu_pool(), window or available_cpus() + 1
    pending: deque[Future] = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def pool_run(fn: Callable, items: Iterable, window: int = 0) -> None:
    """``pool_map`` of ``fn`` for its effects, raising the first error."""
    for _ in pool_map(fn, items, window):
        pass


def cpu_pool() -> ThreadPoolExecutor:
    """The kept thread pool, one worker per available CPU, that every
    parallel stage runs on through ``pool_map``; no task on it may wait on it."""
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

    Returns a (frames, bins) matrix for 1-D input; leading axes batch.
    Each frame is tapered with a 25%-cosine window before the FFT and the
    squared magnitude is kept without further scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    cfg.frame_count(x.shape[-1])  # refuses a segment too short for one frame
    frames = sliding_window_view(x, SEGMENT_LEN, axis=-1)[..., ::HOP, :]
    return np.abs(np.fft.rfft(frames * _TUKEY, axis=-1)) ** 2


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


def stat_features(x: np.ndarray, fs: float) -> np.ndarray:
    """The fixed 24-value statistical summary of a segment.

    Accepts a 1-D segment or a batch with leading axes; returns (24,) or
    the batch shape plus 24, ordered as STAT_FEATURE_NAMES.  Degenerate
    inputs (zero variance, zero total power) yield 0 for their ratio-based
    entries.
    """
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[:-1]
    x = x.reshape(math.prod(lead), x.shape[-1])
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
    # each (rows, len) temporary is dropped once read, so the Welch frames
    # do not stack on them: a block's peak stays low enough that glibc keeps
    # the freed pages for the next block instead of faulting them in anew
    del c, c2

    sign = np.signbit(x)
    zero_crossings = np.count_nonzero(sign[:, 1:] != sign[:, :-1], axis=-1).astype(np.float64)
    del sign

    dx = np.diff(x, axis=-1)
    mean_abs_diff = np.mean(np.abs(dx), axis=-1)
    var_dx = dx.var(axis=-1)
    var_ddx = np.diff(dx, axis=-1).var(axis=-1)
    mobility = np.sqrt(_guarded_divide(var_dx, m2))
    mobility_dx = np.sqrt(_guarded_divide(var_ddx, var_dx))
    complexity = _guarded_divide(mobility_dx, mobility)
    del dx

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
    out = np.concatenate([out, band_powers(freqs, psd)], axis=-1)
    return out.reshape(lead + (N_STAT_FEATURES,))


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
    eeg_epochs: np.ndarray,
    acc_epochs: np.ndarray | None,
    cfg: SpectrogramConfig,
    include_stats: bool = True,
) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Feature matrix for a batch of epochs, one row per epoch.

    ``eeg_epochs`` is (n, len), or the channels of one recording as a
    (channels, n, len) array, whose rows then follow channel by channel.
    ``acc_epochs`` is the matching (n, len) batch of accelerometer-norm
    segments, shared by every channel, or None, in which case the
    accelerometer blocks are zero-filled so the layout is unchanged.
    """
    eeg = np.asarray(eeg_epochs, dtype=np.float64)
    n, win = eeg.shape[-2:]
    channels = math.prod(eeg.shape[:-2])
    rows = channels * n
    layout = feature_layout(win, cfg, include_stats)
    spect_len = layout[0][1]
    edges = np.cumsum([0] + [w for _, w in layout])
    cols = [slice(a, b) for a, b in zip(edges, edges[1:])]

    X = np.zeros((rows, edges[-1]))
    X[:, cols[0]] = spectrogram(eeg, cfg).reshape(rows, spect_len)
    if include_stats:
        X[:, cols[2]] = stat_features(eeg, cfg.fs).reshape(rows, N_STAT_FEATURES)
    if acc_epochs is not None:
        acc = np.atleast_2d(np.asarray(acc_epochs, dtype=np.float64))
        acc_blocks = [(cols[1], spectrogram(acc, cfg).reshape(n, spect_len))]
        if include_stats:
            acc_blocks.append((cols[3], stat_features(acc, cfg.fs)))
        for k in range(channels):
            for col, block in acc_blocks:
                X[k * n : (k + 1) * n, col] = block
    return X, layout
