"""Synthetic recordings: artifact-class epochs, mobility sequences, nights.

Every epoch draws from a generator seeded by (master seed, domain, epoch
key), so a given epoch is bit-identical no matter how the surrounding batch
is sliced or parallelized.  A labelled dataset (``gen_labeled_dataset``)
therefore holds each epoch's key, not its samples, and draws the samples
where they are read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .epoching import AnnotationSpan, ArtifactClass, EpochSample
from .features import acc_norm
from .mobility import MobilityState
from .signal_io import ACC_AXIS_LABELS, ChannelSignal, Recording, TriAxialAcc

_DOMAIN_EEG = 0
_DOMAIN_ACC = 1
_DOMAIN_MOBILITY = 2
_DOMAIN_NIGHT = 3
_DOMAIN_SUBJECT = 4

#: chance that an epoch of a generated night is Usable
_USABLE_FRACTION = 0.7


def epoch_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one epoch, derived from the master seed and a key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _band_noise(
    rng: np.random.Generator, n: int, fs: float, lo: float, hi: float, tilt: float = 0.0
) -> np.ndarray:
    """Unit-variance noise with support limited to [lo, hi] Hz.

    ``tilt`` > 0 slopes power toward the low end (1/f^tilt amplitude).
    """
    bins = n // 2 + 1
    spec = rng.standard_normal(bins) + 1j * rng.standard_normal(bins)
    f = np.fft.rfftfreq(n, 1.0 / fs)
    shape = np.zeros(bins)
    mask = (f >= lo) & (f <= hi)
    shape[mask] = np.maximum(f[mask], lo if lo > 0 else f[1]) ** (-tilt)
    x = np.fft.irfft(spec * shape, n)
    sd = x.std()
    return x / sd if sd > 0 else x


def _m_template(n: int) -> np.ndarray:
    """One period of a two-humped wave, peak amplitude 1, zero mean."""
    knots_t = np.array([0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0])
    knots_v = np.array([0.0, 0.95, 0.5, 0.85, 0.5, 0.95, 0.0])
    t = np.arange(n) / n
    wave = np.interp(t, knots_t, knots_v)
    kernel = np.hanning(max(n // 20, 3))
    wave = np.convolve(np.tile(wave, 3), kernel / kernel.sum(), mode="same")[n : 2 * n]
    wave -= wave.mean()
    return wave / np.abs(wave).max()


def gen_artifact_epoch(
    label: ArtifactClass,
    fs: float = 256.0,
    epoch_len_s: float = 10.0,
    seed: int = 0,
    key: tuple[int, ...] = (),
    subject_scale: float = 1.0,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One synthetic EEG epoch of the requested class, with worn-still ACC.

    Amplitude conventions (microvolts): Usable and M-shaped stay within
    +/-100, NoData is a constant within +/-50, HighNoise peaks at 400 or
    more, Spiky rides 8/16/24 Hz tones on a faint background.  The EEG and
    the accelerometer draw from generators of their own, so either can be
    drawn without the other.
    """
    eeg = _artifact_eeg(label, fs, epoch_len_s, seed, key, subject_scale)
    return eeg, _artifact_acc(label, fs, epoch_len_s, seed, key)


def _artifact_acc(
    label: ArtifactClass, fs: float, epoch_len_s: float, seed: int, key: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accelerometer axes of ``gen_artifact_epoch``."""
    n = int(round(fs * epoch_len_s))
    return _still_acc(epoch_rng(seed, _DOMAIN_ACC, int(label), *key), n)


def _artifact_eeg(
    label: ArtifactClass,
    fs: float,
    epoch_len_s: float,
    seed: int,
    key: tuple[int, ...],
    subject_scale: float,
) -> np.ndarray:
    """The EEG of ``gen_artifact_epoch``."""
    n = int(round(fs * epoch_len_s))
    rng = epoch_rng(seed, _DOMAIN_EEG, int(label), *key)

    if label == ArtifactClass.USABLE:
        x = _band_noise(rng, n, fs, 0.3, 30.0, tilt=0.6)
        x *= rng.uniform(40.0, 90.0) * subject_scale / np.abs(x).max()
        drift = np.sin(
            2 * np.pi * rng.uniform(0.15, 0.35) * np.arange(n) / fs + rng.uniform(0, 2 * np.pi)
        )
        x += rng.uniform(0.0, 0.9) * np.abs(x).max() * drift
        x *= min(1.0, 98.0 / np.abs(x).max())
    elif label == ArtifactClass.NO_DATA:
        x = np.full(n, rng.uniform(-50.0, 50.0))
    elif label == ArtifactClass.HIGH_NOISE:
        x = _band_noise(rng, n, fs, 0.3, 100.0, tilt=0.1)
        x *= rng.uniform(480.0, 780.0) * subject_scale / np.abs(x).max()
        if np.abs(x).max() < 400.0:
            x *= 410.0 / np.abs(x).max()
    elif label == ArtifactClass.SPIKY:
        t = np.arange(n) / fs
        base = rng.uniform(18.0, 28.0) * subject_scale
        x = base * np.sin(2 * np.pi * 8.0 * t + rng.uniform(0, 2 * np.pi))
        x += 0.5 * base * np.sin(2 * np.pi * 16.0 * t + rng.uniform(0, 2 * np.pi))
        x += 0.3 * base * np.sin(2 * np.pi * 24.0 * t + rng.uniform(0, 2 * np.pi))
        x += 2.5 * _band_noise(rng, n, fs, 0.3, 30.0, tilt=0.6)
    elif label == ArtifactClass.M_SHAPED:
        period = rng.uniform(4.0, 5.0)
        template = _m_template(int(round(period * fs)))
        reps = int(np.ceil(n / len(template))) + 1
        phase = rng.integers(0, len(template))
        wave = np.tile(template, reps)[phase : phase + n]
        peak = rng.uniform(40.0, 90.0) * subject_scale
        x = peak * wave
        noise = _band_noise(rng, n, fs, 0.3, 30.0, tilt=0.6)
        x += rng.uniform(0.1, 1.1) * peak * noise / np.abs(noise).max()
        x *= min(1.0, 98.0 / np.abs(x).max())
    else:
        raise ValueError(f"unknown artifact class {label}")
    return x


def _still_acc(
    rng: np.random.Generator, n: int, orientation: np.ndarray | None = None, jitter: float = 0.003
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if orientation is None:
        orientation = np.array([0.0, 0.0, 1.0])
    ax = orientation[0] + jitter * rng.standard_normal(n)
    ay = orientation[1] + jitter * rng.standard_normal(n)
    az = orientation[2] + jitter * rng.standard_normal(n)
    return ax, ay, az


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def gen_mobility_sequence(
    blocks: list[tuple[MobilityState, int]],
    fs: float = 256.0,
    epoch_len_s: float = 10.0,
    seed: int = 0,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[MobilityState]]:
    """Accelerometer axes plus per-epoch state labels for a block sequence.

    Idle epochs are exactly constant (device set down); Lying keeps a
    horizontal orientation with rare re-orientations and tiny jitter;
    Stationary is an upright worn posture with small jitter; Mobile adds
    large movement energy on all axes.
    """
    n_epoch = int(round(fs * epoch_len_s))
    labels: list[MobilityState] = []
    for state, count in blocks:
        labels.extend([state] * count)

    xs, ys, zs = [], [], []
    lying_orientation = None
    for i, state in enumerate(labels):
        rng = epoch_rng(seed, _DOMAIN_MOBILITY, i)
        if state == MobilityState.IDLE:
            ax = np.full(n_epoch, 0.0)
            ay = np.full(n_epoch, 0.0)
            az = np.full(n_epoch, 1.0)
        elif state == MobilityState.LYING:
            if lying_orientation is None or rng.uniform() < 0.03:
                tilt = rng.uniform(-0.25, 0.25, size=2)
                lying_orientation = _unit(np.array([tilt[0], tilt[1], rng.choice([-1.0, 1.0])]))
            ax, ay, az = _still_acc(rng, n_epoch, lying_orientation, jitter=0.002)
        elif state == MobilityState.STATIONARY:
            upright = _unit(np.array([rng.uniform(-0.15, 0.15), -1.0, rng.uniform(-0.15, 0.15)]))
            ax, ay, az = _still_acc(rng, n_epoch, upright, jitter=0.015)
        elif state == MobilityState.MOBILE:
            heading = _unit(rng.standard_normal(3))
            scale = rng.uniform(0.15, 0.45)
            ax = heading[0] + scale * _band_noise(rng, n_epoch, fs, 0.5, 12.0, tilt=0.3)
            ay = heading[1] + scale * _band_noise(rng, n_epoch, fs, 0.5, 12.0, tilt=0.3)
            az = heading[2] + scale * _band_noise(rng, n_epoch, fs, 0.5, 12.0, tilt=0.3)
        else:
            raise ValueError(f"unknown mobility state {state}")
        xs.append(ax)
        ys.append(ay)
        zs.append(az)

    if not labels:
        empty = np.zeros(0)
        return (empty, empty.copy(), empty.copy()), labels
    return (np.concatenate(xs), np.concatenate(ys), np.concatenate(zs)), labels


def subject_amplitude_scale(seed: int, subject_index: int) -> float:
    """Per-subject EEG amplitude factor, stable under the master seed."""
    return float(epoch_rng(seed, _DOMAIN_SUBJECT, subject_index).uniform(0.85, 1.1))


@dataclass(frozen=True, slots=True)
class SynthEpoch(EpochSample):
    """A generated labelled epoch, which holds the key it is drawn from.

    It holds no samples: ``eeg`` and ``acc_norm`` draw them on each read,
    from the generators of (``seed``, subject ``subject_index``, epoch
    ``epoch_number``, ``label``), as ``gen_artifact_epoch`` does.  A
    training set of them thus holds only the epochs being turned into
    features at the time.
    """

    subject_index: int
    epoch_number: int
    subject_scale: float
    fs: float
    epoch_len_s: float
    seed: int

    @property
    def eeg(self) -> np.ndarray:
        return _artifact_eeg(
            self.label, self.fs, self.epoch_len_s, self.seed, self._key, self.subject_scale
        )

    @property
    def acc_norm(self) -> np.ndarray:
        axes = _artifact_acc(self.label, self.fs, self.epoch_len_s, self.seed, self._key)
        return acc_norm(*axes)

    @property
    def _key(self) -> tuple[int, int]:
        return self.subject_index, self.epoch_number


def gen_labeled_dataset(
    n_subjects: int = 10,
    epochs_per_class_per_subject: int = 50,
    fs: float = 256.0,
    epoch_len_s: float = 10.0,
    seed: int = 0,
) -> list[SynthEpoch]:
    """Balanced multi-subject artifact dataset of labeled epochs, drawn on request."""
    samples: list[SynthEpoch] = []
    for subj in range(n_subjects):
        scale = subject_amplitude_scale(seed, subj)
        subject_id = f"s{subj:02d}"
        night_id = f"{subject_id}n0"
        index = 0
        for k in range(epochs_per_class_per_subject):
            for label in ArtifactClass:
                samples.append(
                    SynthEpoch(
                        subject_id=subject_id,
                        night_id=night_id,
                        channel="EEG",
                        epoch_index=index,
                        label=label,
                        has_acc=True,
                        subject_index=subj,
                        epoch_number=k,
                        subject_scale=scale,
                        fs=fs,
                        epoch_len_s=epoch_len_s,
                        seed=seed,
                    )
                )
                index += 1
    return samples


def _gen_sleep_scores(rng: np.random.Generator, n_scores: int) -> list[int]:
    """A plausible hypnogram: wake at the edges, cycling N1/N2/N3/REM inside."""
    scores = []
    scores.extend([0] * int(rng.integers(2, 6)))
    while len(scores) < n_scores:
        for stage, lo, hi in ((1, 2, 5), (2, 8, 20), (3, 6, 16), (2, 4, 10), (4, 5, 12)):
            scores.extend([stage] * int(rng.integers(lo, hi)))
            if rng.uniform() < 0.08:
                scores.extend([0] * int(rng.integers(1, 3)))
            if len(scores) >= n_scores:
                break
    scores = scores[:n_scores]
    tail = int(rng.integers(2, 5))
    scores[-tail:] = [0] * tail
    return scores


def gen_night(
    subject_index: int = 0,
    n_epochs: int = 360,
    fs: float = 256.0,
    epoch_len_s: float = 10.0,
    sleep_epoch_len_s: float = 30.0,
    channels: tuple[str, ...] = ("EEG L", "EEG R"),
    seed: int = 0,
) -> tuple[Recording, list[AnnotationSpan], list[int], list[MobilityState]]:
    """One synthetic night: recording, annotations, sleep scores, mobility.

    The night opens and closes with Mobile epochs around a long Lying
    span so time-in-bed detection has something to find.
    """
    night_rng = epoch_rng(seed, _DOMAIN_NIGHT, subject_index)
    scale = subject_amplitude_scale(seed, subject_index)
    n = int(round(fs * epoch_len_s)) * n_epochs

    edge = max(2, n_epochs // 60)
    lying = n_epochs - 2 * edge
    blocks = [
        (MobilityState.MOBILE, edge),
        (MobilityState.LYING, lying),
        (MobilityState.MOBILE, edge),
    ]
    axes, mobility = gen_mobility_sequence(blocks, fs, epoch_len_s, seed=seed + subject_index)

    artifact_classes = [c for c in ArtifactClass if c != ArtifactClass.USABLE]
    spans: list[AnnotationSpan] = []
    signals = []
    for ch_idx, ch_label in enumerate(channels):
        pieces = []
        for i in range(n_epochs):
            if night_rng.uniform() < _USABLE_FRACTION:
                label = ArtifactClass.USABLE
            else:
                label = artifact_classes[int(night_rng.integers(0, len(artifact_classes)))]
            # the EEG of gen_artifact_epoch, without drawing its accelerometer
            pieces.append(
                _artifact_eeg(label, fs, epoch_len_s, seed, (subject_index, ch_idx, i), scale)
            )
            if label != ArtifactClass.USABLE:
                start = Fraction(i) * Fraction(repr(epoch_len_s))
                spans.append(
                    AnnotationSpan(ch_label, start, start + Fraction(repr(epoch_len_s)), label)
                )
        signals.append(ChannelSignal(ch_label, np.concatenate(pieces)))

    rec = Recording(
        channels=signals,
        acc=TriAxialAcc(x=axes[0][:n], y=axes[1][:n], z=axes[2][:n]),
        fs=fs,
        device_id=f"synth subject {subject_index}",
    )
    n_scores = int(n_epochs * epoch_len_s // sleep_epoch_len_s)
    return rec, spans, _gen_sleep_scores(night_rng, n_scores), mobility


__all__ = [
    "ACC_AXIS_LABELS",
    "epoch_rng",
    "gen_artifact_epoch",
    "gen_labeled_dataset",
    "gen_mobility_sequence",
    "gen_night",
    "subject_amplitude_scale",
]
