"""Epoch extraction, artifact labeling, class balancing, and subject splits.

Annotation spans carry raw label codes; compound codes collapse onto the
five artifact classes before any epoch-level decision.  Majority votes over
sub-epoch durations are taken in exact rational arithmetic so the
tie-breaking precedence only ever fires on true ties.

Labelling needs a night's layout, not its samples: ``build_epochs`` makes
one ``EpochSample`` label record per channel-epoch from the channel labels,
sample count and rate, so a training set of many nights is labelled and
balanced before any night's samples are read.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import EmptyPartition, EmptyRecording, HeaderFieldUnparsable, UnknownLabelCode
from .signal_io import RecordingLayout, open_input


class ArtifactClass(IntEnum):
    USABLE = 0
    NO_DATA = 1
    HIGH_NOISE = 2
    SPIKY = 3
    M_SHAPED = 4


#: tie-break order: earlier entries win exact duration ties
PRECEDENCE: tuple[ArtifactClass, ...] = (
    ArtifactClass.USABLE,
    ArtifactClass.HIGH_NOISE,
    ArtifactClass.M_SHAPED,
    ArtifactClass.SPIKY,
    ArtifactClass.NO_DATA,
)

_COMPOUND_MERGE = {5: 2, 6: 2, 13: 3, 23: 2, 43: 4}


def merge_compound_labels(code: int) -> ArtifactClass:
    """Collapse a raw annotation code onto the five artifact classes."""
    if 0 <= code <= 4:
        return ArtifactClass(code)
    if code in _COMPOUND_MERGE:
        return ArtifactClass(_COMPOUND_MERGE[code])
    raise UnknownLabelCode(f"annotation code {code} is not recognized")


#: largest decimal exponent a time string may carry: a float's repr needs at
#: most 324, and Fraction would build 10**exponent as an exact integer
_MAX_EXPONENT = 400


def _to_fraction(value: int | float | str | Fraction) -> Fraction:
    if isinstance(value, float):
        # repr round-trips, so the decimal the caller wrote is preserved
        return Fraction(repr(value))
    if isinstance(value, str):
        _, e, exponent = value.strip().lower().rpartition("e")
        if e and abs(int(exponent)) > _MAX_EXPONENT:
            raise ValueError(f"{value!r} has an exponent beyond {_MAX_EXPONENT}")
    return Fraction(value)


@dataclass(frozen=True)
class AnnotationSpan:
    """One labeled time range on one channel, in seconds from night start."""

    channel: str
    start_s: Fraction
    end_s: Fraction
    label: ArtifactClass

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_s", _to_fraction(self.start_s))
        object.__setattr__(self, "end_s", _to_fraction(self.end_s))
        if not self.start_s < self.end_s:
            raise ValueError(f"span [{self.start_s}, {self.end_s}) is empty or reversed")


@dataclass(frozen=True, slots=True)
class EpochSample:
    """The label of one channel-epoch and where its samples are.

    It holds no samples: the epoch is ``epoch_index`` on the epoch grid of
    channel ``channel`` of night ``night_id``.  ``has_acc`` says whether
    that night carries an accelerometer.
    """

    subject_id: str
    night_id: str
    channel: str
    epoch_index: int
    label: ArtifactClass
    has_acc: bool


def assign_epoch_label(
    spans: list[AnnotationSpan],
    epoch_start: int | float | str | Fraction,
    epoch_len: int | float | str | Fraction,
) -> ArtifactClass:
    """Label an epoch by the class covering the most time within it.

    Uncovered time counts as Usable; where spans overlap, the overlapped
    time goes to the higher-precedence class; exact duration ties resolve
    by PRECEDENCE order.
    """
    start = _to_fraction(epoch_start)
    end = start + _to_fraction(epoch_len)

    points = {start, end}
    clipped: list[tuple[Fraction, Fraction, ArtifactClass]] = []
    for span in spans:
        lo, hi = max(span.start_s, start), min(span.end_s, end)
        if lo < hi:
            clipped.append((lo, hi, span.label))
            points.update((lo, hi))

    rank = {cls: i for i, cls in enumerate(PRECEDENCE)}
    durations: dict[ArtifactClass, Fraction] = {cls: Fraction(0) for cls in ArtifactClass}
    cuts = sorted(points)
    for lo, hi in zip(cuts, cuts[1:]):
        covering = [label for s_lo, s_hi, label in clipped if s_lo <= lo and hi <= s_hi]
        winner = min(covering, key=rank.__getitem__) if covering else ArtifactClass.USABLE
        durations[winner] += hi - lo

    best = max(durations.values())
    for cls in PRECEDENCE:
        if durations[cls] == best:
            return cls
    raise AssertionError("unreachable: PRECEDENCE covers all classes")


#: epochs a task of scoring, of mobility features and of their tree
#: predict takes at a time, converting only their samples: the one unit of
#: task memory, since the feature kernels and the forest walk run plain
#: numpy over a task's rows; 64 keeps two channels' temporaries near
#: (128, win) arrays however long the night
BLOCK_EPOCHS = 64


def epoch_grid(n: int, fs: float, epoch_len_s: float) -> tuple[int, int]:
    """(whole epochs, samples per epoch) of ``n`` samples at ``fs`` Hz.

    An epoch is ``round(epoch_len_s * fs)`` samples and the partial tail is
    dropped; no whole epoch raises EmptyRecording.
    """
    win = int(round(epoch_len_s * fs))
    n_epochs = n // win if win >= 1 else 0
    if n_epochs == 0:
        raise EmptyRecording(f"{n} samples make no {epoch_len_s} s epochs at {fs} Hz")
    return n_epochs, win


def epoch_view(x: np.ndarray, fs: float, epoch_len_s: float) -> np.ndarray:
    """The last axis of ``x`` cut into whole epochs (``epoch_grid``):
    (..., n_epochs, win).  For a contiguous ``x`` the result is a view."""
    x = np.asarray(x)
    n_epochs, win = epoch_grid(x.shape[-1], fs, epoch_len_s)
    return x[..., : n_epochs * win].reshape(x.shape[:-1] + (n_epochs, win))


def build_epochs(
    layout: RecordingLayout,
    spans: list[AnnotationSpan],
    window_s: float = 10.0,
    subject_id: str = "",
    night_id: str = "",
) -> list[EpochSample]:
    """Label every channel-epoch of a night on the epoch_view grid.

    Only the night's layout is needed.  Each epoch is labeled over the time
    its samples cover.  Each span is handed only to the epochs it overlaps,
    so the work grows with the number of epochs plus the spans' lengths,
    not with their product.
    """
    samples: list[EpochSample] = []
    if not layout.channels:
        return samples
    if len(set(layout.channels)) < len(layout.channels):
        raise HeaderFieldUnparsable(
            f"channel labels {list(layout.channels)} repeat; spans name a channel by its label"
        )
    n_epochs, win = epoch_grid(layout.n_samples, layout.fs, window_s)
    epoch_len = Fraction(win) / _to_fraction(layout.fs)
    for channel in layout.channels:
        in_epoch: list[list[AnnotationSpan]] = [[] for _ in range(n_epochs)]
        for s in spans:
            if s.channel == channel:
                first = max(math.floor(s.start_s / epoch_len), 0)
                for i in range(first, min(math.ceil(s.end_s / epoch_len), n_epochs)):
                    in_epoch[i].append(s)
        for i in range(n_epochs):
            samples.append(
                EpochSample(
                    subject_id=subject_id,
                    night_id=night_id,
                    channel=channel,
                    epoch_index=i,
                    label=assign_epoch_label(in_epoch[i], i * epoch_len, epoch_len),
                    has_acc=layout.has_acc,
                )
            )
    return samples


def balance_rus(samples: list[EpochSample], seed: int) -> list[EpochSample]:
    """Random-undersample the Usable class down to the artifact total.

    All samples of classes 1-4 are kept; the Usable class is reduced to
    their combined count by uniform sampling without replacement (all kept
    if already smaller).  Input order is preserved.
    """
    usable_idx = [i for i, s in enumerate(samples) if s.label == ArtifactClass.USABLE]
    n_target = len(samples) - len(usable_idx)
    if len(usable_idx) <= n_target:
        return list(samples)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(usable_idx), size=n_target, replace=False)
    keep = set(usable_idx[i] for i in chosen)
    return [s for i, s in enumerate(samples) if s.label != ArtifactClass.USABLE or i in keep]


def subject_split(
    samples: list[EpochSample],
    train_subjects: list[str],
    test_subjects: list[str],
) -> tuple[list[EpochSample], list[EpochSample]]:
    """Partition samples by subject so no subject spans both sides."""
    overlap = set(train_subjects) & set(test_subjects)
    if overlap:
        raise ValueError(f"subjects listed on both sides: {sorted(overlap)}")
    present = {s.subject_id for s in samples}
    unknown = (set(train_subjects) | set(test_subjects)) - present
    if unknown:
        warnings.warn(f"subjects not present in the data: {sorted(unknown)}", stacklevel=2)

    train = [s for s in samples if s.subject_id in set(train_subjects)]
    test = [s for s in samples if s.subject_id in set(test_subjects)]
    if not train or not test:
        raise EmptyPartition("one side of the subject split has no samples")
    return train, test


def load_annotations(path: str | Path) -> list[AnnotationSpan]:
    """Load a channel,start_s,end_s,label CSV; compound codes are merged."""
    with open_input(path) as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:  # a cell past csv's field size limit
            raise HeaderFieldUnparsable(f"{path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["channel", "start_s", "end_s", "label"]:
        raise HeaderFieldUnparsable(f"unexpected annotation header: {header}")
    spans = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            label = merge_compound_labels(int(row[3]))
            spans.append(AnnotationSpan(row[0], _to_fraction(row[1]), _to_fraction(row[2]), label))
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise HeaderFieldUnparsable(f"{path} line {lineno}: {exc}") from exc
    return spans


def write_annotations(spans: list[AnnotationSpan], path: str | Path) -> None:
    """Write spans in the channel,start_s,end_s,label CSV layout, as
    ``csv.writer`` writes it, so a label that holds a comma or a quote reads back."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["channel", "start_s", "end_s", "label"])
        for s in spans:
            writer.writerow([s.channel, _frac_str(s.start_s), _frac_str(s.end_s), int(s.label)])


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(int(f))
    # decimal only when it reads back exactly; otherwise keep num/den
    decimal = repr(float(f))
    return decimal if Fraction(decimal) == f else str(f)
