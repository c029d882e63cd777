"""Fusing per-channel usability with sleep scores into rejected scores.

The chain: binarize per-channel artifact labels, take a strict cross-channel
majority per usability epoch, downsample to the sleep-scoring epoch length by
another strict majority, then overwrite unusable sleep epochs with the
unscorable marker -1.  Ties always fall on the usable side.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import (
    EpochMultipleViolation,
    HeaderFieldUnparsable,
    LengthMismatch,
    ScoreLengthMismatch,
)
from .signal_io import open_input


class SleepStage(IntEnum):
    WAKE = 0
    N1 = 1
    N2 = 2
    N3 = 3
    REM = 4
    UNSCORABLE = -1


#: accepted on input only, remapped to SleepStage.REM
REM_INPUT_ALIAS = 5


@dataclass(frozen=True)
class AggregationConfig:
    """Epoch lengths of the usability and sleep-score grids, in seconds."""

    usability_epoch_len_s: float = 10.0
    sleep_epoch_len_s: float = 30.0

    @property
    def scale_factor(self) -> int:
        ratio = self.sleep_epoch_len_s / self.usability_epoch_len_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise EpochMultipleViolation(
                f"sleep epoch {self.sleep_epoch_len_s}s is not a multiple of "
                f"usability epoch {self.usability_epoch_len_s}s"
            )
        return int(round(ratio))


def binarize(labels: np.ndarray) -> np.ndarray:
    """Artifact labels to 0 (usable) / 1 (unusable); any non-zero is unusable."""
    return (np.asarray(labels, dtype=np.int64) != 0).astype(np.int64)


def channel_majority(binary_channels: list[np.ndarray]) -> np.ndarray:
    """Epoch-wise unusable flag when a strict majority of channels agree."""
    if not binary_channels:
        raise LengthMismatch("no channels to aggregate")
    rows = [np.asarray(b, dtype=np.int64) for b in binary_channels]
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise LengthMismatch(f"channel score lengths differ: {sorted(lengths)}")
    stacked = np.stack(rows)
    return (stacked.mean(axis=0) > 0.5).astype(np.int64)


def downsample_majority(flags: np.ndarray, scale_factor: int) -> np.ndarray:
    """Collapse scale_factor usability epochs onto one sleep epoch.

    The trailing partial group is dropped; a group turns unusable only on
    a strict majority.
    """
    flags = np.asarray(flags, dtype=np.int64)
    n_groups = len(flags) // scale_factor
    groups = flags[: n_groups * scale_factor].reshape(n_groups, scale_factor)
    return (groups.mean(axis=1) > 0.5).astype(np.int64)


def reject_artifacts(sleep_scores: np.ndarray, unusable: np.ndarray) -> np.ndarray:
    """Overwrite unusable sleep epochs with -1.

    A length mismatch of exactly one epoch (a trailing partial) is repaired
    by truncating the longer side; anything larger raises.
    """
    s = np.asarray(sleep_scores, dtype=np.int64)
    u = np.asarray(unusable, dtype=np.int64)
    if abs(len(s) - len(u)) > 1:
        raise ScoreLengthMismatch(f"{len(s)} sleep scores vs {len(u)} usability epochs")
    n = min(len(s), len(u))
    s, u = s[:n], u[:n]
    out = s.copy()
    out[u == 1] = SleepStage.UNSCORABLE
    return out


def rejected_scores(
    label_channels: list[np.ndarray],
    sleep_scores: np.ndarray,
    config: AggregationConfig = AggregationConfig(),
) -> np.ndarray:
    """Full chain from per-channel artifact labels to artifact-rejected scores."""
    merged = channel_majority([binarize(ch) for ch in label_channels])
    per_sleep_epoch = downsample_majority(merged, config.scale_factor)
    return reject_artifacts(sleep_scores, per_sleep_epoch)


def normalize_sleep_codes(raw: np.ndarray, allow_unscorable: bool = False) -> np.ndarray:
    """Validate raw stage codes and map the REM alias 5 onto 4.

    The unscorable marker -1 is accepted only with ``allow_unscorable``:
    artifact-rejected scores carry it, manual sleep scores never do.
    """
    codes = np.asarray(raw, dtype=np.int64)
    lowest = int(SleepStage.UNSCORABLE) if allow_unscorable else 0
    bad = codes[(codes < lowest) | (codes > REM_INPUT_ALIAS)]
    if bad.size:
        raise HeaderFieldUnparsable(
            f"sleep stage codes out of range: {sorted(set(bad.tolist()))[:5]}"
        )
    return np.where(codes == REM_INPUT_ALIAS, int(SleepStage.REM), codes)


def load_sleep_scores(path: str | Path, allow_unscorable: bool = False) -> np.ndarray:
    """Read one stage code per line; 5 is accepted as REM, -1 only if allowed."""
    with open_input(path) as handle:
        text = handle.read()
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(np.int64(int(line)))
        except (ValueError, OverflowError) as exc:  # not an integer, or past int64
            raise HeaderFieldUnparsable(f"{path} line {lineno}: {line!r}") from exc
    return normalize_sleep_codes(np.asarray(values, dtype=np.int64), allow_unscorable)


def write_sleep_scores(scores: np.ndarray | list[int], path: str | Path) -> None:
    """Write one stage code per line, as ``load_sleep_scores`` reads them."""
    Path(path).write_text("\n".join(str(int(v)) for v in scores) + "\n")


def write_rejected_csv(scores: np.ndarray, epoch_len_s: float, path: str | Path) -> None:
    """Write ``epoch_start_s,score`` rows, each start the ``repr`` of its float."""
    lines = ["epoch_start_s,score"]
    lines += [f"{repr(i * epoch_len_s)},{int(v)}" for i, v in enumerate(scores)]
    Path(path).write_text("\n".join(lines) + "\n")
